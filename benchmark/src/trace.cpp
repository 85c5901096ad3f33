#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace bench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name, long op) {
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Spans close innermost first; a scope closed out of order drops the
  // spans opened inside it from the open stack as well.
  const auto it = std::find(open_.begin(), open_.end(), id);
  open_.erase(it, open_.end());
}

void Tracer::add_derived(std::string name, long op, double start_us,
                         double end_us, int parent) {
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.parent = parent;
  span.start_us = start_us;
  span.end_us = end_us;
  span.derived = true;
  spans_.push_back(std::move(span));
}

double Tracer::duration_us(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return span.end_us - span.start_us;
}

std::vector<double> Tracer::self_us() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_us, span.end_us);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double reach = span.start_us;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end_us);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, span.end_us));
    }
    self[i] = std::max(0.0, span.end_us - span.start_us - covered);
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Span names are fixed identifiers chosen by the benchmark; they
    // need no JSON escaping.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"op\":%ld,\"derived\":%s}}\n",
                 i == 0 ? "" : ",", span.name.c_str(), span.start_us,
                 span.end_us - span.start_us, i, span.parent, span.op,
                 span.derived ? "true" : "false");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace bench

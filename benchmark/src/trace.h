// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into each library layer; every span carries
// its parent and the id of the operation it belongs to, and the whole
// record is written once, at exit, in the Chrome trace-event format
// (opens in Perfetto or chrome://tracing).
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace bench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    long op = -1;
    /// Placed from SolveStats phase times rather than timed directly.
    bool derived = false;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one.
  int begin(std::string name, long op);
  void end(int id);
  void rename(int id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }
  /// Records a closed span with explicit times under `parent`.
  void add_derived(std::string name, long op, double start_us, double end_us,
                   int parent);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] double duration_us(int id) const;
  /// Per span: its duration minus the part of it its children cover.
  [[nodiscard]] std::vector<double> self_us() const;

  /// Writes the Chrome trace-event JSON; false when the file cannot be
  /// written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Span scope: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, long op)
      : tracer_(tracer), id_(tracer.begin(std::move(name), op)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace bench

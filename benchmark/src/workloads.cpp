#include "workloads.h"

#include <sys/wait.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "engine/fingerprint.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"

namespace bench {

const char* delta_kind(const core::Delta& delta) {
  if (!delta.rerate.empty()) return "rerate";
  if (!delta.add.empty()) return "add";
  return "remove";
}

// ---- cold / remap / restart -------------------------------------------------

SolveRun::SolveRun(const Config& config)
    : config_(config), options(base_options(config)) {
  inputs_.base = table1_specs();
  switch (config.workload) {
    case Workload::kCold: {
      // The paper's fixed input; the seed is not used. The warm-up solve
      // is the reference every operation must reproduce.
      inputs_.populations = {inputs_.base};
      expected_ = {engine::fingerprint(core::solve(inputs_.base, options))};
      break;
    }
    case Workload::kRemap: {
      // New systems of known plants: the analysis cache is warm, each
      // solve's verdict and snapshot caches are its own.
      options.analysis_cache =
          std::make_shared<engine::analysis::AnalysisCache>();
      const BaseAnalysis analysis =
          analyze_base(inputs_.base, options.analysis_cache.get());
      inputs_.populations = remap_populations(
          inputs_.base, analysis.floors, config.seed, kRemapPopulations);
      break;
    }
    case Workload::kRestart: {
      // Write path: solve every population through a fresh directory.
      // Operations then start from that directory alone.
      dir_ = std::make_unique<ScratchDir>(config.work_dir, "restart");
      options.disk_cache =
          std::make_shared<engine::cache::DiskCache>(dir_->path());
      core::SolveOptions writer = options;
      writer.analysis_cache =
          std::make_shared<engine::analysis::AnalysisCache>();
      const BaseAnalysis analysis =
          analyze_base(inputs_.base, writer.analysis_cache.get(),
                       options.disk_cache.get());
      // Rates in the upper half of each range: near the floor the two
      // fast apps saturate the [9] baseline's busy-period iteration,
      // whose cost would then swamp the disk path this workload is for.
      inputs_.populations =
          remap_populations(inputs_.base, analysis.floors, config.seed,
                            kRestartPopulations, 0.5);
      for (const std::vector<core::AppSpec>& population : inputs_.populations)
        expected_.push_back(
            engine::fingerprint(core::solve(population, writer)));
      break;
    }
    case Workload::kChurn:
      break;
  }
  inputs_.hash = hash_inputs(inputs_);
}

OpOutcome SolveRun::op(long i) {
  const std::size_t p =
      static_cast<std::size_t>(i) % inputs_.populations.size();
  OpOutcome out;
  const Clock::time_point start = Clock::now();
  core::Solution solution = core::solve(inputs_.populations[p], options);
  out.ms = ms_since(start);
  out.saving = solution.saving_vs_baseline();

  const std::string placement = placement_error(solution);
  if (!placement.empty()) out.error = " " + placement;
  const engine::oracle::SolveStats& stats = solution.stats;
  if (config_.workload != Workload::kCold && stats.analysis_misses != 0)
    out.error += " analysis cache missed";
  if (config_.workload == Workload::kRestart && stats.verifier_states != 0)
    out.error += " restart ran the verifier";
  if (!expected_.empty() || observed_.size() < inputs_.populations.size()) {
    std::string fp = engine::fingerprint(solution);
    if (!expected_.empty() && fp != expected_[p])
      out.error += " fingerprint differs from the set-up solve";
    if (expected_.empty() && observed_.size() == p)
      observed_.push_back(std::move(fp));
  }
  if (i == 0) first_ = std::move(solution);
  return out;
}

void SolveRun::finish(Result& result) {
  if (config_.workload == Workload::kCold && first_) {
    const std::string error = reprove_slots(*first_);
    if (!error.empty()) result.fail("op 0: " + error);
  }
  if (config_.workload == Workload::kRemap && !observed_.empty()) {
    // Five seeded operations must match the reference oracle path: one
    // fresh proof per probe, no verdict or snapshot caches.
    core::SolveOptions reference = options;
    reference.memoize_admission = false;
    reference.incremental_admission = false;
    const int n = static_cast<int>(observed_.size());
    std::vector<int> sample(static_cast<std::size_t>(n));
    std::iota(sample.begin(), sample.end(), 0);
    Rng rng(~config_.seed);  // a stream apart from the inputs' Rng(seed)
    const int picks = std::min(5, n);
    for (int k = 0; k < picks; ++k)
      std::swap(sample[static_cast<std::size_t>(k)],
                sample[static_cast<std::size_t>(k + rng.below(n - k))]);
    sample.resize(static_cast<std::size_t>(picks));
    for (const int p : sample) {
      const std::string fp = engine::fingerprint(
          core::solve(inputs_.populations[static_cast<std::size_t>(p)],
                      reference));
      if (fp != observed_[static_cast<std::size_t>(p)])
        result.fail("op " + std::to_string(p) +
                    ": fingerprint differs from the reference oracle path");
    }
  }
}

// ---- churn -----------------------------------------------------------------

ChurnRun::ChurnRun(const Config& config) : options(base_options(config)) {
  options.analysis_cache = std::make_shared<engine::analysis::AnalysisCache>();
  inputs_.base = table1_specs();
  const BaseAnalysis analysis =
      analyze_base(inputs_.base, options.analysis_cache.get());
  inputs_.walks =
      churn_walks(inputs_.base, analysis, config.seed, kChurnWalks);
  inputs_.hash = hash_inputs(inputs_);
  for (std::size_t w = 0; w < inputs_.walks.size(); ++w)
    for (std::size_t d = 0; d < inputs_.walks[w].deltas.size(); ++d)
      events_.push_back({w, d});
  if (events_.empty()) throw std::runtime_error("churn walks have no events");
  standing_.resize(inputs_.walks.size());
  standing_fp_.resize(inputs_.walks.size());
}

void ChurnRun::fresh_caches() {
  options.verdict_cache = std::make_shared<engine::oracle::VerdictCache>();
  options.snapshot_cache = std::make_shared<engine::oracle::SnapshotCache>();
}

bool ChurnRun::may_stop_before(long i) const {
  return static_cast<std::size_t>(i) % events_.size() == 0;
}

OpOutcome ChurnRun::op(long i) {
  OpOutcome out;
  const Event event = events_[static_cast<std::size_t>(i) % events_.size()];
  const ChurnWalk& walk = inputs_.walks[event.walk];
  if (event.pos == 0) {
    // A new walk; a new pass also starts over with empty caches.
    session_.reset();
    if (event.walk == events_.front().walk) fresh_caches();
    const Clock::time_point start = Clock::now();
    session_ = std::make_unique<core::DimensioningSession>(options);
    static_cast<void>(session_->solve(inputs_.base));
    out.overhead_ms = ms_since(start);
  }
  const core::Delta& delta = walk.deltas[event.pos];
  const Clock::time_point start = Clock::now();
  const core::Solution next = session_->redimension(delta);
  out.ms = ms_since(start);
  out.saving = next.saving_vs_baseline();
  if (delta.rerate.empty() && delta.add.empty() &&
      (next.stats.verifier_states != 0 || next.stats.cache_misses != 0))
    out.error += " removal-only delta ran the verifier";
  if (event.pos + 1 == walk.deltas.size()) {
    std::string fp = engine::fingerprint(next);
    if (!standing_[event.walk]) {
      standing_[event.walk] = next;
      standing_fp_[event.walk] = std::move(fp);
    } else if (fp != standing_fp_[event.walk]) {
      out.error += " walk " + std::to_string(event.walk) +
                   " ends on another solution than in the first pass";
    }
  }
  return out;
}

void ChurnRun::finish(Result& result) {
  for (std::size_t w = 0; w < standing_.size(); ++w) {
    if (!standing_[w]) continue;
    const std::string error = reprove_slots(*standing_[w]);
    if (!error.empty()) result.fail("walk " + std::to_string(w) + ": " + error);
  }
}

std::unique_ptr<WorkloadRun> make_workload(const Config& config) {
  if (config.workload == Workload::kChurn)
    return std::make_unique<ChurnRun>(config);
  return std::make_unique<SolveRun>(config);
}

// ---- timed run -------------------------------------------------------------

namespace {

/// Latency samples of the measured phase. Their storage is allocated and
/// touched before the phase starts, so the phase allocates nothing whose
/// size depends on how many operations it completes; past the capacity a
/// uniform sample of all operations is kept (reservoir sampling).
class LatencySamples {
 public:
  // A non-zero fill writes every page, so all of them are resident
  // before the fork.
  explicit LatencySamples(std::size_t capacity) : values_(capacity, -1.0) {}

  void add(double ms) {
    std::size_t slot = seen_;
    if (seen_ >= values_.size())
      slot = static_cast<std::size_t>(rng_.next() % (seen_ + 1));
    if (slot < values_.size()) values_[slot] = ms;
    ++seen_;
  }

  /// Percentile of the kept samples, sorted in place.
  double percentile(double p) {
    const std::size_t n = std::min(seen_, values_.size());
    std::sort(values_.begin(), values_.begin() + static_cast<long>(n));
    return sorted_percentile(values_.data(), n, p);
  }

 private:
  std::vector<double> values_;
  std::size_t seen_ = 0;
  Rng rng_{0x5A3D1E5ull};
};

/// Samples kept per run: 2 MiB, more than any workload completes today.
constexpr std::size_t kLatencySamples = std::size_t{1} << 18;

}  // namespace

std::optional<Result> run_timed(const Config& config, int& status) {
  std::vector<double> setup_s;
  std::unique_ptr<WorkloadRun> run;
  for (int k = 0; k < std::max(1, config.setups); ++k) {
    run.reset();
    const Clock::time_point start = Clock::now();
    run = make_workload(config);
    setup_s.push_back(ms_since(start) / 1000.0);
  }

  // The measured phase runs in a child: its peak RSS then starts from
  // what the set-up keeps live and excludes the set-up's transient proofs
  // (freed heap pages are handed back first). No library thread exists
  // yet (everything so far ran with one thread), so the child inherits a
  // consistent process.
  LatencySamples latency(kLatencySamples);
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child > 0) {
    int wait_status = 0;
    while (waitpid(child, &wait_status, 0) < 0 && errno == EINTR) {
    }
    status = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : 1;
    return std::nullopt;
  }

  Result result;
  result.input_hash = run->inputs().hash;
  double saving_sum = 0.0;
  double busy_ms = 0.0;
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration<double>(config.seconds);
  for (long i = 0;; ++i) {
    if (config.max_ops > 0 && i >= config.max_ops) break;
    if (i > 0 && Clock::now() - start >= budget && run->may_stop_before(i))
      break;
    ++result.attempted;
    OpOutcome out;
    try {
      out = run->op(i);
    } catch (const std::exception& e) {
      out.error = std::string("threw: ") + e.what();
    }
    busy_ms += out.ms + out.overhead_ms;
    latency.add(out.ms);
    saving_sum += out.saving;
    if (!out.error.empty())
      result.fail("op " + std::to_string(i) + ":" + out.error);
  }
  run->finish(result);

  const Workload w = config.workload;
  const double ops = static_cast<double>(result.attempted);
  result.add("op_ms_p50", latency.percentile(50.0), "ms");
  result.add("op_ms_tail", latency.percentile(tail_percentile(w)), "ms");
  result.add("ops_per_s", ops / (busy_ms / 1000.0), "1/s");
  result.add("slots_saved_pct", 100.0 * saving_sum / ops, "%");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("setup_s", percentile(setup_s, 50.0), "s");
  return result;
}

}  // namespace bench

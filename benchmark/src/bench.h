// Shared pieces of the ttdim workload benchmark (benchmark/README.md):
// the run configuration, the seeded inputs of the four workloads, the
// result record the driver prints, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dimensioning.h"
#include "core/session.h"
#include "engine/analysis/app_analysis.h"

namespace bench {

using namespace ttdim;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// splitmix64: a fully specified generator, so a seed yields the same
/// inputs with every standard library (std:: distributions do not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n), n > 0.
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

enum class Workload { kCold, kRemap, kChurn, kRestart };

[[nodiscard]] const char* workload_name(Workload w);

struct Config {
  Workload workload = Workload::kCold;
  std::uint64_t seed = 1;
  /// Length of the measured phase of a timed run (a traced run replays a
  /// fixed prefix instead).
  double seconds = 10.0;
  /// Non-empty: traced run, Chrome trace written here.
  std::string trace_path;
  /// Caps the measured operations (0: bounded by `seconds` only).
  int max_ops = 0;
  /// Independent set-ups per run; setup_s is their median.
  int setups = 3;
  /// SolveOptions::proof_threads of every solve of a traced run (library
  /// default 1). Timed runs keep the default: their measured phase runs
  /// in a forked child, which must not inherit a thread pool.
  int proof_threads = 1;
  /// Directory for files the run creates (restart's disk cache).
  std::string work_dir = "benchmark/out";
};

/// A churn walk: trace seed plus the deltas the walk applies to the
/// Table-1 population, one event per delta.
struct ChurnWalk {
  std::uint64_t seed = 0;
  std::vector<core::Delta> deltas;
};

/// Everything a workload feeds the library, generated from the seed.
struct Inputs {
  std::vector<core::AppSpec> base;  ///< the paper's Table-1 population
  std::vector<std::vector<core::AppSpec>> populations;
  std::vector<ChurnWalk> walks;
  std::string hash;  ///< FNV-1a of the canonical inputs, 16 hex digits
};

/// The per-app analysis parameters core::DimensioningSession derives
/// from default SolveOptions.
[[nodiscard]] engine::analysis::AppAnalysisSpec analysis_spec(
    const core::AppSpec& spec);

/// Timing abstraction of each Table-1 app (analysis through `cache`,
/// written through to `disk` when non-null) and the validity floor
/// max(T*w + 1, max_w(w + T+dw[w] + 1)) of its rate.
struct BaseAnalysis {
  std::vector<verify::AppTiming> timings;
  std::vector<int> floors;
};
[[nodiscard]] BaseAnalysis analyze_base(
    const std::vector<core::AppSpec>& base,
    engine::analysis::AnalysisCache* cache,
    engine::cache::DiskCache* disk = nullptr);

/// The paper's six case-study applications with their Table-1 rates.
[[nodiscard]] std::vector<core::AppSpec> table1_specs();

/// `count` populations of the six Table-1 plants, each rate drawn in
/// [floor + lowest * (r - floor), Table-1 r] by Latin-hypercube blocks of
/// 32 (every block covers each app's rate range evenly), so two seeds
/// give different but equally mixed populations.
[[nodiscard]] std::vector<std::vector<core::AppSpec>> remap_populations(
    const std::vector<core::AppSpec>& base, const std::vector<int>& floors,
    std::uint64_t seed, int count, double lowest = 0.0);

/// `count` churn walks over the Table-1 population. Walk k has the shape
/// (which app leaves, rejoins or re-rates, in which order) of
/// ScenarioGenerator(timings, k + 1).churn_trace(4), aligned as in
/// bench/bench_redimension.cpp; `seed` draws the rate of every re-rate,
/// and an app rejoins at the rate it left with.
[[nodiscard]] std::vector<ChurnWalk> churn_walks(
    const std::vector<core::AppSpec>& base, const BaseAnalysis& analysis,
    std::uint64_t seed, int count);

/// Hash of the canonical form of the inputs (specs and deltas).
[[nodiscard]] std::string hash_inputs(const Inputs& inputs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  long attempted = 0;
  long failed = 0;
  std::string input_hash;
  std::vector<std::string> problems;  ///< first failures, for the log
  std::vector<Metric> metrics;

  /// Records one failed correctness check.
  void fail(const std::string& what);
  void add(std::string name, double value, std::string unit);
};

/// Timed run: set up `setups` times, then fork; the child runs the
/// measured phase with tracing off, checks every output and returns the
/// end-to-end metrics. The parent waits for the child and returns
/// nullopt with the child's exit status in `status`.
[[nodiscard]] std::optional<Result> run_timed(const Config& config,
                                              int& status);

/// Traced run: replay a prefix of the workload untraced, then traced
/// through the library's public stage functions, and report the
/// per-layer ledger (benchmark/src/ledger.cpp).
[[nodiscard]] Result run_traced(const Config& config);

// ---- Statistics ------------------------------------------------------------

/// Linear-interpolation percentile (p in [0, 100]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
/// The same of n samples sorted ascending.
[[nodiscard]] double sorted_percentile(const double* sorted, std::size_t n,
                                       double p);
[[nodiscard]] double mean(const std::vector<double>& samples);
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Tail percentile of op_ms_tail: p98 for churn (a pass has 968 events,
/// ~19 beyond p98, all of them proofs), p90 for remap (~140 solves), p75
/// for cold (~15 solves per run leave too few samples beyond p90), p95
/// for restart, whose file-system-bound ops slow by ~1.7x in episodes of
/// the host that often cover a quarter of a run (benchmark/README.md).
[[nodiscard]] inline double tail_percentile(Workload w) {
  switch (w) {
    case Workload::kChurn: return 98.0;
    case Workload::kRestart: return 95.0;
    case Workload::kRemap: return 90.0;
    case Workload::kCold: break;
  }
  return 75.0;
}

// ---- Shared workload pieces -----------------------------------------------

/// SolveOptions every solve of the benchmark starts from.
[[nodiscard]] core::SolveOptions base_options(const Config& config);

/// Empty string when every app index appears in exactly one proposed
/// slot; otherwise what is wrong.
[[nodiscard]] std::string placement_error(const core::Solution& solution);

/// Timings of one proposed slot's members, in slot order.
[[nodiscard]] std::vector<verify::AppTiming> slot_timings(
    const core::Solution& solution, const std::vector<int>& slot);

/// Re-proves every proposed slot with a fresh, uncached verifier;
/// returns the first unsafe slot's description or an empty string.
[[nodiscard]] std::string reprove_slots(const core::Solution& solution);

/// Unique directory `<parent>/tmp/<tag>-<pid>-<n>`, removed on
/// destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace bench

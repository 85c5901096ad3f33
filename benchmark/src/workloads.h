// The four workloads. Constructing one is its set-up (input generation
// and cache warming); op(i) issues operation i of the closed loop and
// checks its output; finish() runs the checks that need the whole run.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/cache/disk_cache.h"

namespace bench {

struct OpOutcome {
  double ms = 0.0;           ///< latency of the library call
  double overhead_ms = 0.0;  ///< other library work the loop paid for
  double saving = 0.0;       ///< Solution::saving_vs_baseline()
  std::string error;         ///< failed check, empty when correct
};

class WorkloadRun {
 public:
  virtual ~WorkloadRun() = default;
  virtual OpOutcome op(long i) = 0;
  /// Whole-run checks; each failure is one failed operation.
  virtual void finish(Result& result) = 0;
  /// Whether the measured phase may stop before operation i: the run
  /// then covers whole units of work.
  [[nodiscard]] virtual bool may_stop_before(long /*i*/) const { return true; }
  [[nodiscard]] const Inputs& inputs() const noexcept { return inputs_; }

 protected:
  Inputs inputs_;
};

/// cold, remap and restart: operation i solves populations[i mod P]
/// with `options`.
class SolveRun : public WorkloadRun {
 private:
  Config config_;
  /// restart: the directory `options.disk_cache` lives in; declared
  /// first so it is removed last.
  std::unique_ptr<ScratchDir> dir_;

 public:
  explicit SolveRun(const Config& config);
  OpOutcome op(long i) override;
  void finish(Result& result) override;

  /// What each operation passes to core::solve (restart: only the
  /// DiskCache the set-up wrote).
  core::SolveOptions options;

 private:
  /// cold and restart: the fingerprint each population must reproduce.
  std::vector<std::string> expected_;
  /// remap: fingerprints of the first pass over the populations.
  std::vector<std::string> observed_;
  std::optional<core::Solution> first_;
};

/// churn: operation i is one redimension(Delta). A pass walks every
/// churn walk in order, each in its own session; the sessions of a pass
/// share verdict and snapshot caches that start empty, so every pass
/// sees its re-rates and additions for the first time. The analysis
/// cache (rates do not enter it) is warmed in set-up.
class ChurnRun : public WorkloadRun {
 public:
  explicit ChurnRun(const Config& config);
  OpOutcome op(long i) override;
  void finish(Result& result) override;
  [[nodiscard]] bool may_stop_before(long i) const override;

  /// Starts a pass: empty verdict and snapshot caches in `options`.
  void fresh_caches();

  /// What each walk's session starts from.
  core::SolveOptions options;

 private:
  struct Event {
    std::size_t walk;
    std::size_t pos;
  };
  /// The events of one pass, in order.
  std::vector<Event> events_;
  std::unique_ptr<core::DimensioningSession> session_;
  /// Standing solution of each walk at the end of the first pass; later
  /// passes must end every walk on the same one.
  std::vector<std::optional<core::Solution>> standing_;
  std::vector<std::string> standing_fp_;
};

[[nodiscard]] std::unique_ptr<WorkloadRun> make_workload(const Config& config);

/// "remove", "rerate" or "add": the kind of a one-event churn delta.
[[nodiscard]] const char* delta_kind(const core::Delta& delta);

/// Churn walks per pass.
inline constexpr int kChurnWalks = 36;
/// Populations generated for remap (operations cycle through them) and
/// for restart.
inline constexpr int kRemapPopulations = 256;
inline constexpr int kRestartPopulations = 8;

}  // namespace bench

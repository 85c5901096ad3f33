// Parallel batch dimensioning: run many independent end-to-end
// dimensioning problems (core::solve) concurrently on the process-wide
// work-stealing Executor pool. Parallelism comes only from the
// embarrassing independence between systems, so results are
// bit-identical to the serial loop — workers steal the next unclaimed
// job index from the batch's cursor, and every result is written to its
// job's slot, preserving input order regardless of completion order.
//
// Concurrency contract: BatchRunner itself is immutable after
// construction and holds no lock — every index writes only its own
// outcome slot, and all shared mutable state lives behind the annotated
// Executor pool and cache mutexes (support/thread_annotations.h), whose
// discipline the clang -Wthread-safety lane checks at compile time.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/dimensioning.h"

namespace ttdim::engine {

/// One independent dimensioning problem.
struct BatchJob {
  std::vector<core::AppSpec> specs;
  core::SolveOptions options;
};

/// Result slot for one job: either a full solution or the solve error
/// (e.g. an unmeetable requirement) — a failing job must not poison the
/// rest of the batch.
struct BatchOutcome {
  std::optional<core::Solution> solution;
  std::string error;

  [[nodiscard]] bool ok() const { return solution.has_value(); }
};

/// A whole batch's outcomes plus the aggregate accounting: the total
/// failed-job count (every !ok() slot — a multi-failure batch reports
/// all of them, not just the first) and the element-wise sum of the
/// successful jobs' SolveStats.
struct BatchReport {
  std::vector<BatchOutcome> outcomes;
  int failed = 0;
  oracle::SolveStats stats;

  /// One-line human-readable form for benches and logs, built on
  /// SolveStats::summary().
  [[nodiscard]] std::string summary() const;
};

class BatchRunner {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency(); threads == 1
  /// runs everything on the calling thread (the determinism baseline).
  explicit BatchRunner(int threads = 0);

  [[nodiscard]] int thread_count() const { return threads_; }

  /// Dimension every job (outcome i corresponds to jobs[i]) and report
  /// the aggregate (failed count, summed stats).
  [[nodiscard]] BatchReport run(const std::vector<BatchJob>& jobs) const;

 private:
  int threads_;
};

}  // namespace ttdim::engine

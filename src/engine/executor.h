// Persistent work-stealing executor: one lazily-started worker pool
// shared by every parallel construct in the process. BatchRunner batches
// and parallel_for_index (the dwell-table search) both submit here, so
// nested parallelism shares one bounded set of threads instead of each layer
// spawning its own (the per-batch std::thread spawning this replaces
// oversubscribed as soon as per-job cost dropped toward spawn overhead).
//
// Scheduling model: each run() is a job with its own atomic index cursor
// — the per-job task queue. The submitting thread always works its own
// job; idle pool workers steal indices from whatever job has work left
// and room under its parallelism cap. Every index runs exactly once and
// writes only state it owns, so results are independent of the thread
// count and of which thread ran which index — the same determinism
// contract the old parallel_for had.
//
// Blocking nests safely: a worker that submits a nested job drains that
// job's own cursor before waiting, so it degenerates to the serial loop
// when no sibling is free — never a deadlock, never an extra thread.
//
// The pool's locking discipline is machine-checked: the implementation's
// job table, worker handles and stop flag are GUARDED_BY the pool mutex
// (an annotated support::Mutex, support/thread_annotations.h) and every
// `_locked` helper carries REQUIRES — the clang -Wthread-safety CI lane
// proves the discipline on every path, beyond the schedules TSan sees.
#pragma once

#include <functional>

namespace ttdim::engine {

class Executor {
 public:
  /// `max_threads` caps how many pool workers may ever be spawned
  /// (spawning is lazy: a run() only grows the pool toward its own
  /// parallelism request, never toward the cap for its own sake).
  explicit Executor(int max_threads = kDefaultMaxThreads);

  /// Joins all workers. Must not race with in-flight run() calls.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool (lazily constructed, joined at exit).
  [[nodiscard]] static Executor& global();

  /// Run fn(i) for i in [0, n), each index exactly once; fn must only
  /// write state owned by index i. At most `parallelism` threads
  /// (including the calling thread, which always participates) execute
  /// the job concurrently. Blocks until every index has run. Exceptions
  /// escaping fn are collected per index and the lowest-index one is
  /// rethrown — deterministically, unlike first-to-fail — after all
  /// indices ran. parallelism <= 1 runs the plain serial loop on the
  /// calling thread (fail-fast: the first exception propagates
  /// immediately and later indices never run).
  void run(int parallelism, int n, const std::function<void(int)>& fn);

  /// Pool workers spawned so far (excludes calling threads).
  [[nodiscard]] int worker_count() const;

  /// Default pool cap: far above any sane parallelism request, so
  /// explicit thread counts (tests pinning 8 threads on a 1-core box)
  /// still get real concurrency, while runaway requests stay bounded.
  static constexpr int kDefaultMaxThreads = 256;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace ttdim::engine

#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <system_error>
#include <thread>
#include <vector>

#include "support/check.h"
#include "support/thread_annotations.h"

namespace ttdim::engine {

namespace {

/// One run() call: the per-job task queue is the atomic index cursor —
/// claiming an index IS dequeuing a task, and a foreign thread claiming
/// from another job's cursor IS stealing. Everything here is either
/// atomic, written pre-publication, or owned per index; the mutable
/// pool-side state (how many threads are attached to the job) lives in
/// Impl::jobs under the pool mutex, where the thread-safety analysis can
/// see its guard.
struct Job {
  int n = 0;
  int parallelism = 1;  ///< attached-thread cap, including the caller
  const std::function<void(int)>* fn = nullptr;
  std::atomic<int> cursor{0};  ///< next unclaimed index
  std::atomic<int> done{0};    ///< indices finished executing
  /// Slot i written only by the thread that ran index i; reads are
  /// ordered after every write by the acquire load of done == n.
  std::vector<std::exception_ptr> errors;
  std::atomic<bool> failed{false};
  support::Mutex m;  ///< pairs with `complete` (the predicate is atomic)
  support::CondVar complete;
};

void finish_index(Job& job) {
  // The release increment publishes this index's writes (fn state and
  // errors[i]); the caller's acquire load of done == n in run() then
  // orders every slot read after every slot write — the join-equivalent
  // of the old per-batch std::thread::join.
  if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
    { support::MutexLock lock(job.m); }
    job.complete.NotifyAll();
  }
}

void drain(Job& job) {
  for (;;) {
    const int i = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      (*job.fn)(i);
    } catch (...) {
      job.errors[static_cast<std::size_t>(i)] = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
    finish_index(job);
  }
}

}  // namespace

struct Executor::Impl {
  explicit Impl(int cap) : max_threads(cap) {}

  /// One live job plus its pool-side bookkeeping: `attached` counts the
  /// threads currently draining the job (including the submitter). It
  /// lives here — not in Job — precisely so GUARDED_BY names its real
  /// guard: the pool mutex, which every reader and writer already holds.
  struct ActiveJob {
    std::shared_ptr<Job> job;
    int attached = 0;
  };

  const int max_threads;
  support::Mutex mu;
  support::CondVar work;
  /// Active jobs in submission order (outer batches stay ahead of their
  /// own nested fan-outs).
  std::vector<ActiveJob> jobs GUARDED_BY(mu);
  std::vector<std::thread> workers GUARDED_BY(mu);
  bool stop GUARDED_BY(mu) = false;

  /// Claim the oldest job with unclaimed work and room under its cap,
  /// attaching the calling thread to it; nullptr when nothing is ready.
  std::shared_ptr<Job> claim_locked() REQUIRES(mu) {
    for (ActiveJob& entry : jobs)
      if (entry.job->cursor.load(std::memory_order_relaxed) < entry.job->n &&
          entry.attached < entry.job->parallelism) {
        ++entry.attached;
        return entry.job;
      }
    return nullptr;
  }

  /// Detach the calling thread from `job`. The submitter may already
  /// have retired the job's entry (it only does so once done == n and
  /// every stolen index has finished), in which case there is nothing
  /// left to account.
  void release_locked(const Job& job) REQUIRES(mu) {
    for (ActiveJob& entry : jobs)
      if (entry.job.get() == &job) {
        --entry.attached;
        return;
      }
  }

  /// Grow the pool toward `wanted` workers (never beyond max_threads).
  /// A spawn failure is not fatal: the submitting thread always drains
  /// its own job, so fewer workers only means less overlap.
  void ensure_workers_locked(int wanted) REQUIRES(mu) {
    const int target = std::min(wanted, max_threads);
    while (static_cast<int>(workers.size()) < target) {
      try {
        workers.emplace_back([this] { worker_loop(); });
      } catch (const std::system_error&) {
        break;
      }
    }
  }

  void worker_loop() {
    support::MutexLock lock(mu);
    for (;;) {
      const std::shared_ptr<Job> job = claim_locked();
      if (!job) {
        if (stop) return;
        work.Wait(mu);
        continue;
      }
      lock.Unlock();
      drain(*job);
      lock.Lock();
      release_locked(*job);
    }
  }
};

Executor::Executor(int max_threads) : impl_(new Impl(max_threads)) {
  TTDIM_EXPECTS(max_threads >= 0);
}

Executor::~Executor() {
  // Swap the worker handles out under the lock, join outside it: a
  // worker needs the pool mutex to observe `stop` and exit, so joining
  // while holding it would deadlock (and the analysis would flag the
  // unlocked `workers` walk the old code did).
  std::vector<std::thread> retired;
  {
    support::MutexLock lock(impl_->mu);
    impl_->stop = true;
    retired.swap(impl_->workers);
  }
  impl_->work.NotifyAll();
  for (std::thread& t : retired) t.join();
  delete impl_;
}

Executor& Executor::global() {
  static Executor instance;
  return instance;
}

void Executor::run(int parallelism, int n, const std::function<void(int)>& fn) {
  TTDIM_EXPECTS(parallelism >= 1);
  TTDIM_EXPECTS(n >= 0);
  if (n == 0) return;
  const int attached_cap = std::min(parallelism, n);
  if (attached_cap <= 1) {
    // Serial contract: fail fast, later indices never run.
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  const auto job = std::make_shared<Job>();
  job->n = n;
  job->parallelism = attached_cap;
  job->fn = &fn;
  job->errors.resize(static_cast<std::size_t>(n));
  {
    support::MutexLock lock(impl_->mu);
    impl_->jobs.push_back({job, 1});  // the caller attaches as worker 0
    impl_->ensure_workers_locked(attached_cap - 1);
  }
  impl_->work.NotifyAll();

  drain(*job);  // the caller is always worker 0 of its own job
  {
    support::MutexLock lock(job->m);
    job->complete.Wait(job->m, [&] {
      return job->done.load(std::memory_order_acquire) >= n;
    });
  }
  {
    support::MutexLock lock(impl_->mu);
    auto& jobs = impl_->jobs;
    jobs.erase(std::find_if(
        jobs.begin(), jobs.end(),
        [&](const Impl::ActiveJob& entry) { return entry.job == job; }));
  }

  if (job->failed.load(std::memory_order_relaxed))
    for (const std::exception_ptr& error : job->errors)
      if (error) std::rethrow_exception(error);
}

int Executor::worker_count() const {
  support::MutexLock lock(impl_->mu);
  return static_cast<int>(impl_->workers.size());
}

}  // namespace ttdim::engine


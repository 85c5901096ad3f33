// BatchRunner: deterministic parallel dimensioning. The load-bearing
// property is that thread count is unobservable in the results — N jobs
// on 1 thread and on 8 threads produce byte-identical fingerprints, with
// per-job failures isolated into their own outcome slot.
#include <set>
#include <stdexcept>
#include <vector>

#include "casestudy/apps.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/batch_runner.h"
#include "engine/fingerprint.h"
#include "engine/oracle/verdict_cache.h"
#include "gtest/gtest.h"

namespace ttdim::engine {
namespace {

core::AppSpec spec_of(const casestudy::App& app) {
  return {app.name, app.plant, app.kt, app.ke, app.min_interarrival,
          app.settling_requirement};
}

// Small heterogeneous batch: single-app systems derived from the paper's
// 1-state cruise controller, distinct per job so a mixed-up result order
// would be caught by the fingerprint comparison.
std::vector<BatchJob> small_batch() {
  std::vector<BatchJob> jobs;
  const int interarrivals[] = {60, 80, 100, 120};
  for (int r : interarrivals) {
    BatchJob job;
    core::AppSpec spec = spec_of(casestudy::c6());
    spec.min_interarrival = r;
    job.specs = {spec};
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(BatchRunner, ThreadCountDefaultsAndOverrides) {
  EXPECT_GE(BatchRunner(0).thread_count(), 1);
  EXPECT_EQ(BatchRunner(1).thread_count(), 1);
  EXPECT_EQ(BatchRunner(8).thread_count(), 8);
  EXPECT_THROW(static_cast<void>(BatchRunner(-1)), std::logic_error);
}

TEST(BatchRunner, OneThreadAndEightThreadsByteIdentical) {
  const std::vector<BatchJob> jobs = small_batch();
  const std::vector<BatchOutcome> serial = BatchRunner(1).run(jobs).outcomes;
  const std::vector<BatchOutcome> parallel =
      BatchRunner(8).run(jobs).outcomes;
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  std::set<std::string> distinct;
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    const std::string a = fingerprint(*serial[i].solution);
    EXPECT_EQ(a, fingerprint(*parallel[i].solution)) << "job " << i;
    distinct.insert(a);
  }
  // The jobs really are distinct, so slot-order mix-ups cannot cancel out.
  EXPECT_EQ(distinct.size(), jobs.size());
}

TEST(BatchRunner, FailingJobIsolatedFromTheBatch) {
  std::vector<BatchJob> jobs = small_batch();
  // J* below JT is unmeetable even with a dedicated slot: solve throws,
  // and the batch must convert that into a per-job error.
  jobs[1].specs[0].settling_requirement = 1;
  const std::vector<BatchOutcome> outcomes = BatchRunner(8).run(jobs).outcomes;
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_FALSE(outcomes[1].error.empty());
  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_TRUE(outcomes[3].ok());
}

TEST(BatchRunner, EmptyBatch) {
  EXPECT_TRUE(BatchRunner(4).run({}).outcomes.empty());
}

TEST(BatchRunner, ReportCountsEveryFailedJob) {
  // Two unmeetable requirements in one batch: the report must surface
  // both failures, not just the first (the old outcome-only API left
  // multi-failure batches silently under-reported unless the caller
  // scanned every slot).
  std::vector<BatchJob> jobs = small_batch();
  jobs[1].specs[0].settling_requirement = 1;
  jobs[3].specs[0].settling_requirement = 1;
  const BatchReport report = BatchRunner(4).run(jobs);
  EXPECT_EQ(report.failed, 2);
  ASSERT_EQ(report.outcomes.size(), jobs.size());
  EXPECT_TRUE(report.outcomes[0].ok());
  EXPECT_FALSE(report.outcomes[1].ok());
  EXPECT_TRUE(report.outcomes[2].ok());
  EXPECT_FALSE(report.outcomes[3].ok());
  // Aggregate stats cover the successful jobs; the summary line carries
  // both the failure count and the SolveStats counters.
  EXPECT_GT(report.stats.oracle_calls, 0);
  const std::string line = report.summary();
  EXPECT_NE(line.find("2 failed"), std::string::npos);
  EXPECT_NE(line.find("analysis cache"), std::string::npos);
}

TEST(BatchRunner, SharedAnalysisCacheReusesAnalysesAcrossJobs) {
  // The four jobs differ only in min_interarrival — not an analysis
  // input — so with a shared cache the whole batch pays the stability +
  // dwell cost exactly once.
  std::vector<BatchJob> jobs = small_batch();
  const auto cache = std::make_shared<analysis::AnalysisCache>();
  for (BatchJob& job : jobs) job.options.analysis_cache = cache;
  const BatchReport report = BatchRunner(1).run(jobs);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.stats.analysis_misses, 1);
  EXPECT_EQ(report.stats.analysis_hits,
            static_cast<long>(jobs.size()) - 1);
  EXPECT_EQ(cache->stats().insertions, 1);
  EXPECT_EQ(cache->stats().evictions, 0);

  // Shared-cache outcomes are byte-identical to fully private solves.
  const std::vector<BatchOutcome> reference =
      BatchRunner(1).run(small_batch()).outcomes;
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(report.outcomes[i].ok()) << report.outcomes[i].error;
    ASSERT_TRUE(reference[i].ok()) << reference[i].error;
    EXPECT_EQ(fingerprint(*report.outcomes[i].solution),
              fingerprint(*reference[i].solution))
        << "job " << i;
  }
}

TEST(BatchRunner, MemoizedAndUncachedSolvesFingerprintIdentically) {
  std::vector<BatchJob> cached_jobs = small_batch();
  std::vector<BatchJob> uncached_jobs = small_batch();
  for (BatchJob& job : uncached_jobs) {
    // The true reference path: both oracle tiers off, one fresh
    // DiscreteVerifier run per probe.
    job.options.memoize_admission = false;
    job.options.incremental_admission = false;
  }
  const std::vector<BatchOutcome> cached =
      BatchRunner(2).run(cached_jobs).outcomes;
  const std::vector<BatchOutcome> uncached =
      BatchRunner(2).run(uncached_jobs).outcomes;
  for (size_t i = 0; i < cached.size(); ++i) {
    ASSERT_TRUE(cached[i].ok()) << cached[i].error;
    ASSERT_TRUE(uncached[i].ok()) << uncached[i].error;
    EXPECT_EQ(fingerprint(*cached[i].solution),
              fingerprint(*uncached[i].solution))
        << "job " << i;
    // The memoized path really went through the oracle layer...
    EXPECT_GT(cached[i].solution->stats.oracle_calls, 0);
    // ...and the uncached path proved every query fresh.
    EXPECT_EQ(uncached[i].solution->stats.cache_hits, 0);
  }
}

TEST(BatchRunner, SharedVerdictCacheReusesProofsAcrossJobs) {
  // All four jobs differ only in min_interarrival of one app; their
  // admission queries differ, so cross-job hits require duplicating jobs.
  std::vector<BatchJob> jobs = small_batch();
  const std::vector<BatchJob> copy = small_batch();
  jobs.insert(jobs.end(), copy.begin(), copy.end());
  const auto cache = std::make_shared<oracle::VerdictCache>();
  for (BatchJob& job : jobs) job.options.verdict_cache = cache;

  const std::vector<BatchOutcome> outcomes = BatchRunner(1).run(jobs).outcomes;
  long hits = 0;
  for (const BatchOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    hits += outcome.solution->stats.cache_hits;
  }
  // The second half of the batch repeats the first half's queries
  // verbatim: every one of its oracle calls must be a cache hit.
  long second_half_calls = 0;
  for (size_t i = copy.size(); i < jobs.size(); ++i)
    second_half_calls += outcomes[i].solution->stats.oracle_calls;
  EXPECT_EQ(hits, second_half_calls);
  EXPECT_EQ(cache->stats().evictions, 0);

  // Identical inputs, identical outputs — warm cache included.
  for (size_t i = 0; i < copy.size(); ++i)
    EXPECT_EQ(fingerprint(*outcomes[i].solution),
              fingerprint(*outcomes[i + copy.size()].solution));
}

}  // namespace
}  // namespace ttdim::engine

// The incremental admission oracle: exact-hit / prefix-extension /
// fresh-proof behaviour (the subsumption tier between the first two has
// its own suite, tests/subsumption_test.cpp — first-fit chains grow
// supersets of safe populations, which inclusion cannot answer, so the
// counters here are unchanged by it), snapshot-cache accounting, and the
// property everything rests on — incremental and from-scratch admission
// being observably identical, from single probes up to whole solves
// (verdicts, dwell tables, solve fingerprints; serial and parallel).
#include <memory>
#include <random>
#include <vector>

#include "casestudy/apps.h"
#include "engine/batch_runner.h"
#include "engine/fingerprint.h"
#include "engine/oracle/incremental_oracle.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "gtest/gtest.h"
#include "verify/app_timing.h"
#include "verify/discrete.h"

namespace ttdim::engine::oracle {
namespace {

using verify::AppTiming;
using verify::SlotVerdict;

AppTiming uniform_app(const std::string& name, int t_star, int t_minus,
                      int t_plus, int r) {
  AppTiming a;
  a.name = name;
  a.t_star_w = t_star;
  a.t_minus.assign(static_cast<size_t>(t_star) + 1, t_minus);
  a.t_plus.assign(static_cast<size_t>(t_star) + 1, t_plus);
  a.min_interarrival = r;
  return a;
}

/// Seeded generator of small valid app populations (kept tiny so a full
/// incremental-vs-fresh sweep stays fast).
std::vector<AppTiming> random_chain(std::mt19937_64& rng, int napps) {
  std::uniform_int_distribution<int> t_star_dist(2, 5);
  std::uniform_int_distribution<int> dwell_dist(1, 3);
  std::uniform_int_distribution<int> slack_dist(0, 2);
  std::vector<AppTiming> apps;
  for (int i = 0; i < napps; ++i) {
    const int t_star = t_star_dist(rng);
    const int t_minus = dwell_dist(rng);
    const int t_plus = t_minus + slack_dist(rng);
    // r must exceed both T*w and the longest TT episode (validate()).
    const int r = t_star + t_plus + 1 + slack_dist(rng);
    apps.push_back(
        uniform_app("g" + std::to_string(i), t_star, t_minus, t_plus, r));
  }
  return apps;
}

IncrementalAdmissionOracle make_oracle() {
  return IncrementalAdmissionOracle({}, std::make_shared<VerdictCache>(),
                                    std::make_shared<SnapshotCache>());
}

// ------------------------------------------------------------ the tiers --

TEST(IncrementalOracle, ProbeChainUsesExactPrefixAndFreshTiers) {
  const IncrementalAdmissionOracle oracle = make_oracle();
  const std::vector<AppTiming> chain = {uniform_app("A", 3, 2, 4, 10),
                                        uniform_app("B", 5, 1, 2, 9),
                                        uniform_app("C", 4, 2, 2, 8)};
  // First-fit style growth: {A}, {A,B}, {A,B,C}.
  for (size_t n = 1; n <= chain.size(); ++n) {
    const std::vector<AppTiming> probe(chain.begin(),
                                       chain.begin() + static_cast<long>(n));
    ASSERT_TRUE(oracle.admit(probe)) << n;
  }
  EXPECT_EQ(oracle.calls(), 3);
  EXPECT_EQ(oracle.exact_hits(), 0);
  EXPECT_EQ(oracle.misses(), 3);
  // {A} proves fresh (tier 4); {A,B} and {A,B,C} extend the previous
  // probe's snapshot (tier 3).
  EXPECT_EQ(oracle.prefix_hits(), 2);
  EXPECT_GT(oracle.states_reused(), 0);
  EXPECT_GT(oracle.states_extended(), 0);

  // Exact repeats — any member order — are tier-1 hits.
  std::vector<AppTiming> permuted = {chain[2], chain[0], chain[1]};
  EXPECT_TRUE(oracle.admit(permuted));
  EXPECT_EQ(oracle.exact_hits(), 1);
  EXPECT_EQ(oracle.snapshot_cache()->stats().insertions, 3);
}

TEST(IncrementalOracle, VerdictsMatchFreshAcrossGeneratedChains) {
  std::mt19937_64 rng(20260727);
  const IncrementalAdmissionOracle fresh({}, nullptr, nullptr);
  int safe_seen = 0;
  int unsafe_seen = 0;
  for (int round = 0; round < 25; ++round) {
    const IncrementalAdmissionOracle oracle = make_oracle();
    const std::vector<AppTiming> chain = random_chain(rng, 3);
    for (size_t n = 1; n <= chain.size(); ++n) {
      const std::vector<AppTiming> probe(chain.begin(),
                                         chain.begin() + static_cast<long>(n));
      const SlotVerdict reference = fresh.verify(probe);
      const SlotVerdict incremental = oracle.verify(probe);
      if (reference.safe) {
        // Safe proofs are exhaustive: seeded or not, they count exactly
        // the reachable set — byte-identical verdicts.
        EXPECT_EQ(incremental, reference) << "round " << round << " n " << n;
        ++safe_seen;
      } else {
        // Unsafe searches stop at the first violation found; only the
        // admission answer is pinned.
        EXPECT_FALSE(incremental.safe) << "round " << round << " n " << n;
        ++unsafe_seen;
      }
    }
  }
  // The generator must exercise both verdicts or the sweep proves little.
  EXPECT_GT(safe_seen, 0);
  EXPECT_GT(unsafe_seen, 0);
}

TEST(IncrementalOracle, WitnessQueriesBypassBothCaches) {
  verify::DiscreteVerifier::Options want;
  want.want_witness = true;
  const auto verdicts = std::make_shared<VerdictCache>();
  const auto snapshots = std::make_shared<SnapshotCache>();
  const IncrementalAdmissionOracle oracle(want, verdicts, snapshots);
  const std::vector<AppTiming> config{uniform_app("A", 2, 2, 2, 7),
                                      uniform_app("B", 2, 2, 2, 7),
                                      uniform_app("C", 2, 2, 2, 7)};
  const SlotVerdict v1 = oracle.verify(config);
  EXPECT_FALSE(v1.safe);
  EXPECT_FALSE(v1.witness.empty());
  EXPECT_EQ(oracle.verify(config), v1);  // deterministic fresh re-proof
  EXPECT_EQ(oracle.exact_hits(), 0);
  EXPECT_EQ(verdicts->stats().insertions, 0);
  EXPECT_EQ(snapshots->stats().insertions, 0);
}

TEST(IncrementalOracle, NullCachesVerifyFreshEveryTime) {
  const IncrementalAdmissionOracle oracle({}, nullptr, nullptr);
  const std::vector<AppTiming> config{uniform_app("A", 3, 2, 4, 10)};
  const SlotVerdict v1 = oracle.verify(config);
  EXPECT_EQ(oracle.verify(config), v1);
  EXPECT_EQ(oracle.exact_hits(), 0);
  EXPECT_EQ(oracle.prefix_hits(), 0);
  EXPECT_EQ(oracle.misses(), 2);
  EXPECT_EQ(oracle.states_explored(), 2 * v1.states_explored);
}

// -------------------------------------------------------- SnapshotCache --

verify::ExplorationState snapshot_of(size_t napps, size_t states) {
  verify::ExplorationState s;
  s.napps = napps;
  s.packed.assign(3 * napps * states, 0);
  return s;
}

TEST(SnapshotCache, EvictsLeastRecentlyUsedPastByteBudget) {
  SnapshotCache cache(4096);
  const verify::DiscreteVerifier::Options options;
  const std::vector<AppTiming> apps{uniform_app("A", 3, 2, 4, 10),
                                    uniform_app("B", 5, 1, 2, 9),
                                    uniform_app("C", 4, 2, 2, 8)};
  const SlotConfigKey k1 = SlotConfigKey::prefix_of(apps, 1, options);
  const SlotConfigKey k2 = SlotConfigKey::prefix_of(apps, 2, options);
  const SlotConfigKey k3 = SlotConfigKey::prefix_of(apps, 3, options);
  cache.insert(k1, snapshot_of(1, 500));   // ~1.6 KB
  cache.insert(k2, snapshot_of(2, 250));   // ~1.6 KB
  ASSERT_NE(cache.lookup(k1), nullptr);    // k1 now most recent
  cache.insert(k3, snapshot_of(3, 200));   // ~1.9 KB -> evicts k2
  EXPECT_EQ(cache.lookup(k2), nullptr);
  EXPECT_NE(cache.lookup(k1), nullptr);
  EXPECT_NE(cache.lookup(k3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().bytes, cache.stats().byte_budget);
}

TEST(SnapshotCache, OversizedSnapshotIsDroppedNotInserted) {
  SnapshotCache cache(1024);
  const std::vector<AppTiming> apps{uniform_app("A", 3, 2, 4, 10)};
  const SlotConfigKey key = SlotConfigKey::prefix_of(apps, 1, {});
  cache.insert(key, snapshot_of(1, 10'000));  // 30 KB >> budget
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SnapshotCache, EvictionNeverInvalidatesAHandedOutSnapshot) {
  SnapshotCache cache(4096);
  const std::vector<AppTiming> apps{uniform_app("A", 3, 2, 4, 10),
                                    uniform_app("B", 5, 1, 2, 9)};
  const SlotConfigKey k1 = SlotConfigKey::prefix_of(apps, 1, {});
  cache.insert(k1, snapshot_of(1, 500));
  const std::shared_ptr<const verify::ExplorationState> held =
      cache.lookup(k1);
  ASSERT_NE(held, nullptr);
  cache.insert(SlotConfigKey::prefix_of(apps, 2, {}),
               snapshot_of(2, 600));  // evicts k1
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_EQ(held->state_count(), 500u);  // still alive for the holder
  cache.clear();
  EXPECT_EQ(held->state_count(), 500u);
}

// ------------------------------------- solve-level equivalence (end-to-end)

core::AppSpec spec_of(const casestudy::App& app, int min_interarrival) {
  core::AppSpec spec{app.name + "_r" + std::to_string(min_interarrival),
                     app.plant,
                     app.kt,
                     app.ke,
                     min_interarrival,
                     app.settling_requirement};
  return spec;
}

/// Two three-app systems sharing slots: cheap to analyse (one-state
/// cruise-controller plant) yet with a non-trivial first-fit walk.
std::vector<BatchJob> multi_app_jobs() {
  std::vector<BatchJob> jobs;
  for (const int base : {60, 90}) {
    BatchJob job;
    const casestudy::App& app = casestudy::c6();
    job.specs = {spec_of(app, base), spec_of(app, base + 20),
                 spec_of(app, base + 40)};
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(IncrementalSolve, OnOffSerialParallelFingerprintIdentically) {
  // The satellite acceptance property: identical verdicts (slot
  // assignments), dwell tables and solve fingerprints with
  // incremental_admission on and off, serial and parallel.
  std::vector<BatchJob> on = multi_app_jobs();
  std::vector<BatchJob> off = multi_app_jobs();
  for (BatchJob& job : off) job.options.incremental_admission = false;
  const std::vector<BatchOutcome> on_serial = BatchRunner(1).run(on).outcomes;
  const std::vector<BatchOutcome> on_parallel = BatchRunner(4).run(on).outcomes;
  const std::vector<BatchOutcome> off_serial =
      BatchRunner(1).run(off).outcomes;
  const std::vector<BatchOutcome> off_parallel =
      BatchRunner(4).run(off).outcomes;
  for (size_t i = 0; i < on.size(); ++i) {
    ASSERT_TRUE(on_serial[i].ok()) << on_serial[i].error;
    ASSERT_TRUE(off_serial[i].ok()) << off_serial[i].error;
    const core::Solution& a = *on_serial[i].solution;
    const core::Solution& b = *off_serial[i].solution;
    for (size_t k = 0; k < a.apps.size(); ++k) {
      EXPECT_EQ(a.apps[k].timing.t_minus, b.apps[k].timing.t_minus);
      EXPECT_EQ(a.apps[k].timing.t_plus, b.apps[k].timing.t_plus);
    }
    EXPECT_EQ(a.proposed.slots, b.proposed.slots);
    const std::string print = fingerprint(a);
    EXPECT_EQ(print, fingerprint(b)) << "job " << i;
    EXPECT_EQ(print, fingerprint(*on_parallel[i].solution)) << "job " << i;
    EXPECT_EQ(print, fingerprint(*off_parallel[i].solution)) << "job " << i;
    // The incremental runs really exercised the prefix tier...
    EXPECT_GT(a.stats.prefix_hits + a.stats.cache_hits, 0) << "job " << i;
    // ...and the disabled runs never touched it.
    EXPECT_EQ(b.stats.prefix_hits, 0) << "job " << i;
    EXPECT_EQ(b.stats.states_reused, 0) << "job " << i;
  }
}

TEST(IncrementalSolve, SharedSnapshotCacheReusesPrefixesAcrossSolves) {
  const auto snapshots = std::make_shared<SnapshotCache>();
  std::vector<BatchJob> jobs = multi_app_jobs();
  for (BatchJob& job : jobs) job.options.snapshot_cache = snapshots;
  // Each job twice: the second pass re-proves nothing it can extend —
  // verdict caches are per-solve here, so reuse comes from the shared
  // snapshot tier alone.
  const std::vector<BatchJob> copy = jobs;
  jobs.insert(jobs.end(), copy.begin(), copy.end());
  const std::vector<BatchOutcome> outcomes = BatchRunner(1).run(jobs).outcomes;
  for (const BatchOutcome& outcome : outcomes)
    ASSERT_TRUE(outcome.ok()) << outcome.error;
  for (size_t i = 0; i < copy.size(); ++i) {
    const core::Solution& first = *outcomes[i].solution;
    const core::Solution& second = *outcomes[i + copy.size()].solution;
    EXPECT_EQ(fingerprint(first), fingerprint(second));
    // Repeated safe probes are answered from their full-length ordered
    // snapshots without a search — exact hits despite the per-solve
    // verdict caches — so the repeat explores strictly fewer states.
    EXPECT_GT(second.stats.cache_hits, 0);
    EXPECT_LT(second.stats.verifier_states, first.stats.verifier_states);
  }
  EXPECT_GT(snapshots->stats().hits, 0);
}

}  // namespace
}  // namespace ttdim::engine::oracle

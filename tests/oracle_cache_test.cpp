// The exact-hit tier of the admission oracle: canonical keys
// (permutation- and name-independent), VerdictCache accounting and
// eviction, and — the soundness property everything rests on — cached
// verdicts being indistinguishable from fresh DiscreteVerifier runs
// across generated slot configurations.
#include <algorithm>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "engine/oracle/incremental_oracle.h"
#include "engine/oracle/slot_config_key.h"
#include "engine/oracle/verdict_cache.h"
#include "gtest/gtest.h"
#include "verify/app_timing.h"
#include "verify/discrete.h"

namespace ttdim::engine::oracle {
namespace {

using verify::AppTiming;
using verify::DiscreteVerifier;
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

/// Seeded generator of small valid slot configurations (1-3 apps). Kept
/// tiny so a full fresh-vs-cached verification sweep stays fast.
std::vector<AppTiming> random_config(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> napps_dist(1, 3);
  std::uniform_int_distribution<int> t_star_dist(2, 5);
  std::uniform_int_distribution<int> dwell_dist(1, 3);
  std::uniform_int_distribution<int> slack_dist(0, 2);
  const int napps = napps_dist(rng);
  std::vector<AppTiming> apps;
  for (int i = 0; i < napps; ++i) {
    const int t_star = t_star_dist(rng);
    const int t_minus = dwell_dist(rng);
    const int t_plus = t_minus + slack_dist(rng);
    // r must exceed both T*w and the longest TT episode (validate()).
    const int r = t_star + t_plus + 1 + slack_dist(rng);
    apps.push_back(uniform_app("g" + std::to_string(i), t_star, t_minus,
                               t_plus, r));
  }
  return apps;
}

// --------------------------------------------------------- SlotConfigKey --

TEST(SlotConfigKey, PermutedAppOrderYieldsSameKey) {
  std::vector<AppTiming> apps{uniform_app("A", 3, 2, 4, 10),
                              uniform_app("B", 5, 1, 2, 9),
                              uniform_app("C", 4, 2, 2, 8)};
  const DiscreteVerifier::Options options;
  const SlotConfigKey reference = SlotConfigKey::of(apps, options);
  std::sort(apps.begin(), apps.end(),
            [](const AppTiming& a, const AppTiming& b) {
              return a.name > b.name;
            });
  EXPECT_EQ(SlotConfigKey::of(apps, options), reference);
  std::next_permutation(
      apps.begin(), apps.end(),
      [](const AppTiming& a, const AppTiming& b) { return a.name < b.name; });
  EXPECT_EQ(SlotConfigKey::of(apps, options), reference);
}

TEST(SlotConfigKey, NamesDoNotInfluenceTheKey) {
  // The verdict is a function of the timing parameters only.
  const std::vector<AppTiming> a{uniform_app("alpha", 3, 2, 4, 10)};
  const std::vector<AppTiming> b{uniform_app("beta", 3, 2, 4, 10)};
  EXPECT_EQ(SlotConfigKey::of(a, {}), SlotConfigKey::of(b, {}));
}

TEST(SlotConfigKey, TimingAndOptionDifferencesChangeTheKey) {
  const std::vector<AppTiming> base{uniform_app("A", 3, 2, 4, 10)};
  const SlotConfigKey reference = SlotConfigKey::of(base, {});

  EXPECT_NE(SlotConfigKey::of({uniform_app("A", 3, 2, 4, 11)}, {}), reference);
  EXPECT_NE(SlotConfigKey::of({uniform_app("A", 4, 2, 4, 10)}, {}), reference);
  EXPECT_NE(SlotConfigKey::of({uniform_app("A", 3, 2, 5, 10)}, {}), reference);

  DiscreteVerifier::Options bounded;
  bounded.max_disturbances_per_app = 2;
  EXPECT_NE(SlotConfigKey::of(base, bounded), reference);
  DiscreteVerifier::Options slack;
  slack.policy = verify::SlotPolicy::kSlackAware;
  EXPECT_NE(SlotConfigKey::of(base, slack), reference);
  DiscreteVerifier::Options budget;
  budget.max_states = 10'000;
  EXPECT_NE(SlotConfigKey::of(base, budget), reference);
}

TEST(SlotConfigKey, DuplicatedAppsAreCounted) {
  // {A} vs {A, A} must differ: multiplicity matters for admission.
  const AppTiming a = uniform_app("A", 3, 2, 4, 10);
  EXPECT_NE(SlotConfigKey::of({a}, {}), SlotConfigKey::of({a, a}, {}));
}

// ---------------------------------------------------------- VerdictCache --

TEST(VerdictCache, HitAndMissAccounting) {
  VerdictCache cache(8);
  const SlotConfigKey key =
      SlotConfigKey::of({uniform_app("A", 3, 2, 4, 10)}, {});
  EXPECT_FALSE(cache.lookup(key).has_value());
  SlotVerdict verdict;
  verdict.safe = true;
  verdict.states_explored = 42;
  cache.insert(key, verdict);
  const auto cached = cache.lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, verdict);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 8u);
}

TEST(VerdictCache, EvictsLeastRecentlyUsedAtCapacity) {
  VerdictCache cache(2);
  const SlotConfigKey k1 = SlotConfigKey::of({uniform_app("A", 2, 1, 1, 6)}, {});
  const SlotConfigKey k2 = SlotConfigKey::of({uniform_app("A", 3, 1, 1, 6)}, {});
  const SlotConfigKey k3 = SlotConfigKey::of({uniform_app("A", 4, 1, 1, 7)}, {});
  cache.insert(k1, {});
  cache.insert(k2, {});
  ASSERT_TRUE(cache.lookup(k1).has_value());  // k1 now most recent
  cache.insert(k3, {});                       // evicts k2
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(VerdictCache, ClearResetsContentAndCounters) {
  VerdictCache cache(4);
  const SlotConfigKey key =
      SlotConfigKey::of({uniform_app("A", 3, 2, 4, 10)}, {});
  cache.insert(key, {});
  ASSERT_TRUE(cache.lookup(key).has_value());
  cache.clear();
  EXPECT_FALSE(cache.lookup(key).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(VerdictCache, ConcurrentLookupsInsertsAndStatsAreCoherent) {
  // Batch jobs share one cache and aggregate SolveStats while siblings
  // are still hitting it: lookups, inserts and stats() snapshots must be
  // data-race-free (the TSan CI job runs this suite) and the counters
  // must add up once the threads join.
  VerdictCache cache(64);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::vector<SlotConfigKey> keys;
  for (int k = 0; k < 32; ++k)
    keys.push_back(
        SlotConfigKey::of({uniform_app("A", 2 + k % 4, 1, 1, 8 + k)}, {}));
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&cache, &keys, w] {
      SlotVerdict verdict;
      verdict.safe = true;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const SlotConfigKey& key =
            keys[static_cast<size_t>((op * 7 + w) % 32)];
        if (!cache.lookup(key).has_value()) cache.insert(key, verdict);
        // Concurrent snapshot: each counter is individually tear-free and
        // never runs backwards past zero.
        const CacheStats stats = cache.stats();
        EXPECT_GE(stats.hits, 0);
        EXPECT_GE(stats.misses, 0);
        EXPECT_GE(stats.insertions, stats.evictions);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const CacheStats stats = cache.stats();
  // Every lookup was counted exactly once...
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  // ...every distinct key was inserted at least once and at most once per
  // concurrent missing thread.
  EXPECT_GE(stats.insertions, 32);
  EXPECT_LE(stats.insertions, static_cast<long>(keys.size()) * kThreads);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.size, 32u);
}

// ------------------------------------------------------ two-tier oracle --
// IncrementalAdmissionOracle with a verdict store only (no snapshot
// cache, no subsumption) is the exact-hit-or-fresh-proof oracle.

IncrementalAdmissionOracle two_tier(std::shared_ptr<VerdictCache> verdicts) {
  return IncrementalAdmissionOracle({}, std::move(verdicts), nullptr, false);
}

TEST(TwoTierOracle, CachedVerdictEqualsFreshOnGeneratedConfigs) {
  std::mt19937_64 rng(20260726);
  const auto cache = std::make_shared<VerdictCache>();
  const IncrementalAdmissionOracle memoized = two_tier(cache);
  const IncrementalAdmissionOracle fresh = two_tier(nullptr);
  std::vector<SlotConfigKey> seen;
  int safe_seen = 0;
  int unsafe_seen = 0;
  for (int round = 0; round < 40; ++round) {
    const std::vector<AppTiming> config = random_config(rng);
    // Skip canonical repeats: a repeat's first memoized query would hit
    // the cache of an earlier round (correct, but it would skew the
    // hit/miss bookkeeping this test pins down).
    const SlotConfigKey key = SlotConfigKey::of(config, {});
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    const SlotVerdict reference = fresh.verify(config);
    // First query: a miss that proves (and, when safe, caches); second:
    // served from the cache for safe verdicts, re-proved for unsafe ones.
    // Both must be structurally identical to the fresh verdict.
    EXPECT_EQ(memoized.verify(config), reference);
    EXPECT_EQ(memoized.verify(config), reference);
    (reference.safe ? safe_seen : unsafe_seen) += 1;
  }
  // The generator must exercise both verdicts or the test proves little.
  EXPECT_GT(safe_seen, 0);
  EXPECT_GT(unsafe_seen, 0);
  // Safe configs hit on the repeat; unsafe configs miss both times (only
  // exhaustive safe proofs are cached — their fields are order-invariant).
  EXPECT_EQ(memoized.exact_hits(), safe_seen);
  EXPECT_EQ(memoized.misses(), safe_seen + 2 * unsafe_seen);
}

TEST(TwoTierOracle, PermutedQueryHitsTheCache) {
  const IncrementalAdmissionOracle oracle =
      two_tier(std::make_shared<VerdictCache>());
  std::vector<AppTiming> config{uniform_app("A", 3, 2, 4, 10),
                                uniform_app("B", 5, 1, 2, 9)};
  const SlotVerdict first = oracle.verify(config);
  ASSERT_TRUE(first.safe);  // only safe verdicts are cached
  std::swap(config[0], config[1]);
  EXPECT_EQ(oracle.verify(config), first);
  EXPECT_EQ(oracle.exact_hits(), 1);
  EXPECT_EQ(oracle.misses(), 1);
}

TEST(TwoTierOracle, UnsafeVerdictsAreNotCached) {
  const auto cache = std::make_shared<VerdictCache>();
  const IncrementalAdmissionOracle oracle = two_tier(cache);
  // All three disturbed together: the slot serves two back-to-back TT
  // episodes (2 samples each) before the third app's clock passes
  // T*w = 2.
  const std::vector<AppTiming> config{uniform_app("A", 2, 2, 2, 7),
                                      uniform_app("B", 2, 2, 2, 7),
                                      uniform_app("C", 2, 2, 2, 7)};
  const SlotVerdict v1 = oracle.verify(config);
  ASSERT_FALSE(v1.safe);
  // An unsafe violator indexes the query order, which the canonical key
  // erases — so the verdict must be re-proved, not served from the cache.
  EXPECT_EQ(oracle.verify(config), v1);
  EXPECT_EQ(oracle.exact_hits(), 0);
  EXPECT_EQ(oracle.misses(), 2);
  EXPECT_EQ(cache->stats().insertions, 0);
}

TEST(TwoTierOracle, CountsCallsAndStates) {
  const IncrementalAdmissionOracle oracle =
      two_tier(std::make_shared<VerdictCache>());
  const std::vector<AppTiming> config{uniform_app("A", 3, 2, 4, 10)};
  const SlotVerdict verdict = oracle.verify(config);
  EXPECT_TRUE(oracle.admit(config));
  EXPECT_TRUE(oracle.slot_oracle()(config));
  EXPECT_EQ(oracle.calls(), 3);
  EXPECT_EQ(oracle.exact_hits(), 2);
  EXPECT_EQ(oracle.misses(), 1);
  EXPECT_EQ(oracle.states_explored(), verdict.states_explored);
}

}  // namespace
}  // namespace ttdim::engine::oracle

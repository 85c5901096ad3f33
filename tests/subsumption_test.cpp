// The cross-config subsumption tier: the SlotConfigKey token API, the
// SubsumptionIndex inclusion semantics (multiset subset/superset under
// byte-identical options only), consistency with the unified verdict
// store under LRU eviction, and the property the tier rests on —
// antitonicity — cross-checked against fresh DiscreteVerifier BFS
// verdicts over randomized populations. Runs in the TSan CI job.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/apps.h"
#include "core/dimensioning.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/batch_runner.h"
#include "engine/fingerprint.h"
#include "engine/oracle/incremental_oracle.h"
#include "engine/oracle/slot_config_key.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/subsumption_index.h"
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

std::vector<AppTiming> random_population(std::mt19937_64& rng, int napps) {
  std::uniform_int_distribution<int> t_star_dist(2, 5);
  std::uniform_int_distribution<int> dwell_dist(1, 3);
  std::uniform_int_distribution<int> slack_dist(0, 2);
  std::vector<AppTiming> apps;
  for (int i = 0; i < napps; ++i) {
    const int t_star = t_star_dist(rng);
    const int t_minus = dwell_dist(rng);
    const int t_plus = t_minus + slack_dist(rng);
    const int r = t_star + t_plus + 1 + slack_dist(rng);
    apps.push_back(
        uniform_app("p" + std::to_string(i), t_star, t_minus, t_plus, r));
  }
  return apps;
}

// ------------------------------------------------------------- token API --

TEST(SlotPopulationTokens, DecompositionReassemblesByteIdentically) {
  const std::vector<AppTiming> apps = {uniform_app("B", 5, 1, 2, 9),
                                       uniform_app("A", 3, 2, 4, 10),
                                       uniform_app("C", 4, 2, 2, 8)};
  verify::DiscreteVerifier::Options options;
  options.max_states = 12345;
  const SlotPopulationTokens tokens = SlotConfigKey::tokens_of(apps, options);
  EXPECT_EQ(tokens.apps.size(), 3u);
  EXPECT_TRUE(std::is_sorted(tokens.apps.begin(), tokens.apps.end()));
  const SlotConfigKey direct = SlotConfigKey::of(apps, options);
  const SlotConfigKey reassembled = SlotConfigKey::of(tokens);
  EXPECT_EQ(direct.canonical, reassembled.canonical);
  EXPECT_EQ(direct.hash, reassembled.hash);
  EXPECT_EQ(direct.options_suffix(), tokens.options);
  EXPECT_EQ(tokens.options, "p=0;d=-1;s=12345");
}

TEST(SlotPopulationTokens, TokensAreOrderAndNameIndependent) {
  std::vector<AppTiming> apps = {uniform_app("A", 3, 2, 4, 10),
                                 uniform_app("B", 5, 1, 2, 9)};
  const SlotPopulationTokens forward = SlotConfigKey::tokens_of(apps, {});
  std::swap(apps[0], apps[1]);
  apps[0].name = "renamed0";
  apps[1].name = "renamed1";
  const SlotPopulationTokens backward = SlotConfigKey::tokens_of(apps, {});
  EXPECT_EQ(forward.apps, backward.apps);
  EXPECT_EQ(forward.options, backward.options);
}

// ------------------------------------------------------ index semantics --

SlotPopulationTokens tokens_for(const std::vector<AppTiming>& apps,
                                const verify::DiscreteVerifier::Options& o = {}) {
  return SlotConfigKey::tokens_of(apps, o);
}

/// The admission boolean of an inclusion answer (nullopt on no answer) —
/// the tests below mostly don't care which population matched.
std::optional<bool> answer_of(const SubsumptionIndex& index,
                              const SlotPopulationTokens& tokens) {
  const std::optional<SubsumptionIndex::ProbeAnswer> answer =
      index.probe(tokens);
  if (!answer.has_value()) return std::nullopt;
  return answer->safe;
}

TEST(SubsumptionIndex, AnswersSubsetOfSafeAndSupersetOfUnsafe) {
  SubsumptionIndex index;
  const std::vector<AppTiming> big = {uniform_app("A", 3, 2, 4, 10),
                                      uniform_app("B", 5, 1, 2, 9),
                                      uniform_app("C", 4, 2, 2, 8)};
  const std::vector<AppTiming> bad = {uniform_app("X", 2, 2, 2, 7),
                                      uniform_app("Y", 2, 2, 2, 7)};
  index.note_safe(SlotConfigKey::of(big, {}), tokens_for(big));
  index.note_unsafe(SlotConfigKey::of(bad, {}), tokens_for(bad));

  // Strict sub-multiset of the safe population (any member order).
  const std::vector<AppTiming> sub = {big[2], big[0]};
  EXPECT_EQ(answer_of(index, tokens_for(sub)), std::optional<bool>(true));
  // Equality counts as inclusion on both sides.
  EXPECT_EQ(answer_of(index, tokens_for(big)), std::optional<bool>(true));
  EXPECT_EQ(answer_of(index, tokens_for(bad)), std::optional<bool>(false));
  // Strict super-multiset of the unsafe population.
  std::vector<AppTiming> super = {bad[1], uniform_app("Z", 6, 1, 1, 12),
                                  bad[0]};
  EXPECT_EQ(answer_of(index, tokens_for(super)), std::optional<bool>(false));
  // Unrelated population: no answer.
  const std::vector<AppTiming> other = {uniform_app("Q", 6, 3, 3, 13)};
  EXPECT_EQ(answer_of(index, tokens_for(other)), std::nullopt);
  // A superset of a SAFE population tells nothing (antitonicity points
  // the other way), nor does a subset of an UNSAFE one.
  std::vector<AppTiming> safe_super = big;
  safe_super.push_back(uniform_app("Z", 6, 1, 1, 12));
  EXPECT_EQ(answer_of(index, tokens_for(safe_super)), std::nullopt);
  const std::vector<AppTiming> bad_sub = {bad[0]};
  EXPECT_EQ(answer_of(index, tokens_for(bad_sub)), std::nullopt);

  const SubsumptionStats stats = index.stats();
  EXPECT_EQ(stats.safe_entries, 1u);
  EXPECT_EQ(stats.unsafe_entries, 1u);
  EXPECT_EQ(stats.safe_hits, 2);
  EXPECT_EQ(stats.unsafe_hits, 2);
  EXPECT_EQ(stats.probes, 7);
}

TEST(SubsumptionIndex, InclusionIsMultisetAware) {
  SubsumptionIndex index;
  const AppTiming twin = uniform_app("T", 3, 2, 4, 10);
  // Safe population holds ONE copy of the twin token.
  const std::vector<AppTiming> one{twin};
  index.note_safe(SlotConfigKey::of(one, {}), tokens_for(one));
  // Two copies are NOT included in one copy: multiset, not set.
  const std::vector<AppTiming> two{twin, twin};
  EXPECT_EQ(answer_of(index, tokens_for(two)), std::nullopt);
  EXPECT_EQ(answer_of(index, tokens_for(one)), std::optional<bool>(true));
}

TEST(SubsumptionIndex, NeverMatchesAcrossDifferentVerifierOptions) {
  SubsumptionIndex index;
  const std::vector<AppTiming> pop = {uniform_app("A", 3, 2, 4, 10),
                                      uniform_app("B", 5, 1, 2, 9)};
  verify::DiscreteVerifier::Options base;
  index.note_safe(SlotConfigKey::of(pop, base), tokens_for(pop, base));

  // Identical population, but any divergence in the verdict-affecting
  // options — state budget, disturbance bound, policy — must make the
  // probe invisible to the recorded proof (the soundness guard).
  verify::DiscreteVerifier::Options budget = base;
  budget.max_states = 1000;
  EXPECT_EQ(answer_of(index, tokens_for(pop, budget)), std::nullopt);
  verify::DiscreteVerifier::Options disturb = base;
  disturb.max_disturbances_per_app = 2;
  EXPECT_EQ(answer_of(index, tokens_for(pop, disturb)), std::nullopt);
  verify::DiscreteVerifier::Options policy = base;
  policy.policy = verify::SlotPolicy::kSlackAware;
  EXPECT_EQ(answer_of(index, tokens_for(pop, policy)), std::nullopt);
  // The identical options still answer.
  EXPECT_EQ(answer_of(index, tokens_for(pop, base)), std::optional<bool>(true));
}

TEST(SubsumptionIndex, NoteRejectsOrderedPrefixKeys) {
  SubsumptionIndex index;
  const std::vector<AppTiming> pop = {uniform_app("A", 3, 2, 4, 10)};
  const SlotConfigKey ordered = SlotConfigKey::prefix_of(pop, 1, {});
  EXPECT_THROW(index.note_safe(ordered, tokens_for(pop)), std::logic_error);
  // ...and a mismatched options suffix (tokens from another group).
  verify::DiscreteVerifier::Options other;
  other.max_states = 7;
  EXPECT_THROW(
      index.note_safe(SlotConfigKey::of(pop, {}), tokens_for(pop, other)),
      std::logic_error);
}

// ------------------------------------------- consistency under eviction --

TEST(SubsumptionIndex, VerdictCacheEvictionPrunesTheSafeSide) {
  // Capacity-2 store: inserting a third verdict evicts the oldest, and
  // the eviction hook must erase its population from the index.
  VerdictCache store(2);
  SlotVerdict safe;
  safe.safe = true;
  std::vector<std::vector<AppTiming>> pops;
  for (int i = 0; i < 3; ++i)
    pops.push_back({uniform_app("E" + std::to_string(i), 3 + i, 2, 4, 20)});
  for (const std::vector<AppTiming>& pop : pops) {
    const SlotConfigKey key = SlotConfigKey::of(pop, {});
    store.subsumption().note_safe(key, tokens_for(pop));  // note-then-insert
    store.insert(key, safe);
  }
  EXPECT_EQ(store.stats().evictions, 1);
  EXPECT_EQ(store.subsumption().stats().safe_entries, 2u);
  // The evicted population (pops[0]) no longer answers; the residents do.
  EXPECT_EQ(answer_of(store.subsumption(), tokens_for(pops[0])), std::nullopt);
  EXPECT_EQ(answer_of(store.subsumption(), tokens_for(pops[1])),
            std::optional<bool>(true));
  EXPECT_EQ(answer_of(store.subsumption(), tokens_for(pops[2])),
            std::optional<bool>(true));
  // clear() drops verdicts and the whole index.
  store.clear();
  EXPECT_EQ(store.subsumption().stats().safe_entries, 0u);
  EXPECT_EQ(answer_of(store.subsumption(), tokens_for(pops[1])), std::nullopt);
}

TEST(SubsumptionIndex, UnsafeSideIsBoundedByItsOwnLru) {
  SubsumptionIndex index(2);  // unsafe capacity 2
  std::vector<std::vector<AppTiming>> pops;
  for (int i = 0; i < 3; ++i)
    pops.push_back({uniform_app("U" + std::to_string(i), 2 + i, 2, 2, 20),
                    uniform_app("V" + std::to_string(i), 2 + i, 2, 2, 20)});
  for (int i = 0; i < 2; ++i)
    index.note_unsafe(SlotConfigKey::of(pops[static_cast<size_t>(i)], {}),
                      tokens_for(pops[static_cast<size_t>(i)]));
  // Matching pops[0] refreshes its recency, so noting a third evicts
  // pops[1] — the least recently matched — not pops[0].
  EXPECT_EQ(answer_of(index, tokens_for(pops[0])), std::optional<bool>(false));
  index.note_unsafe(SlotConfigKey::of(pops[2], {}), tokens_for(pops[2]));
  EXPECT_EQ(index.stats().unsafe_entries, 2u);
  EXPECT_EQ(index.stats().unsafe_evictions, 1);
  EXPECT_EQ(answer_of(index, tokens_for(pops[1])), std::nullopt);
  EXPECT_EQ(answer_of(index, tokens_for(pops[0])), std::optional<bool>(false));
  EXPECT_EQ(answer_of(index, tokens_for(pops[2])), std::optional<bool>(false));
}

// ------------------------------------- soundness vs fresh BFS (randomized)

TEST(SubsumptionSoundness, RandomizedInclusionsAgreeWithFreshBfs) {
  // The antitonicity cross-check: whenever the tier answers a probe by
  // inclusion, a fresh from-scratch BFS of that probe must return the
  // same admission answer. Populations are generated, proved fresh and
  // noted; then random sub- and super-populations are probed.
  std::mt19937_64 rng(20260727);
  const IncrementalAdmissionOracle fresh({}, nullptr, nullptr);
  int checked = 0;
  int safe_answers = 0;
  int unsafe_answers = 0;
  for (int round = 0; round < 30; ++round) {
    SubsumptionIndex index;
    std::vector<AppTiming> base = random_population(rng, 3);
    const SlotVerdict verdict = fresh.verify(base);
    const SlotConfigKey key = SlotConfigKey::of(base, {});
    if (verdict.safe)
      index.note_safe(key, tokens_for(base));
    else
      index.note_unsafe(key, tokens_for(base));

    // Sub-populations: drop one member (every choice).
    for (size_t drop = 0; drop < base.size(); ++drop) {
      std::vector<AppTiming> sub = base;
      sub.erase(sub.begin() + static_cast<long>(drop));
      const std::optional<bool> answer = answer_of(index, tokens_for(sub));
      if (!answer.has_value()) continue;
      EXPECT_TRUE(*answer) << "only safe-side entries can cover a subset";
      EXPECT_EQ(fresh.verify(sub).safe, *answer) << "round " << round;
      ++checked;
      ++safe_answers;
    }
    // Super-populations: append a random extra member.
    std::vector<AppTiming> super = base;
    super.push_back(random_population(rng, 1).front());
    const std::optional<bool> answer = answer_of(index, tokens_for(super));
    if (answer.has_value()) {
      EXPECT_FALSE(*answer) << "only unsafe-side entries can be covered";
      EXPECT_EQ(fresh.verify(super).safe, *answer) << "round " << round;
      ++checked;
      ++unsafe_answers;
    }
  }
  // The sweep must actually exercise both directions of antitonicity.
  EXPECT_GT(checked, 10);
  EXPECT_GT(safe_answers, 0);
  EXPECT_GT(unsafe_answers, 0);
}

// ----------------------------------------------------- oracle tier order --

TEST(SubsumptionOracle, AnswersCrossConfigProbesWithoutVerifierRuns) {
  const auto store = std::make_shared<VerdictCache>();
  const IncrementalAdmissionOracle oracle({}, store, nullptr);
  const std::vector<AppTiming> chain = {uniform_app("A", 3, 2, 4, 10),
                                        uniform_app("B", 5, 1, 2, 9),
                                        uniform_app("C", 4, 2, 2, 8)};
  ASSERT_TRUE(oracle.admit(chain));  // fresh proof, noted safe
  EXPECT_EQ(oracle.misses(), 1);
  // {A, C} was never probed — no exact verdict, but it is included in
  // the proven population: answered by the tier, no verifier run.
  const std::vector<AppTiming> sub = {chain[0], chain[2]};
  ASSERT_TRUE(oracle.admit(sub));
  EXPECT_EQ(oracle.subsumption_hits(), 1);
  EXPECT_EQ(oracle.misses(), 1);  // unchanged: tier 2 answered
  // An exact repeat prefers tier 1.
  ASSERT_TRUE(oracle.admit(chain));
  EXPECT_EQ(oracle.exact_hits(), 1);
  EXPECT_EQ(oracle.subsumption_hits(), 1);

  // An unsafe population refutes its supersets through the index
  // (three tight apps: the population the witness tests pin as unsafe).
  const std::vector<AppTiming> bad = {uniform_app("X", 2, 2, 2, 7),
                                      uniform_app("Y", 2, 2, 2, 7),
                                      uniform_app("W", 2, 2, 2, 7)};
  ASSERT_FALSE(oracle.admit(bad));
  std::vector<AppTiming> bad_super = bad;
  bad_super.push_back(uniform_app("Z", 6, 1, 1, 12));
  ASSERT_FALSE(oracle.admit(bad_super));
  EXPECT_EQ(oracle.subsumption_cuts(), 1);
  // And the unsafe exact repeat is a cut too (equality is inclusion) —
  // unsafe verdicts never enter the verdict cache, so this repeat
  // previously re-proved fresh every time.
  ASSERT_FALSE(oracle.admit(bad));
  EXPECT_EQ(oracle.subsumption_cuts(), 2);
}

TEST(SubsumptionOracle, SafeHitsRefreshTheBackingVerdictsRecency) {
  // A safe population that answers tier-2 probes is never looked up
  // under its own key, so without an explicit refresh it would age to
  // the verdict store's LRU tail and be evicted first — taking its
  // index entry with it (the eviction hook) while cold exact-hit
  // entries survive. The oracle therefore touches the matched verdict
  // after every safe inclusion answer; this pins it under eviction
  // pressure in a capacity-2 store.
  const auto store = std::make_shared<VerdictCache>(2);
  const IncrementalAdmissionOracle oracle({}, store, nullptr);
  const std::vector<AppTiming> chain = {uniform_app("A", 3, 2, 4, 10),
                                        uniform_app("B", 5, 1, 2, 9),
                                        uniform_app("C", 4, 2, 2, 8)};
  ASSERT_TRUE(oracle.admit(chain));  // proved + cached + noted
  const std::vector<AppTiming> filler1 = {uniform_app("F1", 6, 1, 1, 12)};
  ASSERT_TRUE(oracle.admit(filler1));  // store now {filler1, chain}
  // The inclusion hit must move `chain` ahead of filler1 in recency...
  const std::vector<AppTiming> sub = {chain[0], chain[2]};
  ASSERT_TRUE(oracle.admit(sub));
  EXPECT_EQ(oracle.subsumption_hits(), 1);
  // ...so the next insert evicts filler1, not the hot safe population.
  const std::vector<AppTiming> filler2 = {uniform_app("F2", 7, 1, 2, 14)};
  ASSERT_TRUE(oracle.admit(filler2));
  EXPECT_EQ(store->stats().evictions, 1);
  ASSERT_TRUE(oracle.admit(sub));  // still answered by inclusion
  EXPECT_EQ(oracle.subsumption_hits(), 2);
  EXPECT_EQ(oracle.misses(), 3);  // chain, filler1, filler2 — nothing else
  EXPECT_EQ(store->subsumption().stats().safe_entries, 2u);
}

TEST(SubsumptionOracle, DisabledTierNeverTouchesTheIndex) {
  const auto store = std::make_shared<VerdictCache>();
  const IncrementalAdmissionOracle oracle({}, store, nullptr,
                                          /*subsumption=*/false);
  const std::vector<AppTiming> chain = {uniform_app("A", 3, 2, 4, 10),
                                        uniform_app("B", 5, 1, 2, 9)};
  ASSERT_TRUE(oracle.admit(chain));
  const std::vector<AppTiming> sub = {chain[0]};
  ASSERT_TRUE(oracle.admit(sub));
  EXPECT_EQ(oracle.subsumption_hits(), 0);
  EXPECT_EQ(oracle.subsumption_cuts(), 0);
  EXPECT_EQ(store->subsumption().stats().safe_entries, 0u);
  EXPECT_EQ(store->subsumption().stats().probes, 0);
  EXPECT_EQ(oracle.misses(), 2);  // both proved
}

// ------------------------------------------------- solve-level wiring --

core::AppSpec spec_of(const casestudy::App& app, int min_interarrival) {
  return core::AppSpec{app.name + "_r" + std::to_string(min_interarrival),
                       app.plant,
                       app.kt,
                       app.ke,
                       min_interarrival,
                       app.settling_requirement};
}

std::vector<core::AppSpec> case_study_specs() {
  std::vector<core::AppSpec> specs;
  for (const casestudy::App& app : casestudy::all_apps())
    specs.push_back({app.name, app.plant, app.kt, app.ke,
                     app.min_interarrival, app.settling_requirement});
  return specs;
}

TEST(SubsumptionSolve, OnOffSerialParallelFingerprintIdentically) {
  // The tentpole acceptance property: byte-identical solve fingerprints
  // with the subsumption tier on and off, serial and parallel — even
  // with a shared verdict store, where tier-2 answers depend on batch
  // interleaving (every answer is sound, so the result never does).
  // The job list is built to exercise the tier: a repeat (its unsafe
  // probe becomes a cut), and a superset of the proven-unsafe triple.
  const casestudy::App app = casestudy::c6();
  const std::vector<core::AppSpec> triple = {spec_of(app, 60), spec_of(app, 80),
                                             spec_of(app, 100)};
  std::vector<core::AppSpec> quad = triple;
  quad.push_back(spec_of(app, 40));
  std::vector<std::string> prints;
  for (const bool subsumption : {true, false}) {
    for (const int threads : {1, 4}) {
      const auto verdicts = std::make_shared<VerdictCache>();
      std::vector<BatchJob> jobs;
      for (const std::vector<core::AppSpec>& specs : {triple, triple, quad}) {
        BatchJob job;
        job.specs = specs;
        job.options.verdict_cache = verdicts;
        job.options.subsumption_admission = subsumption;
        jobs.push_back(std::move(job));
      }
      const std::vector<BatchOutcome> outcomes =
          BatchRunner(threads).run(jobs).outcomes;
      std::string print;
      SolveStats total;
      for (const BatchOutcome& outcome : outcomes) {
        ASSERT_TRUE(outcome.ok()) << outcome.error;
        print += fingerprint(*outcome.solution);
        total = total + outcome.solution->stats;
      }
      if (!subsumption) {
        EXPECT_EQ(total.subsumption_hits + total.subsumption_cuts, 0)
            << "disabled tier must never answer";
      } else if (threads == 1) {
        // Serial, shared store: the repeated triple's unsafe probe and
        // the quad's superset probe are both answered by inclusion.
        EXPECT_GE(total.subsumption_cuts, 2);
      }
      prints.push_back(std::move(print));
    }
  }
  for (size_t i = 1; i < prints.size(); ++i) EXPECT_EQ(prints[0], prints[i]);
}

TEST(SubsumptionSolve, WarmSharedCacheAnswersNeverSeenConfigs) {
  // The cross-config payoff on the real case study: solve the six-app
  // system once into shared caches, then solve the five-app variant
  // without C6. Its first-fit walk poses populations that were never
  // probed exactly, yet every one is included in (or includes) a proven
  // population — the whole mapping phase needs ZERO verifier runs. With
  // the tier disabled the same warm solve must prove the never-seen
  // probes fresh; that delta is the "fewer fresh-BFS probes" acceptance
  // criterion, counted by the new SolveStats counters.
  const std::vector<core::AppSpec> specs = case_study_specs();
  std::vector<core::AppSpec> five = specs;
  five.pop_back();  // drop C6

  core::SolveOptions shared;
  shared.verdict_cache = std::make_shared<VerdictCache>();
  shared.snapshot_cache = std::make_shared<SnapshotCache>();
  shared.analysis_cache = std::make_shared<engine::analysis::AnalysisCache>();
  const core::Solution warm6 = core::solve(specs, shared);
  ASSERT_GT(warm6.stats.cache_misses, 0);  // the cold solve proved things

  const core::Solution on = core::solve(five, shared);
  EXPECT_GT(on.stats.subsumption_hits, 0);
  EXPECT_GT(on.stats.subsumption_cuts, 0);
  EXPECT_EQ(on.stats.cache_misses, 0) << "no verifier run at all";
  EXPECT_EQ(on.stats.oracle_calls,
            on.stats.cache_hits + on.stats.subsumption_hits +
                on.stats.subsumption_cuts + on.stats.cache_misses);

  // Tier off, same warm caches (the tier-on solve mutated nothing: its
  // inclusion answers are never cached or noted): the never-seen probes
  // now cost fresh verifier runs.
  core::SolveOptions off = shared;
  off.subsumption_admission = false;
  const core::Solution reference = core::solve(five, off);
  EXPECT_EQ(reference.stats.subsumption_hits, 0);
  EXPECT_GT(reference.stats.cache_misses, on.stats.cache_misses);

  // And the result is the same dimensioning either way — also against a
  // cold solve that never saw the shared caches (private verdict/
  // snapshot caches; the analysis cache is shared to keep the test
  // fast, it cannot affect the result).
  core::SolveOptions cold;
  cold.analysis_cache = shared.analysis_cache;
  const core::Solution independent = core::solve(five, cold);
  EXPECT_EQ(fingerprint(on), fingerprint(reference));
  EXPECT_EQ(fingerprint(on), fingerprint(independent));
}

// -------------------------------------------------- concurrency (TSan) --

TEST(SubsumptionConcurrency, SharedStoreHammeredFromManyThreads) {
  // Oracles sharing one small verdict store: concurrent notes, probes,
  // inserts and hook-driven erasures must be race-free (run under TSan
  // in CI). Small capacity keeps the eviction hook hot.
  const auto store = std::make_shared<VerdictCache>(8);
  constexpr int kThreads = 4;
  std::atomic<int> start{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&store, &start, w] {
      const IncrementalAdmissionOracle oracle({}, store, nullptr);
      std::mt19937_64 rng(1000 + w);
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }
      for (int round = 0; round < 12; ++round) {
        std::vector<AppTiming> pop = random_population(rng, 3);
        for (size_t n = 1; n <= pop.size(); ++n) {
          const std::vector<AppTiming> probe(pop.begin(),
                                             pop.begin() + static_cast<long>(n));
          (void)oracle.admit(probe);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  // Index and store stayed mutually consistent: every safe entry the
  // index holds groups under the one options suffix used here, and the
  // safe side never exceeds what the store has ever admitted.
  const SubsumptionStats stats = store->subsumption().stats();
  EXPECT_LE(stats.safe_entries,
            static_cast<std::size_t>(store->stats().insertions));
  EXPECT_LE(store->stats().size, 8u);
}

}  // namespace
}  // namespace ttdim::engine::oracle

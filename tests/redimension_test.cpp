// Edge-case suite for DimensioningSession::redimension (core/session.h)
// and the solve() façade equivalence (ISSUE 10 satellite):
//  - the façade and a session pass produce byte-identical fingerprints,
//    serial and parallel;
//  - an empty delta is the identity (byte-identical standing solution);
//  - removal-only deltas are proof-free and keep every remaining slot
//    byte-identical at the application level;
//  - remove-then-re-add round trips;
//  - a re-rate that no longer fits its slot falls back to first-fit
//    re-placement, an addition that fits nowhere opens a new slot;
//  - every redimensioned assignment passes fresh admission proofs run
//    by a from-scratch DiscreteVerifier (no session caches involved);
//  - delta validation and the no-standing-solution precondition throw.
//
// All solves use the bounded verifier (max_disturbances_per_app = 1)
// to stay inside the tier-1 budget; the conflict scenarios below were
// chosen because they are conflicts *under that bound* (the 4-app case
// study first-fit already splits C3 into its own slot).
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casestudy/apps.h"
#include "core/dimensioning.h"
#include "core/session.h"
#include "engine/fingerprint.h"
#include "verify/discrete.h"

namespace ttdim {
namespace {

core::AppSpec spec_of(const casestudy::App& app) {
  return {app.name, app.plant, app.kt,
          app.ke,   app.min_interarrival, app.settling_requirement};
}

/// First `count` case-study applications (paper order C1..C6).
std::vector<core::AppSpec> case_specs(int count) {
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  std::vector<core::AppSpec> specs;
  for (int i = 0; i < count; ++i)
    specs.push_back(spec_of(pool[static_cast<std::size_t>(i)]));
  return specs;
}

/// Bounded verification keeps each admission proof inside the tier-1
/// budget (the warm-start suites use the same bound).
core::SolveOptions base_options() {
  core::SolveOptions options;
  options.max_disturbances_per_app = 1;
  return options;
}

/// Slot memberships by application name, in slot/member order — the
/// index-free view that survives the removal renumbering.
std::vector<std::vector<std::string>> slot_names(
    const core::Solution& solution) {
  std::vector<std::vector<std::string>> names;
  for (const std::vector<int>& slot : solution.proposed.slots) {
    std::vector<std::string> members;
    for (int m : slot)
      members.push_back(solution.apps[static_cast<std::size_t>(m)].spec.name);
    names.push_back(std::move(members));
  }
  return names;
}

/// Re-prove every proposed slot with a from-scratch DiscreteVerifier
/// (same options, none of the session's caches): the redimension
/// contract is that the standing assignment always passes the proofs a
/// cold verifier would run.
void expect_fresh_proofs_pass(const core::Solution& solution,
                              const core::SolveOptions& options) {
  verify::DiscreteVerifier::Options vopt;
  vopt.max_disturbances_per_app = options.max_disturbances_per_app;
  vopt.policy = options.policy;
  for (std::size_t s = 0; s < solution.proposed.slots.size(); ++s) {
    std::vector<verify::AppTiming> population;
    for (int m : solution.proposed.slots[s])
      population.push_back(
          solution.apps[static_cast<std::size_t>(m)].timing);
    verify::DiscreteVerifier verifier(population);
    EXPECT_TRUE(verifier.verify(vopt).safe) << "slot " << s;
  }
}

const core::AppSolution& app_named(const core::Solution& solution,
                                   const std::string& name) {
  for (const core::AppSolution& app : solution.apps)
    if (app.spec.name == name) return app;
  throw std::logic_error("test: no app named " + name);
}

TEST(RedimensionTest, SessionSolveMatchesFacadeFingerprint) {
  const std::vector<core::AppSpec> specs = case_specs(3);
  const core::SolveOptions options = base_options();
  const core::Solution via_facade = core::solve(specs, options);
  core::DimensioningSession session(options);
  const core::Solution via_session = session.solve(specs);
  EXPECT_EQ(engine::fingerprint(via_facade), engine::fingerprint(via_session));
  EXPECT_TRUE(session.has_solution());
  EXPECT_EQ(engine::fingerprint(session.solution()),
            engine::fingerprint(via_facade));
}

/// The oracle counters of one pass: the thread budget must move none.
void expect_same_oracle_counters(const engine::oracle::SolveStats& serial,
                                 const engine::oracle::SolveStats& parallel) {
  EXPECT_EQ(parallel.oracle_calls, serial.oracle_calls);
  EXPECT_EQ(parallel.cache_hits, serial.cache_hits);
  EXPECT_EQ(parallel.cache_misses, serial.cache_misses);
  EXPECT_EQ(parallel.prefix_hits, serial.prefix_hits);
  EXPECT_EQ(parallel.verifier_states, serial.verifier_states);
  EXPECT_EQ(parallel.states_reused, serial.states_reused);
  EXPECT_EQ(parallel.states_extended, serial.states_extended);
}

TEST(RedimensionTest, ParallelSessionFingerprintMatchesSerial) {
  // A thread budget changes no result: a solve and a churn walk on a
  // session with proof_threads 4 or 0 (the hardware concurrency) reach
  // the serial session's fingerprints and report its oracle counters,
  // prefix tier included.
  const std::vector<core::AppSpec> specs = case_specs(3);
  const std::vector<core::AppSpec> more = case_specs(5);
  std::vector<core::Delta> walk(4);
  walk[0].remove.push_back("C2");
  walk[0].add.push_back(more[3]);  // C4
  walk[1].add.push_back(more[4]);  // C5
  core::AppSpec slower_c3 = specs[2];
  slower_c3.min_interarrival += 5;
  walk[2].rerate.push_back(slower_c3);
  walk[3].add.push_back(specs[1]);  // C2 rejoins

  core::DimensioningSession serial(base_options());
  const core::Solution serial_solve = serial.solve(specs);
  std::vector<core::Solution> serial_walk;
  for (const core::Delta& delta : walk)
    serial_walk.push_back(serial.redimension(delta));
  EXPECT_GT(serial_solve.stats.prefix_hits, 0);

  for (const int threads : {4, 0}) {
    SCOPED_TRACE("proof_threads " + std::to_string(threads));
    core::SolveOptions parallel_options = base_options();
    parallel_options.proof_threads = threads;
    core::DimensioningSession parallel(parallel_options);
    const core::Solution solved = parallel.solve(specs);
    EXPECT_EQ(engine::fingerprint(solved), engine::fingerprint(serial_solve));
    expect_same_oracle_counters(serial_solve.stats, solved.stats);
    for (std::size_t step = 0; step < walk.size(); ++step) {
      SCOPED_TRACE("delta " + std::to_string(step));
      const core::Solution walked = parallel.redimension(walk[step]);
      EXPECT_EQ(engine::fingerprint(walked),
                engine::fingerprint(serial_walk[step]));
      expect_same_oracle_counters(serial_walk[step].stats, walked.stats);
    }
  }
}

TEST(RedimensionTest, EmptyDeltaIsByteIdenticalIdentity) {
  core::DimensioningSession session(base_options());
  const core::Solution solved = session.solve(case_specs(3));
  const core::Solution unchanged = session.redimension({});
  EXPECT_EQ(engine::fingerprint(unchanged), engine::fingerprint(solved));
  EXPECT_EQ(unchanged.stats.redimension_events, 0);
  EXPECT_EQ(unchanged.stats.redimension_removals, 0);
  EXPECT_EQ(unchanged.stats.redimension_refits, 0);
  EXPECT_EQ(unchanged.stats.redimension_conflicts, 0);
  EXPECT_EQ(unchanged.stats.redimension_new_slots, 0);
  EXPECT_EQ(unchanged.stats.oracle_calls, 0);
  // The standing solution is untouched.
  EXPECT_EQ(engine::fingerprint(session.solution()),
            engine::fingerprint(solved));
}

TEST(RedimensionTest, RemovalIsProofFreeAndKeepsRemainingSlotsIdentical) {
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(case_specs(3));
  core::Delta delta;
  delta.remove.push_back("C2");
  const core::Solution after = session.redimension(delta);

  // Proof-free: antitone admission needs no oracle traffic at all.
  EXPECT_EQ(after.stats.oracle_calls, 0);
  EXPECT_EQ(after.stats.verifier_states, 0);
  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_removals, 1);
  EXPECT_EQ(after.stats.redimension_refits, 0);
  EXPECT_EQ(after.stats.redimension_conflicts, 0);
  EXPECT_EQ(after.stats.redimension_new_slots, 0);

  // Remaining slots are the original ones with C2 dropped (emptied slots
  // removed), in the original member order…
  std::vector<std::vector<std::string>> expected = slot_names(base);
  for (std::vector<std::string>& slot : expected)
    slot.erase(std::remove(slot.begin(), slot.end(), "C2"), slot.end());
  expected.erase(
      std::remove_if(expected.begin(), expected.end(),
                     [](const std::vector<std::string>& slot) {
                       return slot.empty();
                     }),
      expected.end());
  EXPECT_EQ(slot_names(after), expected);

  // …and each surviving application's artefacts are byte-identical to
  // the standing ones (the removal rewrote indices, nothing else).
  for (const core::AppSolution& survivor : after.apps) {
    const core::AppSolution& original = app_named(base, survivor.spec.name);
    EXPECT_EQ(survivor.timing.t_star_w, original.timing.t_star_w);
    EXPECT_EQ(survivor.timing.t_minus, original.timing.t_minus);
    EXPECT_EQ(survivor.timing.t_plus, original.timing.t_plus);
    EXPECT_EQ(survivor.timing.min_interarrival,
              original.timing.min_interarrival);
  }
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, RemoveThenReAddRoundTrips) {
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::DimensioningSession session(base_options());
  (void)session.solve(specs);

  core::Delta remove_c2;
  remove_c2.remove.push_back("C2");
  (void)session.redimension(remove_c2);

  core::Delta re_add;
  re_add.add.push_back(specs[1]);
  const core::Solution after = session.redimension(re_add);

  EXPECT_EQ(after.apps.size(), 3u);
  const core::AppSolution& restored = app_named(after, "C2");
  EXPECT_EQ(restored.spec.min_interarrival, specs[1].min_interarrival);
  // One remove + one add also works as a single atomic delta (removals
  // apply first, so the name never collides).
  core::Delta swap;
  swap.remove.push_back("C2");
  swap.add.push_back(specs[1]);
  const core::Solution swapped = session.redimension(swap);
  EXPECT_EQ(swapped.stats.redimension_events, 2);
  EXPECT_EQ(swapped.stats.redimension_removals, 1);
  EXPECT_EQ(swapped.apps.size(), 3u);
  expect_fresh_proofs_pass(swapped, session.options());
}

TEST(RedimensionTest, AdditionOpensNewSlotOnlyOnConflict) {
  // Under the bounded verifier the 4-app case study splits: C3 does not
  // fit next to {C1, C4, C2} (the cold 4-app solve pins this), so adding
  // C3 to the standing 3-app population must open a dedicated slot.
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  core::DimensioningSession session(base_options());
  (void)session.solve(
      {spec_of(pool[0]), spec_of(pool[3]), spec_of(pool[1])});

  core::Delta delta;
  delta.add.push_back(spec_of(pool[2]));
  const core::Solution after = session.redimension(delta);
  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_refits, 0);
  EXPECT_EQ(after.stats.redimension_new_slots, 1);
  EXPECT_EQ(slot_names(after),
            (std::vector<std::vector<std::string>>{{"C1", "C4", "C2"},
                                                   {"C3"}}));
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, RerateConflictFallsBackToFirstFit) {
  // Re-rating C5 to C2's plant/gains/rate makes its standing slot
  // {C1, C5, C4, C3} carry the timing multiset {C1, C2, C4, C3} — which
  // the bounded verifier rejects (same population the 4-app solve
  // refuses to co-locate). The session must record the conflict and
  // first-fit C5 elsewhere; under the 5-app case study it lands next to
  // the real C2.
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(case_specs(5));
  ASSERT_EQ(slot_names(base),
            (std::vector<std::vector<std::string>>{{"C1", "C5", "C4", "C3"},
                                                   {"C2"}}));

  core::AppSpec c5_as_c2 = spec_of(pool[1]);
  c5_as_c2.name = "C5";
  core::Delta delta;
  delta.rerate.push_back(c5_as_c2);
  const core::Solution after = session.redimension(delta);

  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_conflicts, 1);
  EXPECT_EQ(after.stats.redimension_refits, 1);
  EXPECT_EQ(after.stats.redimension_new_slots, 0);
  EXPECT_EQ(slot_names(after),
            (std::vector<std::vector<std::string>>{{"C1", "C4", "C3"},
                                                   {"C2", "C5"}}));
  EXPECT_EQ(app_named(after, "C5").timing.min_interarrival,
            pool[1].min_interarrival);
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, InPlaceRerateKeepsSlotWhenStillAdmitted) {
  // Re-rating C2 to a slightly smaller (still admitted) rate keeps it in
  // its slot: one refit, no conflict, no membership change.
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(specs);

  core::AppSpec slower = specs[1];
  slower.min_interarrival += 10;
  core::Delta delta;
  delta.rerate.push_back(slower);
  const core::Solution after = session.redimension(delta);

  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_refits, 1);
  EXPECT_EQ(after.stats.redimension_conflicts, 0);
  EXPECT_EQ(after.stats.redimension_new_slots, 0);
  EXPECT_EQ(slot_names(after), slot_names(base));
  EXPECT_EQ(app_named(after, "C2").timing.min_interarrival,
            specs[1].min_interarrival + 10);
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, MixedDeltaCountersBalanceAndProofsPass) {
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  core::DimensioningSession session(base_options());
  (void)session.solve(case_specs(3));

  core::AppSpec slower_c3 = spec_of(pool[2]);
  slower_c3.min_interarrival += 5;
  core::Delta delta;
  delta.remove.push_back("C1");
  delta.rerate.push_back(slower_c3);
  delta.add.push_back(spec_of(pool[3]));
  const core::Solution after = session.redimension(delta);

  EXPECT_EQ(after.stats.redimension_events, 3);
  // Invariant: every event is accounted for exactly once.
  EXPECT_EQ(after.stats.redimension_removals + after.stats.redimension_refits +
                after.stats.redimension_new_slots,
            after.stats.redimension_events);
  EXPECT_EQ(after.apps.size(), 3u);
  (void)app_named(after, "C2");
  (void)app_named(after, "C3");
  (void)app_named(after, "C4");
  expect_fresh_proofs_pass(after, session.options());
  // The session's standing solution is the returned one.
  EXPECT_EQ(engine::fingerprint(session.solution()),
            engine::fingerprint(after));
}

TEST(RedimensionTest, RedimensionBeforeSolveThrows) {
  core::DimensioningSession session(base_options());
  EXPECT_FALSE(session.has_solution());
  EXPECT_THROW((void)session.redimension({}), std::logic_error);
  EXPECT_THROW((void)session.solution(), std::logic_error);
  EXPECT_THROW((void)session.specs(), std::logic_error);
}

TEST(RedimensionTest, DeltaValidationRejectsMalformedDeltas) {
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(specs);

  const auto expect_rejected = [&](const core::Delta& delta) {
    EXPECT_THROW((void)session.redimension(delta), std::invalid_argument);
    // A rejected delta leaves the standing solution untouched.
    EXPECT_EQ(engine::fingerprint(session.solution()),
              engine::fingerprint(base));
  };

  core::Delta unknown_removal;
  unknown_removal.remove.push_back("C9");
  expect_rejected(unknown_removal);

  core::Delta duplicate_removal;
  duplicate_removal.remove = {"C2", "C2"};
  expect_rejected(duplicate_removal);

  core::Delta unknown_rerate;
  unknown_rerate.rerate.push_back(specs[1]);
  unknown_rerate.rerate.back().name = "C9";
  expect_rejected(unknown_rerate);

  core::Delta removed_and_rerated;
  removed_and_rerated.remove.push_back("C2");
  removed_and_rerated.rerate.push_back(specs[1]);
  expect_rejected(removed_and_rerated);

  core::Delta colliding_addition;
  colliding_addition.add.push_back(specs[1]);
  expect_rejected(colliding_addition);

  core::Delta emptying;
  emptying.remove = {"C1", "C2", "C3"};
  expect_rejected(emptying);
}

TEST(RedimensionTest, NonFiniteAndMisShapedGainsAreRejected) {
  // Session solve, additions and re-rates check every spec's gains before
  // any analysis: kt 1 x n, ke 1 x (n+1), all entries finite.
  const std::vector<core::AppSpec> specs = case_specs(3);
  std::vector<core::AppSpec> bad_gains;
  core::AppSpec spec = specs[1];
  spec.kt(0, 0) = std::numeric_limits<double>::quiet_NaN();
  bad_gains.push_back(spec);
  spec = specs[1];
  spec.ke(0, 1) = std::numeric_limits<double>::infinity();
  bad_gains.push_back(spec);
  spec = specs[1];
  spec.ke = specs[1].kt;  // 1 x n instead of 1 x (n+1)
  bad_gains.push_back(spec);

  core::DimensioningSession session(base_options());
  for (const core::AppSpec& bad : bad_gains) {
    std::vector<core::AppSpec> population = specs;
    population[1] = bad;
    EXPECT_THROW((void)session.solve(population), std::invalid_argument);
  }
  EXPECT_FALSE(session.has_solution());

  const core::Solution base = session.solve(specs);
  for (core::AppSpec bad : bad_gains) {
    core::Delta rerate;
    rerate.rerate.push_back(bad);
    EXPECT_THROW((void)session.redimension(rerate), std::invalid_argument);
    bad.name = "C9";
    core::Delta add;
    add.add.push_back(bad);
    EXPECT_THROW((void)session.redimension(add), std::invalid_argument);
    EXPECT_EQ(engine::fingerprint(session.solution()),
              engine::fingerprint(base));
  }
}

TEST(RedimensionTest, RateAboveTheVerifierLimitIsRejected) {
  // Session solve, additions and re-rates reject a rate past the
  // verifier's byte-counter limit before any analysis; the standing
  // solution survives.
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::AppSpec slow = specs[1];
  slow.min_interarrival = 300;
  ASSERT_GT(slow.min_interarrival,
            verify::DiscreteVerifier::kMaxInterarrival);

  core::DimensioningSession session(base_options());
  std::vector<core::AppSpec> population = specs;
  population[1] = slow;
  EXPECT_THROW((void)session.solve(population), std::invalid_argument);
  EXPECT_FALSE(session.has_solution());

  const core::Solution base = session.solve(specs);
  core::Delta rerate;
  rerate.rerate.push_back(slow);
  EXPECT_THROW((void)session.redimension(rerate), std::invalid_argument);
  slow.name = "C9";
  core::Delta add;
  add.add.push_back(slow);
  EXPECT_THROW((void)session.redimension(add), std::invalid_argument);
  EXPECT_EQ(engine::fingerprint(session.solution()),
            engine::fingerprint(base));
}

}  // namespace
}  // namespace ttdim

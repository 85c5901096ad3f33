// Tests for the verification layer: the exact discrete verifier, the
// timed-automata model, and — crucially — their agreement, since the
// paper's central claim rests on this reachability analysis.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "casestudy/apps.h"
#include "gtest/gtest.h"
#include "switching/dwell.h"
#include "verify/app_timing.h"
#include "verify/discrete.h"
#include "verify/ta_model.h"

namespace ttdim::verify {
namespace {

/// Uniform synthetic application: constant dwell windows for all waits.
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

AppTiming case_study_timing(const casestudy::App& app) {
  switching::DwellAnalysisSpec spec;
  spec.settling_requirement = app.settling_requirement;
  spec.settling = control::SettlingSpec{casestudy::kSettlingTol, 3000};
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  return make_app_timing(app.name, switching::compute_dwell_tables(loop, spec),
                         app.min_interarrival);
}

// ------------------------------------------------------------- AppTiming --

TEST(AppTimingTest, ValidationCatchesMalformedTables) {
  AppTiming a = uniform_app("A", 3, 2, 4, 10);
  EXPECT_NO_THROW(a.validate());
  a.t_minus.pop_back();
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = uniform_app("A", 3, 0, 4, 10);  // T-dw < 1
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = uniform_app("A", 3, 5, 4, 10);  // T-dw > T+dw
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = uniform_app("A", 3, 2, 4, 3);  // r <= T*w
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = uniform_app("A", 3, 2, 4, 7);  // TT episode (3 + 4) outlasts r
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a = uniform_app("A", 3, 2, 4, 8);  // boundary: 3 + 4 < 8 is fine
  EXPECT_NO_THROW(a.validate());
}

TEST(AppTimingTest, FromDwellTablesMatchesCaseStudy) {
  const AppTiming t = case_study_timing(casestudy::c1());
  EXPECT_EQ(t.t_star_w, 11);
  EXPECT_EQ(t.min_interarrival, 25);
  EXPECT_EQ(t.t_minus.size(), 12u);
  // Values must match the granularity-1 tables exactly.
  EXPECT_EQ(t.t_minus[0], 3);
  EXPECT_EQ(t.t_plus[0], 6);
}

// ----------------------------------------------- DiscreteVerifier basics --

TEST(Discrete, SingleAppAlwaysSafe) {
  // Alone on the slot, every disturbance is granted with Tw = 0.
  const DiscreteVerifier v({uniform_app("A", 0, 2, 3, 10)});
  const SlotVerdict verdict = v.verify();
  EXPECT_TRUE(verdict.safe);
  EXPECT_GT(verdict.states_explored, 0);
}

TEST(Discrete, TwoZeroWaitAppsCollide) {
  // Both demand the slot immediately; a simultaneous disturbance forces one
  // of them beyond T*w = 0.
  const DiscreteVerifier v({uniform_app("A", 0, 1, 1, 6),
                            uniform_app("B", 0, 1, 1, 6)});
  DiscreteVerifier::Options opt;
  opt.want_witness = true;
  const SlotVerdict verdict = v.verify(opt);
  EXPECT_FALSE(verdict.safe);
  ASSERT_FALSE(verdict.witness.empty());
  EXPECT_NE(verdict.witness.back().find("exceeded T*w"), std::string::npos);
}

TEST(Discrete, TwoTolerantAppsShareSafely) {
  // T*w = 1 with unit dwells: the loser of a simultaneous disturbance is
  // served one sample later, exactly at its deadline.
  const DiscreteVerifier v({uniform_app("A", 1, 1, 1, 6),
                            uniform_app("B", 1, 1, 1, 6)});
  EXPECT_TRUE(v.verify().safe);
}

TEST(Discrete, LongMinDwellBlocksSecondApp) {
  // The occupant may not be preempted for 3 samples, beyond B's T*w = 2.
  const DiscreteVerifier v({uniform_app("A", 2, 3, 4, 12),
                            uniform_app("B", 2, 3, 4, 12)});
  EXPECT_FALSE(v.verify().safe);
}

TEST(Discrete, PreemptionWindowRescues) {
  // Same as above but the occupant is preemptable after 1 sample: B waits
  // at most 1 < T*w = 2.
  const DiscreteVerifier v({uniform_app("A", 2, 1, 4, 12),
                            uniform_app("B", 2, 1, 4, 12)});
  EXPECT_TRUE(v.verify().safe);
}

TEST(Discrete, ThreeAppsNeedLargerWaitBudget) {
  // Three identical apps with T*w = 1 cannot share: the third waits 2.
  const DiscreteVerifier tight(
      {uniform_app("A", 1, 1, 1, 8), uniform_app("B", 1, 1, 1, 8),
       uniform_app("C", 1, 1, 1, 8)});
  EXPECT_FALSE(tight.verify().safe);
  // T*w = 2 suffices.
  const DiscreteVerifier ok(
      {uniform_app("A", 2, 1, 1, 8), uniform_app("B", 2, 1, 1, 8),
       uniform_app("C", 2, 1, 1, 8)});
  EXPECT_TRUE(ok.verify().safe);
}

TEST(Discrete, BoundedDisturbancesNeverLessSafe) {
  // Bounding the disturbance instances explores a subset of behaviours, so
  // an unsafe bounded verdict implies an unsafe unbounded verdict and a
  // safe unbounded verdict implies safe bounded verdicts.
  const std::vector<AppTiming> apps{uniform_app("A", 1, 1, 2, 6),
                                    uniform_app("B", 1, 1, 2, 6)};
  const DiscreteVerifier v(apps);
  DiscreteVerifier::Options bounded;
  bounded.max_disturbances_per_app = 2;
  const bool safe_unbounded = v.verify().safe;
  const bool safe_bounded = v.verify(bounded).safe;
  EXPECT_TRUE(safe_unbounded);
  EXPECT_TRUE(safe_bounded);

  const std::vector<AppTiming> bad{uniform_app("A", 0, 1, 1, 6),
                                   uniform_app("B", 0, 1, 1, 6)};
  const DiscreteVerifier vb(bad);
  DiscreteVerifier::Options bounded1;
  bounded1.max_disturbances_per_app = 1;
  EXPECT_FALSE(vb.verify(bounded1).safe);  // one instance each already fails
}

TEST(Discrete, ZeroDisturbanceBudgetIsTriviallySafe) {
  const DiscreteVerifier v({uniform_app("A", 0, 1, 1, 6),
                            uniform_app("B", 0, 1, 1, 6)});
  DiscreteVerifier::Options opt;
  opt.max_disturbances_per_app = 0;
  const SlotVerdict verdict = v.verify(opt);
  EXPECT_TRUE(verdict.safe);
  EXPECT_EQ(verdict.states_explored, 1);  // only the all-steady state
}

TEST(Discrete, StateBudgetEnforced) {
  const DiscreteVerifier v({case_study_timing(casestudy::c1()),
                            case_study_timing(casestudy::c5())});
  DiscreteVerifier::Options opt;
  opt.max_states = 10;
  EXPECT_THROW(static_cast<void>(v.verify(opt)), std::runtime_error);
}

TEST(Discrete, RejectsOversizedCounters) {
  EXPECT_THROW(DiscreteVerifier({uniform_app("A", 3, 1, 2, 400)}),
               std::logic_error);
}

// ------------------------------------------------------ Zone vs Discrete --

struct CrossCase {
  std::string label;
  std::vector<AppTiming> apps;
};

class CrossCheck : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossCheck, ZoneAndDiscreteAgree) {
  const CrossCase& cc = GetParam();
  const DiscreteVerifier discrete(cc.apps);
  const ZoneVerifier zone(cc.apps);
  const bool safe_discrete = discrete.verify().safe;
  const bool safe_zone = zone.verify().safe;
  EXPECT_EQ(safe_discrete, safe_zone) << cc.label;
}

INSTANTIATE_TEST_SUITE_P(
    SmallSystems, CrossCheck,
    ::testing::Values(
        CrossCase{"single", {uniform_app("A", 0, 1, 2, 5)}},
        CrossCase{"collide0",
                  {uniform_app("A", 0, 1, 1, 5), uniform_app("B", 0, 1, 1, 5)}},
        CrossCase{"share1",
                  {uniform_app("A", 1, 1, 1, 5), uniform_app("B", 1, 1, 1, 5)}},
        CrossCase{"blocked",
                  {uniform_app("A", 2, 3, 4, 9), uniform_app("B", 2, 3, 4, 9)}},
        CrossCase{"window",
                  {uniform_app("A", 2, 1, 4, 9), uniform_app("B", 2, 1, 4, 9)}},
        CrossCase{"asymmetric",
                  {uniform_app("A", 0, 2, 2, 7), uniform_app("B", 3, 1, 2, 7)}},
        CrossCase{"three_tight",
                  {uniform_app("A", 1, 1, 1, 7), uniform_app("B", 1, 1, 1, 7),
                   uniform_app("C", 1, 1, 1, 7)}},
        CrossCase{"three_ok",
                  {uniform_app("A", 2, 1, 1, 7), uniform_app("B", 2, 1, 1, 7),
                   uniform_app("C", 2, 1, 1, 7)}}),
    [](const ::testing::TestParamInfo<CrossCase>& info) {
      return info.param.label;
    });

TEST(CrossCheckBounded, AgreeWithBudget) {
  const std::vector<AppTiming> apps{uniform_app("A", 1, 1, 2, 6),
                                    uniform_app("B", 1, 1, 2, 6)};
  DiscreteVerifier::Options dopt;
  dopt.max_disturbances_per_app = 1;
  ZoneVerifier::Options zopt;
  zopt.max_disturbances_per_app = 1;
  EXPECT_EQ(DiscreteVerifier(apps).verify(dopt).safe,
            ZoneVerifier(apps).verify(zopt).safe);
}

// ------------------------------------------------- Case study partitions --

TEST(CaseStudyPartitions, S2IsSafe) {
  // Paper Sec. 5: {C6, C2} share slot S2.
  const DiscreteVerifier v({case_study_timing(casestudy::c6()),
                            case_study_timing(casestudy::c2())});
  EXPECT_TRUE(v.verify().safe);
}

TEST(CaseStudyPartitions, S1IsSafe) {
  // Paper Sec. 5: {C1, C5, C4, C3} share slot S1 (the 5-hour UPPAAL case;
  // the discrete engine settles it in seconds).
  const DiscreteVerifier v(
      {case_study_timing(casestudy::c1()), case_study_timing(casestudy::c5()),
       case_study_timing(casestudy::c4()),
       case_study_timing(casestudy::c3())});
  EXPECT_TRUE(v.verify().safe);
}

TEST(CaseStudyPartitions, AllSixInOneSlotUnsafe) {
  std::vector<AppTiming> all;
  for (const casestudy::App& app : casestudy::all_apps())
    all.push_back(case_study_timing(app));
  const DiscreteVerifier v(all);
  DiscreteVerifier::Options opt;
  opt.want_witness = true;
  opt.depth_first = true;  // falsification: dive into the crowded branches
  const SlotVerdict verdict = v.verify(opt);
  EXPECT_FALSE(verdict.safe);
  EXPECT_FALSE(verdict.witness.empty());
}

TEST(CaseStudyPartitions, BoundedVerdictMatchesUnboundedOnS2) {
  // The acceleration of paper Sec. 5 must not change the verdict. (The
  // bench bench_verification covers the S1 partition with larger budgets.)
  const std::vector<AppTiming> s2{case_study_timing(casestudy::c6()),
                                  case_study_timing(casestudy::c2())};
  DiscreteVerifier::Options bounded;
  bounded.max_disturbances_per_app = 2;
  EXPECT_TRUE(DiscreteVerifier(s2).verify(bounded).safe);
  EXPECT_TRUE(DiscreteVerifier(s2).verify().safe);
}

/// FNV-1a digest of a snapshot's records, so a whole discovery order fits
/// on one line.
std::uint64_t digest(const ExplorationState& snapshot) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : snapshot.packed) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CaseStudyPartitions, SerialDiscoveryOrderIsPinned) {
  // The serial BFS's discovery order is part of its contract: snapshots,
  // seeded extensions and fingerprints all replay it. The digests pin it
  // byte for byte on the Table-1 slots, in first-fit order, so a change
  // to the state key, the probe batching or the visited table can move
  // speed but never an emitted state. The verifier ignores a thread
  // budget, so every proof_threads value must reach the same digests.
  const AppTiming c1 = case_study_timing(casestudy::c1());
  const AppTiming c2 = case_study_timing(casestudy::c2());
  const AppTiming c3 = case_study_timing(casestudy::c3());
  const AppTiming c4 = case_study_timing(casestudy::c4());
  const AppTiming c5 = case_study_timing(casestudy::c5());
  const AppTiming c6 = case_study_timing(casestudy::c6());
  auto capture = [](const std::vector<AppTiming>& apps,
                    const DiscreteVerifier::Options& options,
                    const ExplorationState* seed, ExplorationState& out) {
    const SlotVerdict verdict =
        DiscreteVerifier(apps).verify(options, seed, &out);
    EXPECT_TRUE(verdict.safe);
    EXPECT_EQ(static_cast<std::size_t>(verdict.states_explored),
              out.state_count());
    return verdict.states_explored;
  };

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("proof_threads " + std::to_string(threads));
    DiscreteVerifier::Options fresh;
    fresh.proof_threads = threads;

    ExplorationState s1;
    EXPECT_EQ(capture({c1, c5, c4, c3}, fresh, nullptr, s1), 1440712);
    EXPECT_EQ(digest(s1), 0x3eb883f658b7180dull);

    ExplorationState prefix;
    EXPECT_EQ(capture({c1, c5, c4}, fresh, nullptr, prefix), 28126);
    EXPECT_EQ(digest(prefix), 0x501161181587b588ull);

    ExplorationState seeded;
    EXPECT_EQ(capture({c1, c5, c4, c3}, fresh, &prefix, seeded), 1440712);
    EXPECT_EQ(digest(seeded), 0xef0820e7b0108a5dull);

    DiscreteVerifier::Options budget1 = fresh;
    budget1.max_disturbances_per_app = 1;
    ExplorationState bounded;
    EXPECT_EQ(capture({c1, c5, c4, c3}, budget1, nullptr, bounded), 1620563);
    EXPECT_EQ(digest(bounded), 0xc124870497e1128bull);

    ExplorationState s2;
    EXPECT_EQ(capture({c6, c2}, fresh, nullptr, s2), 10201);
    EXPECT_EQ(digest(s2), 0xc53eb4fb04b79a84ull);
  }
}

TEST(CaseStudyPartitions, SerialViolationsArePinned) {
  // Unsafe slots: the breadth-first violator and its pop, the depth-first
  // dive's, and the length of the shortest (breadth-first) witness.
  const AppTiming c1 = case_study_timing(casestudy::c1());
  const AppTiming c2 = case_study_timing(casestudy::c2());
  const AppTiming c4 = case_study_timing(casestudy::c4());
  const AppTiming c5 = case_study_timing(casestudy::c5());
  const AppTiming c6 = case_study_timing(casestudy::c6());
  const struct {
    std::vector<AppTiming> apps;
    long bfs_states;
    int bfs_violator;
    long dfs_states;
    int dfs_violator;
    std::size_t witness_ticks;
  } cases[] = {{{c1, c5, c4, c6}, 47276, 0, 14, 1, 13},
               {{c1, c5, c4, c2}, 57186, 2, 441, 1, 14}};
  // Every row holds at any thread budget: the verifier ignores
  // proof_threads.
  for (const int threads : {1, 2, 4}) {
    for (const auto& c : cases) {
      SCOPED_TRACE("proof_threads " + std::to_string(threads) + ", " +
                   std::to_string(c.apps.size()) + "-app slot ending " +
                   c.apps.back().name);
      const DiscreteVerifier verifier(c.apps);
      DiscreteVerifier::Options breadth;
      breadth.proof_threads = threads;
      const SlotVerdict bfs = verifier.verify(breadth);
      EXPECT_FALSE(bfs.safe);
      EXPECT_EQ(bfs.states_explored, c.bfs_states);
      EXPECT_EQ(bfs.violator, c.bfs_violator);

      DiscreteVerifier::Options dive = breadth;
      dive.depth_first = true;
      const SlotVerdict dfs = verifier.verify(dive);
      EXPECT_FALSE(dfs.safe);
      EXPECT_EQ(dfs.states_explored, c.dfs_states);
      EXPECT_EQ(dfs.violator, c.dfs_violator);

      DiscreteVerifier::Options witness = breadth;
      witness.want_witness = true;
      const SlotVerdict shortest = verifier.verify(witness);
      EXPECT_FALSE(shortest.safe);
      EXPECT_EQ(shortest.witness_ticks.size(), c.witness_ticks);
    }
  }
}

}  // namespace
}  // namespace ttdim::verify

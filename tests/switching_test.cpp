// Tests for the dwell-time analysis, anchored on the paper's Table 1 and
// Fig. 4 where the paper states concrete values.
#include <stdexcept>

#include "casestudy/apps.h"
#include "gtest/gtest.h"
#include "switching/dwell.h"

namespace ttdim::switching {
namespace {

using casestudy::App;
using casestudy::kSettlingTol;

DwellAnalysisSpec spec_for(const App& app) {
  DwellAnalysisSpec spec;
  spec.settling_requirement = app.settling_requirement;
  spec.settling = control::SettlingSpec{kSettlingTol, 3000};
  return spec;
}

DwellTables tables_for(const App& app) {
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  return compute_dwell_tables(loop, spec_for(app));
}

// ------------------------------------------------------------ Validation --

TEST(DwellSpec, RejectsNonPositiveRequirement) {
  const App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_for(app);
  spec.settling_requirement = 0;
  EXPECT_THROW(compute_dwell_tables(loop, spec), std::invalid_argument);
}

TEST(DwellSpec, RejectsBadGranularity) {
  const App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_for(app);
  spec.tw_granularity = 0;
  EXPECT_THROW(compute_dwell_tables(loop, spec), std::invalid_argument);
}

TEST(DwellSpec, RejectsShortHorizon) {
  const App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_for(app);
  spec.settling.horizon = 20;
  EXPECT_THROW(compute_dwell_tables(loop, spec), std::invalid_argument);
}

TEST(DwellSpec, RejectsRequirementBelowJT) {
  // J* below the dedicated-slot settling time can never be met.
  const App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_for(app);
  spec.settling_requirement = 2;
  EXPECT_THROW(compute_dwell_tables(loop, spec), std::invalid_argument);
}

TEST(DwellSpec, SearchStopsWhereTheScheduleOverrunsTheHorizon) {
  // C5 meets J* = 30 in ME alone (JE = 25), so every wait is feasible until
  // the wait plus the shortest dwell no longer fits a 100-sample horizon.
  // Such patterns do not settle within the horizon: the search stops at
  // wait 100 instead of failing a simulation precondition.
  const App app = casestudy::c5();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_for(app);
  spec.settling_requirement = 30;
  spec.settling.horizon = 100;
  const DwellTables tables = compute_dwell_tables(loop, spec);
  EXPECT_EQ(tables.settling_et, 25);
  EXPECT_EQ(tables.t_star_w, 99);
  EXPECT_EQ(tables.entries(), 100);
}

// ----------------------------------------------------- Table 1 anchoring --

TEST(Table1, C1TimingValues) {
  // Paper Table 1 for C1: JT = 9, JE = 35, T*w = 11.
  const DwellTables t = tables_for(casestudy::c1());
  ASSERT_TRUE(t.feasible());
  EXPECT_NEAR(t.settling_tt, 9, 1);
  EXPECT_NEAR(t.settling_et, 35, 2);
  EXPECT_NEAR(t.t_star_w, 11, 1);
  EXPECT_EQ(t.entries(), t.t_star_w + 1);
}

TEST(Table1, C1DwellRangesMatchFig4Scale) {
  // Fig. 4: T-dw within [3, 5], T+dw within [4, 6] over all waits.
  const DwellTables t = tables_for(casestudy::c1());
  ASSERT_TRUE(t.feasible());
  for (int i = 0; i < t.entries(); ++i) {
    EXPECT_GE(t.t_minus[static_cast<size_t>(i)], 2) << "Tw=" << i;
    EXPECT_LE(t.t_minus[static_cast<size_t>(i)], 6) << "Tw=" << i;
    EXPECT_GE(t.t_plus[static_cast<size_t>(i)], 3) << "Tw=" << i;
    EXPECT_LE(t.t_plus[static_cast<size_t>(i)], 7) << "Tw=" << i;
  }
}

TEST(Table1, C1ZeroWaitFullPerformance) {
  // Fig. 4 / Sec. 3.1: at Tw = 0 a dwell of ~6 samples already achieves the
  // dedicated-slot settling time JT — staying longer is pure waste.
  const DwellTables t = tables_for(casestudy::c1());
  ASSERT_TRUE(t.feasible());
  EXPECT_EQ(t.settling_at_plus[0], t.settling_tt);
  EXPECT_LE(t.t_plus[0], 7);
}

struct Expected {
  int index;          // into casestudy::all_apps()
  int jt, je, t_star; // Table 1 values (samples)
};

class Table1All : public ::testing::TestWithParam<Expected> {};

TEST_P(Table1All, TimingColumnsReproduce) {
  const Expected e = GetParam();
  const App app = casestudy::all_apps()[static_cast<size_t>(e.index)];
  const DwellTables t = tables_for(app);
  ASSERT_TRUE(t.feasible()) << app.name;
  // Shapes must reproduce; exact sample counts may differ by simulation
  // bookkeeping, so allow small windows around the printed numbers.
  EXPECT_NEAR(t.settling_tt, e.jt, 2) << app.name;
  EXPECT_NEAR(t.settling_et, e.je, 6) << app.name;
  EXPECT_NEAR(t.t_star_w, e.t_star, 3) << app.name;
  // Requirement sanity: JT <= J* < JE.
  EXPECT_LE(t.settling_tt, app.settling_requirement) << app.name;
  EXPECT_GT(t.settling_et, app.settling_requirement) << app.name;
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudy, Table1All,
    ::testing::Values(Expected{0, 9, 35, 11}, Expected{1, 15, 50, 13},
                      Expected{2, 10, 31, 15}, Expected{3, 10, 31, 12},
                      Expected{4, 10, 25, 12}, Expected{5, 11, 41, 12}),
    [](const ::testing::TestParamInfo<Expected>& info) {
      return "C" + std::to_string(info.param.index + 1);
    });

// ------------------------------------------------------------ Invariants --

class DwellInvariants : public ::testing::TestWithParam<int> {};

TEST_P(DwellInvariants, TablesWellFormed) {
  const App app = casestudy::all_apps()[static_cast<size_t>(GetParam())];
  const DwellTables t = tables_for(app);
  ASSERT_TRUE(t.feasible()) << app.name;
  for (int i = 0; i < t.entries(); ++i) {
    // T-dw <= T+dw by construction (the best settling is at least as good
    // as the barely-passing one).
    EXPECT_LE(t.t_minus[static_cast<size_t>(i)],
              t.t_plus[static_cast<size_t>(i)])
        << app.name << " Tw=" << i;
    // Both must meet the requirement.
    EXPECT_LE(t.settling_at_minus[static_cast<size_t>(i)],
              app.settling_requirement)
        << app.name << " Tw=" << i;
    EXPECT_LE(t.settling_at_plus[static_cast<size_t>(i)],
              t.settling_at_minus[static_cast<size_t>(i)])
        << app.name << " Tw=" << i;
  }
  // Paper Fig. 4 observation: the best achievable settling time is
  // non-decreasing in the wait time.
  for (int i = 1; i < t.entries(); ++i)
    EXPECT_GE(t.settling_at_plus[static_cast<size_t>(i)],
              t.settling_at_plus[static_cast<size_t>(i - 1)])
        << app.name << " Tw=" << i;
  // Waiting longer than T*w by definition breaks the requirement: the
  // dwell analysis stopped because no dwell at T*w + 1 settles in time.
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const auto j = loop.settling_of_pattern(t.t_star_w + 1, 64,
                                          spec_for(app).settling);
  if (j.has_value())
    EXPECT_GT(*j, app.settling_requirement) << app.name;
}

INSTANTIATE_TEST_SUITE_P(CaseStudy, DwellInvariants, ::testing::Range(0, 6));

TEST(DwellLookup, GranularityRoundsUp) {
  const App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_for(app);
  spec.tw_granularity = 2;
  const DwellTables coarse = compute_dwell_tables(loop, spec);
  ASSERT_TRUE(coarse.feasible());
  EXPECT_EQ(coarse.tw_granularity, 2);
  // Lookup at an odd wait uses the next (more pessimistic) entry.
  if (coarse.t_star_w >= 3) {
    EXPECT_EQ(coarse.t_minus_at(3), coarse.t_minus[2]);
    EXPECT_EQ(coarse.t_minus_at(4), coarse.t_minus[2]);
  }
  // Granular tables are at most as long.
  const DwellTables fine = tables_for(app);
  EXPECT_LE(coarse.entries(), fine.entries());
}

TEST(DwellLookup, OutOfRangeRejected) {
  const DwellTables t = tables_for(casestudy::c1());
  EXPECT_THROW(static_cast<void>(t.t_minus_at(t.t_star_w + 1)),
               std::logic_error);
  EXPECT_THROW(static_cast<void>(t.t_minus_at(-1)), std::logic_error);
}

// ---------------------------------------------------------- Settling map --

TEST(SettlingMapTest, MatchesDirectSimulation) {
  const App app = casestudy::c1();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const control::SettlingSpec settling{kSettlingTol, 1500};
  const SettlingMap map = compute_settling_map(loop, 6, 8, settling);
  EXPECT_EQ(map.wait_count, 6);
  EXPECT_EQ(map.dwell_count, 8);
  for (int w = 0; w < 6; ++w)
    for (int d = 0; d < 8; ++d)
      EXPECT_EQ(map.at(w, d), loop.settling_of_pattern(w, d, settling))
          << w << "," << d;
}

TEST(SettlingMapTest, StablePairDominatesUnstablePair) {
  // Fig. 3: the switching-stable pair's settling surface sits at or below
  // the unstable pair's (resource efficiency of switching stability).
  const App app = casestudy::c1();
  const SwitchedLoop stable(app.plant, app.kt, casestudy::ke_stable());
  const SwitchedLoop unstable(app.plant, app.kt, casestudy::ke_unstable());
  const control::SettlingSpec settling{kSettlingTol, 1500};
  const SettlingMap ms = compute_settling_map(stable, 8, 8, settling);
  const SettlingMap mu = compute_settling_map(unstable, 8, 8, settling);
  int stable_wins = 0;
  int unstable_wins = 0;
  for (int w = 0; w < 8; ++w) {
    for (int d = 0; d < 8; ++d) {
      const auto& js = ms.at(w, d);
      const auto& ju = mu.at(w, d);
      if (!js.has_value() || !ju.has_value()) continue;
      if (*js < *ju) ++stable_wins;
      if (*ju < *js) ++unstable_wins;
    }
  }
  EXPECT_GT(stable_wins, 10 * std::max(unstable_wins, 1));
}

TEST(SettlingMapTest, BoundsChecked) {
  const App app = casestudy::c5();
  const SwitchedLoop loop(app.plant, app.kt, app.ke);
  const SettlingMap map =
      compute_settling_map(loop, 2, 2, control::SettlingSpec{0.02, 500});
  EXPECT_THROW(static_cast<void>(map.at(2, 0)), std::logic_error);
  EXPECT_THROW(static_cast<void>(map.at(0, 2)), std::logic_error);
  EXPECT_THROW(static_cast<void>(map.at(-1, 0)), std::logic_error);
}

// ------------------------------------------------------------ Run-length --

TEST(RunLength, RoundTrip) {
  const std::vector<int> v{3, 3, 3, 4, 4, 5, 3, 3};
  const RunLengthTable t = RunLengthTable::encode(v);
  EXPECT_EQ(t.decode(), v);
  EXPECT_EQ(t.decoded_length(), 8);
  EXPECT_EQ(t.runs.size(), 4u);
  EXPECT_EQ(t.encoded_words(), 8);
}

TEST(RunLength, EmptyAndSingleton) {
  EXPECT_TRUE(RunLengthTable::encode({}).decode().empty());
  const RunLengthTable t = RunLengthTable::encode({7});
  EXPECT_EQ(t.decode(), std::vector<int>{7});
}

TEST(RunLength, CompressesCaseStudyTables) {
  // The paper stores T-dw / T+dw run-length encoded because they take few
  // distinct values; verify the encoding round-trips on real tables.
  for (const App& app : casestudy::all_apps()) {
    const DwellTables t = tables_for(app);
    ASSERT_TRUE(t.feasible()) << app.name;
    const RunLengthTable enc_minus = RunLengthTable::encode(t.t_minus);
    const RunLengthTable enc_plus = RunLengthTable::encode(t.t_plus);
    EXPECT_EQ(enc_minus.decode(), t.t_minus) << app.name;
    EXPECT_EQ(enc_plus.decode(), t.t_plus) << app.name;
  }
}

}  // namespace
}  // namespace ttdim::switching

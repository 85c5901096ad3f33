// Tests for the first-fit mapper and the end-to-end dimensioning façade —
// including the paper's headline result: the proposed strategy packs the
// six-application case study into 2 TT slots while the baseline [9]
// analyses need 4 (a 50 % saving).
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "casestudy/apps.h"
#include "core/dimensioning.h"
#include "gtest/gtest.h"
#include "mapping/first_fit.h"

namespace ttdim {
namespace {

using core::AppSpec;
using core::Solution;
using verify::AppTiming;

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

AppSpec to_spec(const casestudy::App& app) {
  return {app.name,          app.plant,
          app.kt,            app.ke,
          app.min_interarrival, app.settling_requirement};
}

std::vector<AppSpec> case_study_specs() {
  std::vector<AppSpec> specs;
  for (const casestudy::App& app : casestudy::all_apps())
    specs.push_back(to_spec(app));
  return specs;
}

/// Solve once and share across tests (the dwell analyses + model checking
/// take a few seconds).
const Solution& case_study_solution() {
  static const Solution solution = core::solve(case_study_specs());
  return solution;
}

// ------------------------------------------------------------- First fit --

TEST(FirstFit, PaperSortOrderMatchesSection5) {
  std::vector<AppTiming> timings;
  for (const core::AppSolution& a : case_study_solution().apps)
    timings.push_back(a.timing);
  const std::vector<int> order = mapping::paper_sort_order(timings);
  // Paper Sec. 5: sorted as {C1, C5, C4, C6, C2, C3}.
  std::vector<std::string> names;
  for (int i : order)
    names.push_back(timings[static_cast<size_t>(i)].name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"C1", "C5", "C4", "C6", "C2", "C3"}));
}

TEST(FirstFit, GreedyOracleBehaviour) {
  // Oracle admitting at most two apps per slot.
  const mapping::SlotOracle pairs_only =
      [](const std::vector<AppTiming>& slot_apps) {
        return slot_apps.size() <= 2;
      };
  const std::vector<AppTiming> apps{
      uniform_app("A", 1, 1, 1, 9), uniform_app("B", 1, 1, 1, 9),
      uniform_app("C", 1, 1, 1, 9), uniform_app("D", 1, 1, 1, 9),
      uniform_app("E", 1, 1, 1, 9)};
  const std::vector<int> order{0, 1, 2, 3, 4};
  const mapping::SlotAssignment a = mapping::first_fit(apps, order, pairs_only);
  EXPECT_EQ(a.slot_count(), 3);
  EXPECT_EQ(a.slots[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(a.slots[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(a.slots[2], (std::vector<int>{4}));
}

TEST(FirstFit, SingletonMustAlwaysBeAdmitted) {
  const mapping::SlotOracle impossible =
      [](const std::vector<AppTiming>&) { return false; };
  const std::vector<AppTiming> apps{uniform_app("A", 1, 1, 1, 9)};
  EXPECT_THROW(
      static_cast<void>(mapping::first_fit(apps, {0}, impossible)),
      std::logic_error);
}

TEST(FirstFit, OrderArityChecked) {
  const std::vector<AppTiming> apps{uniform_app("A", 1, 1, 1, 9)};
  EXPECT_THROW(static_cast<void>(mapping::first_fit(
                   apps, {0, 1},
                   [](const std::vector<AppTiming>&) { return true; })),
               std::logic_error);
}

// ------------------------------------------------------ Headline results --

TEST(CaseStudyMapping, ProposedNeedsTwoSlots) {
  const Solution& s = case_study_solution();
  ASSERT_EQ(s.proposed.slot_count(), 2);
  // Paper Sec. 5: S1 = {C1, C5, C4, C3}, S2 = {C6, C2}.
  std::set<std::string> s1;
  std::set<std::string> s2;
  for (int i : s.proposed.slots[0])
    s1.insert(s.apps[static_cast<size_t>(i)].spec.name);
  for (int i : s.proposed.slots[1])
    s2.insert(s.apps[static_cast<size_t>(i)].spec.name);
  EXPECT_EQ(s1, (std::set<std::string>{"C1", "C5", "C4", "C3"}));
  EXPECT_EQ(s2, (std::set<std::string>{"C6", "C2"}));
}

TEST(CaseStudyMapping, BaselinesNeedFourSlots) {
  const Solution& s = case_study_solution();
  EXPECT_EQ(s.baseline_np.slot_count(), 4);
  EXPECT_EQ(s.baseline_delayed.slot_count(), 4);
  // 50 % saving, the paper's headline.
  EXPECT_NEAR(s.saving_vs_baseline(), 0.5, 1e-9);
}

TEST(CaseStudyMapping, EveryAppMappedExactlyOnce) {
  const Solution& s = case_study_solution();
  for (const mapping::SlotAssignment* a :
       {&s.proposed, &s.baseline_np, &s.baseline_delayed}) {
    std::set<int> seen;
    for (const std::vector<int>& slot : a->slots)
      for (int i : slot) EXPECT_TRUE(seen.insert(i).second);
    EXPECT_EQ(seen.size(), s.apps.size());
  }
}

// ------------------------------------------------------------ Validation --

TEST(Solve, RejectsSwitchingUnstablePair) {
  std::vector<AppSpec> specs{to_spec(casestudy::c1())};
  specs[0].ke = casestudy::ke_unstable();
  EXPECT_THROW(static_cast<void>(core::solve(specs)), std::invalid_argument);
  // Explicit override lets the user study the unstable pair anyway.
  core::SolveOptions opt;
  opt.require_switching_stability = false;
  EXPECT_NO_THROW(static_cast<void>(core::solve(specs, opt)));
}

TEST(Solve, RejectsUnmeetableRequirement) {
  std::vector<AppSpec> specs{to_spec(casestudy::c1())};
  specs[0].settling_requirement = 3;  // below JT = 9
  EXPECT_THROW(static_cast<void>(core::solve(specs)), std::invalid_argument);
}

TEST(Solve, DegradationGridPastTheHorizonGivesAVerdict) {
  // A nearly integrating scalar plant under a zero ME gain (JE = 3990):
  // its degradation grid overruns the 4000-sample horizon. The solve
  // completes; the pair is certified by its CQLF, not degradation-free.
  const control::DiscreteLti plant(control::Matrix{{0.99902}},
                                   control::Matrix{{1e-3}},
                                   control::Matrix{{1.0}}, 0.02);
  const std::vector<AppSpec> specs{{"S", plant, control::Matrix{{100.0}},
                                    control::Matrix{{0.0, 0.0}}, 100, 50}};
  const Solution solution = core::solve(specs);
  ASSERT_EQ(solution.apps.size(), 1u);
  EXPECT_FALSE(solution.apps[0].stability.degradation_free);
  EXPECT_TRUE(solution.apps[0].stability.common_lyapunov);
  EXPECT_EQ(solution.proposed.slots.size(), 1u);
}

TEST(Solve, DwellSearchPastTheHorizonEndsInInvalidArgument) {
  // C5 with J* = 30 on a 100-sample horizon: the dwell search stops at
  // wait 100 (T*w = 99), which C5's r = 25 cannot host.
  std::vector<AppSpec> specs{to_spec(casestudy::c5())};
  specs[0].settling_requirement = 30;
  core::SolveOptions opt;
  opt.settling = {0.02, 100};
  EXPECT_THROW(static_cast<void>(core::solve(specs, opt)),
               std::invalid_argument);
}

TEST(Solve, RejectsNonFiniteAndMisShapedGains) {
  const auto expect_rejected = [](const AppSpec& spec) {
    try {
      static_cast<void>(core::solve({spec}));
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec.name), std::string::npos)
          << e.what();
    }
  };
  const AppSpec c5 = to_spec(casestudy::c5());
  AppSpec spec = c5;
  spec.kt(0, 0) = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(spec);
  spec = c5;
  spec.ke(0, 1) = std::numeric_limits<double>::infinity();
  expect_rejected(spec);
  spec = c5;
  spec.ke = c5.kt;  // 1 x n instead of 1 x (n+1)
  expect_rejected(spec);
  spec = c5;
  spec.kt = spec.kt.transpose();  // n x 1
  expect_rejected(spec);
}

TEST(Solve, RateAboveTheVerifierLimitIsRejected) {
  // The verifier counts samples in bytes. A rate past its limit is
  // rejected before any analysis, naming the app and the limit, instead
  // of tripping a verifier precondition at the first admission proof.
  const int limit = verify::DiscreteVerifier::kMaxInterarrival;
  for (const casestudy::App& app : casestudy::all_apps()) {
    for (const int r : {limit + 1, 600}) {
      AppSpec spec = to_spec(app);
      spec.min_interarrival = r;
      try {
        static_cast<void>(core::solve({spec}));
        ADD_FAILURE() << app.name << " accepted at r = " << r;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(app.name), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(limit)), std::string::npos)
            << what;
      }
    }
  }
  AppSpec at_limit = to_spec(casestudy::c1());
  at_limit.min_interarrival = limit;
  EXPECT_EQ(core::solve({at_limit}).proposed.slot_count(), 1);
}

TEST(Solve, SlackAwarePolicyYieldsSamePartitionOnCaseStudy) {
  // The slack-aware extension keeps the case-study dimensioning at two
  // slots (EXPERIMENTS.md A2): the postponement heuristic never admits
  // less than the paper policy here.
  core::SolveOptions opt;
  opt.policy = verify::SlotPolicy::kSlackAware;
  const Solution s = core::solve(case_study_specs(), opt);
  EXPECT_EQ(s.proposed.slot_count(), 2);
}

TEST(Solve, StabilityCertificatesRecorded) {
  const Solution& s = case_study_solution();
  for (const core::AppSolution& a : s.apps) {
    EXPECT_TRUE(a.stability.switching_stable()) << a.spec.name;
    EXPECT_TRUE(a.tables.feasible()) << a.spec.name;
  }
}

// ------------------------------------------------------------------ CoSim --

TEST(CoSim, Figure8ScenarioMeetsAllRequirements) {
  // Fig. 8: simultaneous disturbances at C1, C3, C4, C5 sharing slot S1.
  const Solution& s = case_study_solution();
  std::vector<core::AppSolution> slot_apps;
  for (int i : s.proposed.slots[0])
    slot_apps.push_back(s.apps[static_cast<size_t>(i)]);
  sched::Scenario scenario;
  scenario.horizon = 120;
  scenario.disturbances.assign(slot_apps.size(), {0});
  const core::CoSimResult r =
      core::cosimulate(slot_apps, scenario, casestudy::kSettlingTol);
  EXPECT_FALSE(r.schedule.deadline_violated);
  for (size_t i = 0; i < slot_apps.size(); ++i) {
    ASSERT_TRUE(r.settling[i].has_value()) << slot_apps[i].spec.name;
    EXPECT_LE(*r.settling[i], slot_apps[i].spec.settling_requirement)
        << slot_apps[i].spec.name;
  }
}

TEST(CoSim, Figure9ScenarioMeetsAllRequirements) {
  // Fig. 9: C6 disturbed 10 samples after C2, sharing slot S2.
  const Solution& s = case_study_solution();
  std::vector<core::AppSolution> slot_apps;
  for (int i : s.proposed.slots[1])
    slot_apps.push_back(s.apps[static_cast<size_t>(i)]);
  ASSERT_EQ(slot_apps.size(), 2u);
  // slot order is {C6, C2} by mapping order; C2 at 0, C6 at 10.
  sched::Scenario scenario;
  scenario.horizon = 160;
  for (const core::AppSolution& a : slot_apps)
    scenario.disturbances.push_back(a.spec.name == "C2"
                                        ? std::vector<int>{0}
                                        : std::vector<int>{10});
  const core::CoSimResult r =
      core::cosimulate(slot_apps, scenario, casestudy::kSettlingTol);
  EXPECT_FALSE(r.schedule.deadline_violated);
  for (size_t i = 0; i < slot_apps.size(); ++i) {
    ASSERT_TRUE(r.settling[i].has_value()) << slot_apps[i].spec.name;
    EXPECT_LE(*r.settling[i], slot_apps[i].spec.settling_requirement)
        << slot_apps[i].spec.name;
  }
}

TEST(CoSim, VerifierVerdictMatchesRandomizedCoSimulation) {
  // Safety fuzzing: random legal sporadic scenarios against a verified-safe
  // partition must never violate a deadline (verifier soundness witness).
  const Solution& s = case_study_solution();
  std::vector<core::AppSolution> slot_apps;
  for (int i : s.proposed.slots[0])
    slot_apps.push_back(s.apps[static_cast<size_t>(i)]);
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    sched::Scenario scenario;
    scenario.horizon = 400;
    for (const core::AppSolution& a : slot_apps) {
      std::vector<int> d;
      int t = static_cast<int>(rng() % 40);
      while (t < scenario.horizon) {
        d.push_back(t);
        t += a.timing.min_interarrival + static_cast<int>(rng() % 30);
      }
      scenario.disturbances.push_back(std::move(d));
    }
    const core::CoSimResult r =
        core::cosimulate(slot_apps, scenario, casestudy::kSettlingTol);
    EXPECT_FALSE(r.schedule.deadline_violated) << "trial " << trial;
  }
}

TEST(CoSim, EmptyDisturbanceListYieldsEmptyTrace) {
  const Solution& s = case_study_solution();
  std::vector<core::AppSolution> slot_apps{s.apps[0], s.apps[1]};
  sched::Scenario scenario;
  scenario.horizon = 60;
  scenario.disturbances = {{0}, {}};
  const core::CoSimResult r =
      core::cosimulate(slot_apps, scenario, casestudy::kSettlingTol);
  EXPECT_FALSE(r.traces[0].empty());
  EXPECT_TRUE(r.traces[1].empty());
  EXPECT_FALSE(r.settling[1].has_value());
}

}  // namespace
}  // namespace ttdim

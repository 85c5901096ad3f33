// The parallel dwell search must be unobservable in the result: tables
// computed with any thread count are byte-identical to the serial
// switching::compute_dwell_tables, including the early stop at the first
// infeasible wait and the thrown exceptions.
#include <stdexcept>

#include "casestudy/apps.h"
#include "engine/oracle/dwell_search.h"
#include "gtest/gtest.h"
#include "switching/dwell.h"

namespace ttdim::engine::oracle {
namespace {

using switching::DwellAnalysisSpec;
using switching::DwellTables;

DwellAnalysisSpec spec_of(const casestudy::App& app) {
  DwellAnalysisSpec spec;
  spec.settling_requirement = app.settling_requirement;
  spec.settling = control::SettlingSpec{casestudy::kSettlingTol, 3000};
  return spec;
}

void expect_identical(const DwellTables& a, const DwellTables& b) {
  EXPECT_EQ(a.t_star_w, b.t_star_w);
  EXPECT_EQ(a.t_minus, b.t_minus);
  EXPECT_EQ(a.t_plus, b.t_plus);
  EXPECT_EQ(a.settling_at_minus, b.settling_at_minus);
  EXPECT_EQ(a.settling_at_plus, b.settling_at_plus);
  EXPECT_EQ(a.settling_tt, b.settling_tt);
  EXPECT_EQ(a.settling_et, b.settling_et);
  EXPECT_EQ(a.tw_granularity, b.tw_granularity);
}

TEST(ParallelDwellSearch, MatchesSerialForAllCaseStudyApps) {
  for (const casestudy::App& app : casestudy::all_apps()) {
    const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
    const DwellAnalysisSpec spec = spec_of(app);
    const DwellTables serial = switching::compute_dwell_tables(loop, spec);
    for (int threads : {2, 4, 7}) {
      const DwellTables parallel =
          compute_dwell_tables_parallel(loop, spec, threads);
      expect_identical(serial, parallel);
    }
  }
}

TEST(ParallelDwellSearch, SingleThreadDelegatesToSerial) {
  const casestudy::App app = casestudy::c6();
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  const DwellAnalysisSpec spec = spec_of(app);
  expect_identical(switching::compute_dwell_tables(loop, spec),
                   compute_dwell_tables_parallel(loop, spec, 1));
}

TEST(ParallelDwellSearch, CoarseGranularityMatchesSerial) {
  const casestudy::App app = casestudy::c2();
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_of(app);
  spec.tw_granularity = 3;
  expect_identical(switching::compute_dwell_tables(loop, spec),
                   compute_dwell_tables_parallel(loop, spec, 4));
}

TEST(ParallelDwellSearch, ThrowsLikeSerialOnUnmeetableRequirement) {
  const casestudy::App app = casestudy::c6();
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_of(app);
  spec.settling_requirement = 1;  // J* < JT
  EXPECT_THROW(static_cast<void>(switching::compute_dwell_tables(loop, spec)),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(compute_dwell_tables_parallel(loop, spec, 4)),
      std::invalid_argument);
}

TEST(ParallelDwellSearch, StopsLikeSerialWhereTheScheduleOverrunsTheHorizon) {
  // Speculative rows past a 100-sample horizon are infeasible rows, not
  // errors, so every thread count stops at the same wait as the serial
  // search.
  const casestudy::App app = casestudy::c5();
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  DwellAnalysisSpec spec = spec_of(app);
  spec.settling_requirement = 30;
  spec.settling.horizon = 100;
  const DwellTables serial = switching::compute_dwell_tables(loop, spec);
  EXPECT_EQ(serial.t_star_w, 99);
  for (int threads : {2, 4, 7})
    expect_identical(serial,
                     compute_dwell_tables_parallel(loop, spec, threads));
}

TEST(DwellRow, AgreesWithAssembledTables) {
  const casestudy::App app = casestudy::c1();
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  const DwellAnalysisSpec spec = spec_of(app);
  const DwellTables tables = switching::compute_dwell_tables(loop, spec);
  ASSERT_TRUE(tables.feasible());
  for (int wait = 0; wait <= tables.t_star_w; ++wait) {
    const auto row = switching::compute_dwell_row(loop, wait, spec);
    ASSERT_TRUE(row.has_value()) << "wait " << wait;
    EXPECT_EQ(row->t_minus, tables.t_minus[static_cast<size_t>(wait)]);
    EXPECT_EQ(row->t_plus, tables.t_plus[static_cast<size_t>(wait)]);
  }
  EXPECT_FALSE(
      switching::compute_dwell_row(loop, tables.t_star_w + 1, spec)
          .has_value());
}

}  // namespace
}  // namespace ttdim::engine::oracle

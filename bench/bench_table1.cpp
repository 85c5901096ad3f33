// Reproduces Table 1 of the paper: per application the settling times JT
// (dedicated slot) and JE (dynamic segment only), the maximum wait T*w and
// the dwell-time arrays T-dw / T+dw, side by side with the values printed
// in the paper. Then benchmarks the three layers of the per-application
// analysis for each application: the CQLF decision, the switching-stability
// check (CQLF decision plus the Fig. 3 degradation grid) and the dwell-table
// search. The first two export the CQLF's `found` (0/1) as a counter.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "control/design.h"
#include "linalg/lyap.h"

namespace {

using namespace ttdim;

struct PaperRow {
  int r, j_star, jt, je, t_star;
  std::vector<int> t_minus;
  std::vector<int> t_plus;
};

// Values transcribed from Table 1 (C6's phi sign corrected, see
// EXPERIMENTS.md "data corrections").
const std::vector<PaperRow>& paper_rows() {
  static const std::vector<PaperRow> rows{
      {25, 18, 9, 35, 11,
       {3, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5},
       {6, 6, 5, 5, 5, 6, 5, 5, 4, 4, 5, 5}},
      {100, 25, 15, 50, 13,
       {7, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 7, 8},
       {10, 10, 9, 10, 8, 9, 9, 10, 8, 8, 9, 8, 8, 8}},
      {50, 20, 10, 31, 15,
       {4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4},
       {8, 8, 7, 7, 7, 6, 6, 6, 6, 5, 5, 5, 5, 4, 4, 4}},
      {40, 19, 10, 31, 12,
       {5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
       {9, 8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 5}},
      {25, 18, 10, 25, 12,
       {4, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4},
       {9, 8, 7, 8, 7, 6, 7, 6, 5, 5, 4, 4, 4}},
      {100, 20, 11, 41, 12,
       {7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8},
       {11, 11, 10, 10, 10, 10, 9, 9, 9, 8, 8, 8, 8}}};
  return rows;
}

std::string join(const std::vector<int>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i)
    s += std::to_string(v[i]) + (i + 1 < v.size() ? "," : "");
  return s + "]";
}

int array_distance(const std::vector<int>& a, const std::vector<int>& b) {
  int d = static_cast<int>(a.size() > b.size() ? a.size() - b.size()
                                               : b.size() - a.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    d += std::abs(a[i] - b[i]);
  return d;
}

void report() {
  std::printf("==== Table 1: case study data and results (samples) ====\n");
  const auto apps = casestudy::all_apps();
  for (size_t i = 0; i < apps.size(); ++i) {
    const switching::DwellTables t = bench::tables_of(apps[i]);
    const PaperRow& p = paper_rows()[i];
    std::printf("%s  (r=%d, J*=%d)\n", apps[i].name.c_str(),
                apps[i].min_interarrival, apps[i].settling_requirement);
    std::printf("  JT   measured %2d   paper %2d\n", t.settling_tt, p.jt);
    std::printf("  JE   measured %2d   paper %2d\n", t.settling_et, p.je);
    std::printf("  T*w  measured %2d   paper %2d\n", t.t_star_w, p.t_star);
    std::printf("  T-dw measured %s\n       paper    %s   (L1 distance %d)\n",
                join(t.t_minus).c_str(), join(p.t_minus).c_str(),
                array_distance(t.t_minus, p.t_minus));
    std::printf("  T+dw measured %s\n       paper    %s   (L1 distance %d)\n",
                join(t.t_plus).c_str(), join(p.t_plus).c_str(),
                array_distance(t.t_plus, p.t_plus));
  }
  std::printf("\n");
}

void BM_DwellTables(benchmark::State& state) {
  const auto apps = casestudy::all_apps();
  const casestudy::App& app = apps[static_cast<size_t>(state.range(0))];
  const control::SwitchedLoop loop(app.plant, app.kt, app.ke);
  const auto spec = bench::dwell_spec(app);
  for (auto _ : state) {
    benchmark::DoNotOptimize(switching::compute_dwell_tables(loop, spec));
  }
  state.SetLabel(app.name);
}
BENCHMARK(BM_DwellTables)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

void BM_CqlfSearch(benchmark::State& state) {
  const auto apps = casestudy::all_apps();
  const casestudy::App& app = apps[static_cast<size_t>(state.range(0))];
  const control::SwitchedModes modes =
      control::switched_modes(app.plant, app.kt, app.ke);
  bool found = false;
  for (auto _ : state) {
    const linalg::CommonLyapunov cqlf =
        linalg::find_common_lyapunov(modes.a_tt, modes.a_et);
    benchmark::DoNotOptimize(cqlf);
    found = cqlf.found;
  }
  state.counters["found"] = found ? 1.0 : 0.0;
  state.SetLabel(app.name);
}
BENCHMARK(BM_CqlfSearch)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

void BM_SwitchingStability(benchmark::State& state) {
  const auto apps = casestudy::all_apps();
  const casestudy::App& app = apps[static_cast<size_t>(state.range(0))];
  bool found = false;
  for (auto _ : state) {
    const control::SwitchingStability s =
        control::check_switching_stability(app.plant, app.kt, app.ke);
    benchmark::DoNotOptimize(s);
    found = s.common_lyapunov;
  }
  state.counters["found"] = found ? 1.0 : 0.0;
  state.SetLabel(app.name);
}
BENCHMARK(BM_SwitchingStability)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

}  // namespace

TTDIM_BENCH_MAIN(report)

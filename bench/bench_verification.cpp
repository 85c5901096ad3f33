// Reproduces the "comments on verification time" study of paper Sec. 5:
// the cost of verifying slot partitions, and the speed-up from bounding
// the number of coinciding disturbance instances. The paper reports ~5 h
// for {C1,C5,C4,C3} in UPPAAL, cut to ~15 min (20x) by bounding; our
// engines are far faster in absolute terms (the discrete engine decides
// the same question exactly), so the artefact here is the relative cost
// across partitions, engines and bounds.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "verify/discrete.h"
#include "verify/ta_model.h"

namespace {

using namespace ttdim;
using Clock = std::chrono::steady_clock;

double run_discrete(const std::vector<verify::AppTiming>& apps, int bound,
                    bool* safe, long* states) {
  const verify::DiscreteVerifier v(apps);
  verify::DiscreteVerifier::Options opt;
  opt.max_disturbances_per_app = bound;
  const auto t0 = Clock::now();
  const verify::SlotVerdict verdict = v.verify(opt);
  const auto t1 = Clock::now();
  *safe = verdict.safe;
  *states = verdict.states_explored;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double run_zone(const std::vector<verify::AppTiming>& apps, int bound,
                bool* safe, long* states) {
  const verify::ZoneVerifier v(apps);
  verify::ZoneVerifier::Options opt;
  opt.max_disturbances_per_app = bound;
  opt.max_states = 5'000'000;
  const auto t0 = Clock::now();
  const verify::SlotVerdict verdict = v.verify(opt);
  const auto t1 = Clock::now();
  *safe = verdict.safe;
  *states = verdict.states_explored;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void report() {
  std::printf("==== Sec. 5, verification time: engines, partitions, "
              "disturbance bounds ====\n");
  const verify::AppTiming c1 = bench::timing_of(casestudy::c1());
  const verify::AppTiming c2 = bench::timing_of(casestudy::c2());
  const verify::AppTiming c3 = bench::timing_of(casestudy::c3());
  const verify::AppTiming c4 = bench::timing_of(casestudy::c4());
  const verify::AppTiming c5 = bench::timing_of(casestudy::c5());
  const verify::AppTiming c6 = bench::timing_of(casestudy::c6());

  struct Row {
    const char* partition;
    std::vector<verify::AppTiming> apps;
  };
  const std::vector<Row> rows{{"{C1,C5}", {c1, c5}},
                              {"{C6,C2}", {c6, c2}},
                              {"{C1,C5,C4}", {c1, c5, c4}},
                              {"{C1,C5,C4,C3}", {c1, c5, c4, c3}}};

  std::printf("%-16s %-10s %-8s %10s %12s %8s\n", "partition", "engine",
              "bound", "time (ms)", "states", "verdict");
  for (const Row& row : rows) {
    bool safe = false;
    long states = 0;
    for (int bound : {-1, 2, 1}) {
      const double ms = run_discrete(row.apps, bound, &safe, &states);
      std::printf("%-16s %-10s %-8s %10.1f %12ld %8s\n", row.partition,
                  "discrete", bound < 0 ? "inf" : std::to_string(bound).c_str(),
                  ms, states, safe ? "safe" : "unsafe");
    }
    // The zone engine is the UPPAAL-faithful model; only run it where its
    // state space stays tractable (pairs).
    if (row.apps.size() <= 2) {
      for (int bound : {1, 2}) {
        const double ms = run_zone(row.apps, bound, &safe, &states);
        std::printf("%-16s %-10s %-8d %10.1f %12ld %8s\n", row.partition,
                    "zone", bound, ms, states, safe ? "safe" : "unsafe");
      }
    }
  }

  // The paper's acceleration headline, re-enacted on the zone engine: for
  // {C1,C5} compare the (slow) high-budget model against the bounded one.
  bool safe = false;
  long states = 0;
  const double slow = run_zone({c1, c5}, 3, &safe, &states);
  const double fast = run_zone({c1, c5}, 1, &safe, &states);
  std::printf("\nzone-engine bounded-disturbance speed-up on {C1,C5}: "
              "budget 3 -> 1 gives %.1fx (paper: ~20x from bounding "
              "coinciding instances in UPPAAL)\n\n",
              slow / fast);
}

/// Attaches a proof's size and speed to the report: `states` expanded
/// per proof and `states_per_s` over the timed iterations.
void count_states(benchmark::State& state, long states) {
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_s"] =
      benchmark::Counter(static_cast<double>(states),
                         benchmark::Counter::kIsIterationInvariantRate);
}

/// One fresh serial proof of a case-study slot, in first-fit order.
void run_slot_proof(benchmark::State& state,
                    const std::vector<verify::AppTiming>& slot) {
  const verify::DiscreteVerifier v(slot);
  long states = 0;
  for (auto _ : state) {
    const verify::SlotVerdict verdict = v.verify();
    states = verdict.states_explored;
    benchmark::DoNotOptimize(verdict);
  }
  count_states(state, states);
}

void BM_DiscreteS1(benchmark::State& state) {
  run_slot_proof(state, {bench::timing_of(casestudy::c1()),
                         bench::timing_of(casestudy::c5()),
                         bench::timing_of(casestudy::c4()),
                         bench::timing_of(casestudy::c3())});
}
BENCHMARK(BM_DiscreteS1)->Unit(benchmark::kMillisecond);

void BM_DiscreteS2(benchmark::State& state) {
  run_slot_proof(state, {bench::timing_of(casestudy::c6()),
                         bench::timing_of(casestudy::c2())});
}
BENCHMARK(BM_DiscreteS2)->Unit(benchmark::kMillisecond);

void BM_DiscreteLarge(benchmark::State& state) {
  // The heap-key regime: 17 applications (past the dense code's 5 apps)
  // with staggered deadlines and a single-instance disturbance budget.
  // The full space is intractable — every state spawns ~2^16 disturbance
  // subsets — so the proof is budget-capped at 6 expansions: the root
  // (the all-steady state, whose
  // expansion seeds a ~300k-state level-1 frontier) plus five level-1
  // states, then the expected budget throw. That is exactly the
  // successor-generation + batched-probe hot loop the serial rewrite
  // targets. The argument is unused; it keeps the row's gated name,
  // BM_DiscreteLarge/1.
  std::vector<verify::AppTiming> apps;
  for (int i = 0; i < 17; ++i) {
    verify::AppTiming a;
    a.name = "L" + std::to_string(i);
    a.t_star_w = 2 + (i % 4);
    a.t_minus.assign(static_cast<size_t>(a.t_star_w) + 1, 1);
    a.t_plus.assign(static_cast<size_t>(a.t_star_w) + 1, 1);
    a.min_interarrival = 8;
    apps.push_back(std::move(a));
  }
  const verify::DiscreteVerifier v(apps);
  verify::DiscreteVerifier::Options opt;
  opt.max_disturbances_per_app = 1;
  opt.max_states = 6;
  long exhausted = 0;
  for (auto _ : state) {
    try {
      benchmark::DoNotOptimize(v.verify(opt));
    } catch (const std::runtime_error&) {
      ++exhausted;  // the expected outcome: the budget caps the proof
    }
  }
  state.SetLabel(std::to_string(exhausted) + " budget-capped");
  count_states(state, opt.max_states);  // each capped proof expands 6
}
BENCHMARK(BM_DiscreteLarge)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ZonePair(benchmark::State& state) {
  const std::vector<verify::AppTiming> pair{
      bench::timing_of(casestudy::c1()), bench::timing_of(casestudy::c5())};
  const verify::ZoneVerifier v(pair);
  verify::ZoneVerifier::Options opt;
  opt.max_disturbances_per_app = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.verify(opt));
  }
  state.SetLabel("budget " + std::to_string(state.range(0)));
}
BENCHMARK(BM_ZonePair)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

TTDIM_BENCH_MAIN(report)

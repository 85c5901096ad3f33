// Batch-dimensioning throughput: many independent systems dimensioned
// concurrently by engine::BatchRunner. The report runs a 32-system batch
// at 1/2/4/8 threads, checks the results are byte-identical across thread
// counts (determinism is the contract that makes the parallelism free),
// and prints the wall-clock speedup. Speedup is bounded by the machine's
// core count — on an N-core box expect ~min(threads, N)x, near-linear
// until the cores run out.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/dimensioning.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/batch_runner.h"
#include "engine/cache/disk_cache.h"
#include "engine/fingerprint.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"

namespace {

using namespace ttdim;

std::vector<engine::BatchJob> make_batch(int systems) {
  // Heterogeneous single-app systems derived from the paper's cruise
  // controller: the inter-arrival sweep changes each system's timing
  // abstraction (and therefore its fingerprint) without exploding the
  // per-system analysis cost.
  std::vector<engine::BatchJob> jobs;
  const casestudy::App base = casestudy::c6();
  for (int i = 0; i < systems; ++i) {
    engine::BatchJob job;
    core::AppSpec spec{base.name + "_" + std::to_string(i), base.plant,
                       base.kt, base.ke, 40 + 5 * (i % 16),
                       base.settling_requirement};
    job.specs = {spec};
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string batch_fingerprint(const std::vector<engine::BatchOutcome>& out) {
  std::string fp;
  for (const engine::BatchOutcome& o : out)
    fp += o.ok() ? engine::fingerprint(*o.solution) : ("error: " + o.error);
  return fp;
}

void report() {
  constexpr int kSystems = 32;
  std::printf("==== batch dimensioning: %d independent systems ====\n",
              kSystems);
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());
  const std::vector<engine::BatchJob> jobs = make_batch(kSystems);

  double serial_seconds = 0.0;
  std::string serial_fp;
  bool all_identical = true;
  std::printf("%8s %12s %9s  %s\n", "threads", "wall [s]", "speedup",
              "results");
  for (int threads : {1, 2, 4, 8}) {
    const engine::BatchRunner runner(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const engine::BatchReport report = runner.run(jobs);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::string fp = batch_fingerprint(report.outcomes);
    if (threads == 1) {
      serial_seconds = seconds;
      serial_fp = fp;
    }
    const bool identical = fp == serial_fp;
    all_identical = all_identical && identical;
    std::printf("%8d %12.2f %8.2fx  %s\n", threads, seconds,
                serial_seconds / seconds,
                identical ? "identical to 1-thread" : "MISMATCH");
    if (threads == 1)
      std::printf("         aggregate: %s\n", report.summary().c_str());
  }
  std::printf("\nresults across thread counts: %s\n\n",
              all_identical ? "byte-identical" : "MISMATCH (bug!)");
  // CI runs this report as a determinism gate; a mismatch must fail the
  // process, not just print.
  if (!all_identical) std::exit(1);
}

std::vector<core::AppSpec> case_study_specs() {
  std::vector<core::AppSpec> specs;
  for (const casestudy::App& app : casestudy::all_apps())
    specs.push_back({app.name, app.plant, app.kt, app.ke,
                     app.min_interarrival, app.settling_requirement});
  return specs;
}

void BM_CaseStudySolveAnalysisWarm(benchmark::State& state) {
  // The analysis tier in isolation: a shared AnalysisCache warmed by one
  // solve, every other cache private and cold per iteration — so the
  // measured solves answer all six per-app stability/dwell analyses from
  // the cache (~microseconds) but still prove the mapping fresh. The
  // gap to BM_CaseStudySolve is the memoized ~stability+dwell cost.
  const std::vector<core::AppSpec> specs = case_study_specs();
  core::SolveOptions options;
  options.analysis_cache = std::make_shared<engine::analysis::AnalysisCache>();
  benchmark::DoNotOptimize(core::solve(specs, options));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(specs, options));
  }
}
BENCHMARK(BM_CaseStudySolveAnalysisWarm)->Unit(benchmark::kMillisecond);

void BM_CaseStudySolveSubsumptionWarm(benchmark::State& state) {
  // The cross-config subsumption tier: all caches shared and warmed by
  // one solve of the full six-app case study, then the measured solve is
  // the five-app variant without C6 — a system whose first-fit probes
  // were never posed exactly, so the exact tier misses, yet every probe
  // is answered by multiset inclusion against the proven populations
  // (subset of a safe slot, superset of the refuted one): the whole
  // mapping phase runs with zero verifier BFS. The SolveStats
  // subsumption counters printed after the timing loop are the
  // fewer-fresh-proofs acceptance evidence.
  const std::vector<core::AppSpec> specs = case_study_specs();
  std::vector<core::AppSpec> five = specs;
  five.pop_back();  // drop C6
  core::SolveOptions options;
  options.verdict_cache = std::make_shared<engine::oracle::VerdictCache>();
  options.snapshot_cache = std::make_shared<engine::oracle::SnapshotCache>();
  options.analysis_cache = std::make_shared<engine::analysis::AnalysisCache>();
  benchmark::DoNotOptimize(core::solve(specs, options));  // warm all caches
  engine::oracle::SolveStats last;
  for (auto _ : state) {
    const core::Solution solution = core::solve(five, options);
    last = solution.stats;
    benchmark::DoNotOptimize(&solution);
  }
  state.counters["subsumption_hits"] =
      static_cast<double>(last.subsumption_hits);
  state.counters["subsumption_cuts"] =
      static_cast<double>(last.subsumption_cuts);
  // cache_misses counts every verifier run (prefix-seeded AND from
  // scratch); subtracting prefix_hits leaves the true fresh-BFS count.
  state.counters["verifier_runs"] = static_cast<double>(last.cache_misses);
  state.counters["fresh_bfs"] =
      static_cast<double>(last.cache_misses - last.prefix_hits);
}
BENCHMARK(BM_CaseStudySolveSubsumptionWarm)->Unit(benchmark::kMillisecond);

void BM_CaseStudySolveDiskWarm(benchmark::State& state) {
  // The persistent tier in restart-warm isolation: one solve populates a
  // disk cache directory, then every measured iteration builds *fresh*
  // SolveOptions whose only non-default field is the shared DiskCache —
  // private cold memory caches, so every analysis result and admission
  // verdict is answered by the disk tier exactly as a restarted process
  // (or a CI run restoring the directory) would see it. The counters
  // printed after the loop are the zero-recompute acceptance evidence.
  namespace fs = std::filesystem;
  const std::vector<core::AppSpec> specs = case_study_specs();
  const fs::path dir =
      fs::temp_directory_path() / "ttdim-bench-disk-cache";
  fs::remove_all(dir);
  const auto disk =
      std::make_shared<engine::cache::DiskCache>(dir.string());
  {
    core::SolveOptions warm;
    warm.disk_cache = disk;
    benchmark::DoNotOptimize(core::solve(specs, warm));  // populate disk
  }
  engine::oracle::SolveStats last;
  for (auto _ : state) {
    core::SolveOptions options;  // fresh private memory caches each time
    options.disk_cache = disk;
    const core::Solution solution = core::solve(specs, options);
    last = solution.stats;
    benchmark::DoNotOptimize(&solution);
  }
  state.counters["disk_hits"] = static_cast<double>(last.disk_hits);
  state.counters["analysis_misses"] =
      static_cast<double>(last.analysis_misses);
  state.counters["verifier_runs"] = static_cast<double>(last.cache_misses);
  fs::remove_all(dir);
}
BENCHMARK(BM_CaseStudySolveDiskWarm)->Unit(benchmark::kMillisecond);

void BM_BatchSolve(benchmark::State& state) {
  const std::vector<engine::BatchJob> jobs =
      make_batch(static_cast<int>(state.range(1)));
  const engine::BatchRunner runner(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(jobs).outcomes);
  }
}
BENCHMARK(BM_BatchSolve)
    ->Args({1, 8})
    ->Args({4, 8})
    ->Args({8, 8})
    ->Unit(benchmark::kSecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace

TTDIM_BENCH_MAIN(report)

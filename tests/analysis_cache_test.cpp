// The content-addressed analysis layer (engine/analysis): key
// canonicalization (equal inputs collide, perturbed inputs never, the
// Table-1 keys keep their bytes), byte-budgeted LRU eviction, concurrent
// access, and the property the whole layer rests on — cached analysis
// results being bit-identical to freshly computed ones, from single apps
// up to whole solve fingerprints (serial and parallel).
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "casestudy/apps.h"
#include "control/design.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/analysis/app_analysis.h"
#include "engine/batch_runner.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"

namespace ttdim::engine::analysis {
namespace {

AppAnalysisSpec spec_for(const casestudy::App& app) {
  AppAnalysisSpec spec;
  spec.dwell.settling_requirement = app.settling_requirement;
  spec.dwell.settling = control::SettlingSpec{casestudy::kSettlingTol, 3000};
  return spec;
}

AppAnalysisKey key_for(const casestudy::App& app) {
  return AppAnalysisKey::of(app.plant, app.kt, app.ke, spec_for(app));
}

// ------------------------------------------------------------------ keys --

TEST(AppAnalysisKey, EqualInputsCollideHoweverConstructed) {
  // Same dynamics assembled through different code paths (the factory vs
  // an entry-by-entry rebuild) must produce one key: the cache is
  // content-addressed, not identity-addressed.
  const casestudy::App app = casestudy::c6();
  const AppAnalysisKey original = key_for(app);

  control::Matrix phi(app.plant.phi().rows(), app.plant.phi().cols());
  for (linalg::Index r = 0; r < phi.rows(); ++r)
    for (linalg::Index c = 0; c < phi.cols(); ++c)
      phi(r, c) = app.plant.phi()(r, c);
  const control::DiscreteLti rebuilt(phi, app.plant.gamma(), app.plant.c(),
                                     app.plant.h());
  const AppAnalysisKey copy =
      AppAnalysisKey::of(rebuilt, app.kt, app.ke, spec_for(app));
  EXPECT_EQ(original, copy);
  EXPECT_EQ(original.hash, copy.hash);

  // Name and disturbance inter-arrival are not analysis inputs — they are
  // deliberately absent from the key, so re-rated apps share an entry.
  casestudy::App renamed = app;
  renamed.name = "another_name";
  renamed.min_interarrival += 17;
  EXPECT_EQ(original, key_for(renamed));
}

TEST(AppAnalysisKey, PerturbedInputsNeverCollide) {
  const casestudy::App app = casestudy::c6();
  const AppAnalysisKey original = key_for(app);

  {  // one-ulp plant perturbation
    control::Matrix phi = app.plant.phi();
    phi(0, 0) = std::nextafter(phi(0, 0), 2.0);
    const control::DiscreteLti perturbed(phi, app.plant.gamma(),
                                         app.plant.c(), app.plant.h());
    EXPECT_NE(original,
              AppAnalysisKey::of(perturbed, app.kt, app.ke, spec_for(app)));
  }
  {  // gain perturbation
    control::Matrix kt = app.kt;
    kt(0, 0) = std::nextafter(kt(0, 0), 1e9);
    EXPECT_NE(original,
              AppAnalysisKey::of(app.plant, kt, app.ke, spec_for(app)));
  }
  {  // every spec parameter is key-relevant
    AppAnalysisSpec spec = spec_for(app);
    spec.dwell.settling_requirement += 1;
    EXPECT_NE(original, AppAnalysisKey::of(app.plant, app.kt, app.ke, spec));
    spec = spec_for(app);
    spec.dwell.tw_granularity = 2;
    EXPECT_NE(original, AppAnalysisKey::of(app.plant, app.kt, app.ke, spec));
    spec = spec_for(app);
    spec.dwell.settling.horizon += 1;
    EXPECT_NE(original, AppAnalysisKey::of(app.plant, app.kt, app.ke, spec));
    spec = spec_for(app);
    spec.dwell.settling.abs_tol =
        std::nextafter(spec.dwell.settling.abs_tol, 1.0);
    EXPECT_NE(original, AppAnalysisKey::of(app.plant, app.kt, app.ke, spec));
    spec = spec_for(app);
    spec.stop_on_unstable = false;
    EXPECT_NE(original, AppAnalysisKey::of(app.plant, app.kt, app.ke, spec));
  }
}

TEST(AppAnalysisKey, TableOneKeysAreByteStable) {
  // Persisted analysis entries are addressed by these hashes (a restored
  // disk-cache directory must stay warm), so the key's bytes may not
  // drift. The spec is the one a default-options solve derives.
  const core::SolveOptions defaults;
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"C1", 0xce3c008b571f40ecull}, {"C2", 0x3d115c3c43342fe0ull},
      {"C3", 0xb514b19cebc2ea9eull}, {"C4", 0xa9a4ed967fbf3728ull},
      {"C5", 0x2a8e4ce192450bd2ull}, {"C6", 0x18053291416f4202ull},
  };
  const std::vector<casestudy::App> apps = casestudy::all_apps();
  ASSERT_EQ(apps.size(), std::size(expected));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const casestudy::App& app = apps[i];
    AppAnalysisSpec spec;
    spec.dwell.settling_requirement = app.settling_requirement;
    spec.dwell.settling = defaults.settling;
    spec.dwell.tw_granularity = defaults.tw_granularity;
    spec.stop_on_unstable = defaults.require_switching_stability;
    EXPECT_EQ(app.name, expected[i].first);
    EXPECT_EQ(AppAnalysisKey::of(app.plant, app.kt, app.ke, spec).hash,
              expected[i].second)
        << app.name;
  }
}

// ----------------------------------------------------------------- cache --

AppAnalysisResult result_of(int entries) {
  AppAnalysisResult result;
  result.tables_computed = true;
  result.tables.t_star_w = entries - 1;
  result.tables.t_minus.assign(static_cast<size_t>(entries), 1);
  result.tables.t_plus.assign(static_cast<size_t>(entries), 2);
  result.tables.settling_at_minus.assign(static_cast<size_t>(entries), 3);
  result.tables.settling_at_plus.assign(static_cast<size_t>(entries), 4);
  return result;
}

AppAnalysisKey key_of_requirement(int settling_requirement) {
  const casestudy::App app = casestudy::c6();
  AppAnalysisSpec spec = spec_for(app);
  spec.dwell.settling_requirement = settling_requirement;
  return AppAnalysisKey::of(app.plant, app.kt, app.ke, spec);
}

TEST(AnalysisCache, EvictsLeastRecentlyUsedPastByteBudget) {
  AnalysisCache cache(4096);
  const AppAnalysisKey k1 = key_of_requirement(101);
  const AppAnalysisKey k2 = key_of_requirement(102);
  const AppAnalysisKey k3 = key_of_requirement(103);
  cache.insert(k1, result_of(90));  // ~1.4 KB + key/bookkeeping
  cache.insert(k2, result_of(90));
  ASSERT_NE(cache.lookup(k1), nullptr);  // k1 now most recent
  cache.insert(k3, result_of(90));       // past budget -> evicts k2
  EXPECT_EQ(cache.lookup(k2), nullptr);
  EXPECT_NE(cache.lookup(k1), nullptr);
  EXPECT_NE(cache.lookup(k3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().bytes, cache.stats().byte_budget);
}

TEST(AnalysisCache, OversizedResultIsDroppedNotInserted) {
  AnalysisCache cache(1024);
  const AppAnalysisKey key = key_of_requirement(104);
  cache.insert(key, result_of(10'000));  // ~160 KB >> budget
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(AnalysisCache, EvictionNeverInvalidatesAHandedOutResult) {
  AnalysisCache cache(4096);
  const AppAnalysisKey k1 = key_of_requirement(105);
  cache.insert(k1, result_of(90));
  const std::shared_ptr<const AppAnalysisResult> held = cache.lookup(k1);
  ASSERT_NE(held, nullptr);
  cache.insert(key_of_requirement(106), result_of(120));  // evicts k1
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_EQ(held->tables.entries(), 90);  // still alive for the holder
  cache.clear();
  EXPECT_EQ(held->tables.entries(), 90);
}

TEST(AnalysisCache, ConcurrentHitsMissesAndStatsAreClean) {
  // Hammered from several threads (the TSan job runs this suite): mixed
  // lookups, inserts into a budget small enough to force evictions, and
  // stats snapshots must all be race-free.
  AnalysisCache cache(16 * 1024);
  constexpr int kThreads = 4;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int op = 0; op < kOps; ++op) {
        const AppAnalysisKey key = key_of_requirement(200 + (t + op) % 23);
        if (const auto hit = cache.lookup(key)) {
          ASSERT_TRUE(hit->tables_computed);
        } else {
          cache.insert(key, result_of(40 + (t + op) % 7));
        }
        if (op % 64 == 0) static_cast<void>(cache.stats());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const AnalysisCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<long>(kThreads) * kOps);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.insertions, 0);
  EXPECT_LE(stats.bytes, stats.byte_budget);
}

// -------------------------------------------------- analyze_app (cached) --

TEST(AppAnalysis, CachedResultBitIdenticalToFresh) {
  const casestudy::App app = casestudy::c6();
  const AppAnalysisSpec spec = spec_for(app);
  const AppAnalysisOutcome fresh =
      analyze_app(app.plant, app.kt, app.ke, spec, nullptr);
  EXPECT_FALSE(fresh.cache_hit);
  ASSERT_TRUE(fresh.result->tables_computed);
  EXPECT_GT(fresh.stability_ms + fresh.dwell_ms, 0.0);

  AnalysisCache cache;
  const AppAnalysisOutcome miss =
      analyze_app(app.plant, app.kt, app.ke, spec, &cache);
  const AppAnalysisOutcome hit =
      analyze_app(app.plant, app.kt, app.ke, spec, &cache);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.stability_ms, 0.0);
  EXPECT_EQ(hit.dwell_ms, 0.0);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // The layer's soundness: fresh, miss-computed and cache-served results
  // serialize to the same bytes — certificates included.
  std::string a, b, c;
  fresh.result->append_canonical(a);
  miss.result->append_canonical(b);
  hit.result->append_canonical(c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a.empty());
}

TEST(AppAnalysis, StopOnUnstableCachesTheStabilityOnlyResult) {
  // The Sec. 3.1 unstable pair: under stop_on_unstable the analysis
  // never computes dwell tables, and that shape is what gets cached
  // (the flag is part of the key, so it cannot leak to callers that do
  // want tables).
  const casestudy::App c1 = casestudy::c1();
  AppAnalysisSpec spec = spec_for(c1);
  spec.stop_on_unstable = true;
  AnalysisCache cache;
  const AppAnalysisOutcome cold = analyze_app(
      casestudy::dc_motor_position_plant(), c1.kt, casestudy::ke_unstable(),
      spec, &cache);
  EXPECT_FALSE(cold.result->stability.switching_stable());
  EXPECT_FALSE(cold.result->tables_computed);
  EXPECT_EQ(cold.result->tables.entries(), 0);
  const AppAnalysisOutcome warm = analyze_app(
      casestudy::dc_motor_position_plant(), c1.kt, casestudy::ke_unstable(),
      spec, &cache);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.result->tables_computed);
}

// --------------------------------------------- solve-level (end-to-end) --

core::AppSpec spec_of(const casestudy::App& app, int min_interarrival) {
  return core::AppSpec{app.name + "_r" + std::to_string(min_interarrival),
                       app.plant,
                       app.kt,
                       app.ke,
                       min_interarrival,
                       app.settling_requirement};
}

/// Three same-plant apps differing only in inter-arrival: cheap to
/// analyse, non-trivial to map — and all three share one analysis key.
std::vector<core::AppSpec> three_app_system() {
  const casestudy::App app = casestudy::c6();
  return {spec_of(app, 60), spec_of(app, 80), spec_of(app, 100)};
}

TEST(AnalysisSolve, SerialAndParallelFingerprintIdentically) {
  // The acceptance property: byte-identical fingerprints serial and
  // with a thread budget (proof_threads 4). Cache-versus-fresh bit
  // identity is pinned at the analyze_app level
  // (AppAnalysis.CachedResultBitIdenticalToFresh).
  const std::vector<core::AppSpec> specs = three_app_system();
  core::SolveOptions serial;  // private analysis cache
  core::SolveOptions parallel = serial;
  parallel.proof_threads = 4;

  const core::Solution a = core::solve(specs, serial);
  const core::Solution b = core::solve(specs, parallel);
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  // Within one solve the three same-plant apps share one entry: the
  // first analysis misses, the other two hit even with a private cache.
  EXPECT_EQ(a.stats.analysis_misses, 1);
  EXPECT_EQ(a.stats.analysis_hits, 2);
}

TEST(AnalysisSolve, FirstFailingAppInInputOrderThrowsAtEveryThreadCount) {
  // Apps 1 and 3 are unmeetable for different reasons; whatever the
  // thread budget, the solve reports app 1's — the analysis stage walks
  // the apps in input order and fails fast.
  std::vector<core::AppSpec> specs = three_app_system();
  specs.push_back(spec_of(casestudy::c6(), 120));
  specs[1].settling_requirement = 0;
  specs[3].settling_requirement = 1;
  const auto error_of = [](const std::vector<core::AppSpec>& population,
                           int threads) -> std::string {
    core::SolveOptions options;
    options.proof_threads = threads;
    try {
      static_cast<void>(core::solve(population, options));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  ASSERT_NE(error_of({specs[3]}, 1).find("J* < JT"), std::string::npos);
  for (int threads : {1, 4}) {
    const std::string error = error_of(specs, threads);
    EXPECT_NE(error.find("J* must be positive"), std::string::npos)
        << threads << " threads: " << error;
  }
}

TEST(AnalysisSolve, SharedCacheSkipsTheAnalysisPhaseAcrossSolves) {
  const std::vector<core::AppSpec> specs = three_app_system();
  const auto cache = std::make_shared<AnalysisCache>();
  core::SolveOptions options;
  options.analysis_cache = cache;
  const core::Solution cold = core::solve(specs, options);
  const core::Solution warm = core::solve(specs, options);
  EXPECT_EQ(fingerprint(cold), fingerprint(warm));

  // The warm solve answered every app from the shared cache: no cold
  // compute time at all, and a phase wall time far below the cold one.
  EXPECT_EQ(warm.stats.analysis_hits, 3);
  EXPECT_EQ(warm.stats.analysis_misses, 0);
  EXPECT_EQ(warm.stats.stability_ms, 0.0);
  EXPECT_EQ(warm.stats.dwell_ms, 0.0);
  EXPECT_GT(cold.stats.stability_ms + cold.stats.dwell_ms, 0.0);
  EXPECT_LT(warm.stats.analysis_ms, cold.stats.analysis_ms);
  EXPECT_EQ(cache->stats().insertions, 1);
}

}  // namespace
}  // namespace ttdim::engine::analysis

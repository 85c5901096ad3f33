// Cross-process warm start through the persistent disk cache
// (engine/cache/disk_cache.h). Solves the six-application case study
// three times — without any disk tier (the reference), with the disk
// tier (pass A), and through a fresh DiskCache handle over the directory
// pass A just wrote (pass B, an in-process restart) — and requires
// byte-identical fingerprints throughout. Pass B must also answer
// everything from the directory: zero analysis misses, zero verifier
// runs, on every run.
//
// CI runs this binary twice against a persisted directory:
//   pass 1 (cold):  ./build/warm_start --cache-dir DIR
//   pass 2 (warm):  ./build/warm_start --cache-dir DIR --expect-warm
// The second pass is a fresh process; --expect-warm asserts that the
// restored directory alone answers pass A too — zero analysis misses,
// zero verifier runs, at least one disk hit.
//
// Exit codes: 0 ok, 1 fingerprint mismatch or warm assertion failure,
// 2 usage.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "casestudy/apps.h"
#include "core/dimensioning.h"
#include "engine/cache/disk_cache.h"
#include "engine/fingerprint.h"

namespace {

void print_stats(const char* label, const ttdim::core::Solution& solution) {
  std::printf("%s\n  %s\n", label, solution.stats.summary().c_str());
}

void print_disk(const ttdim::engine::cache::DiskCache& disk) {
  const ttdim::engine::cache::DiskCacheStats s = disk.stats();
  std::printf(
      "disk cache %s\n  %ld hits, %ld misses, %ld corrupt, %ld writes, "
      "%ld trims, %zu / %zu bytes\n",
      disk.directory().c_str(), s.hits, s.misses, s.corrupt, s.writes,
      s.trims, s.bytes, s.byte_budget);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ttdim;

  std::string cache_dir = engine::cache::DiskCache::kDefaultDirName;
  bool expect_warm = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--expect-warm") == 0) {
      expect_warm = true;
    } else {
      std::fprintf(stderr, "usage: %s [--cache-dir DIR] [--expect-warm]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<core::AppSpec> specs;
  for (const casestudy::App& app : casestudy::all_apps())
    specs.push_back({app.name, app.plant, app.kt, app.ke,
                     app.min_interarrival, app.settling_requirement});

  // Reference: no persistence anywhere. Everything below must match it
  // byte for byte (engine::fingerprint excludes measurement).
  std::printf("reference solve (no disk tier)...\n");
  const core::Solution reference = core::solve(specs);
  const std::string fp_reference = engine::fingerprint(reference);
  print_stats("reference", reference);

  int rc = 0;
  const auto require = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      rc = 1;
    }
  };

  // Pass A: analysis + verdict spaces only. Cold on a fresh directory,
  // fully warm on a restored one (that is what --expect-warm asserts).
  std::printf("\nsolve with disk tier at %s...\n", cache_dir.c_str());
  const auto disk = std::make_shared<engine::cache::DiskCache>(cache_dir);
  core::SolveOptions with_disk;
  with_disk.disk_cache = disk;
  const core::Solution a = core::solve(specs, with_disk);
  print_stats("disk tier", a);
  require(engine::fingerprint(a) == fp_reference,
          "disk-tier fingerprint differs from the reference");

  // Pass B: a fresh DiskCache instance over the same directory (the
  // in-process analogue of a process restart). Pass A has just written
  // every analysis and verdict it needed, so pass B is warm on every
  // run, cold directory or restored.
  std::printf("\nsolve over a fresh handle to the same directory...\n");
  core::SolveOptions restart;
  restart.disk_cache = std::make_shared<engine::cache::DiskCache>(cache_dir);
  const core::Solution b = core::solve(specs, restart);
  print_stats("fresh handle", b);
  require(engine::fingerprint(b) == fp_reference,
          "fresh-handle fingerprint differs from the reference");
  require(b.stats.analysis_misses == 0,
          "fresh-handle solve recomputed an analysis");
  require(b.stats.cache_misses == 0, "fresh-handle solve ran the verifier");

  print_disk(*disk);
  print_disk(*restart.disk_cache);

  if (expect_warm) {
    require(a.stats.analysis_misses == 0,
            "--expect-warm: disk-tier solve recomputed an analysis");
    require(a.stats.cache_misses == 0,
            "--expect-warm: disk-tier solve ran the verifier");
    require(a.stats.disk_hits > 0,
            "--expect-warm: disk-tier solve never hit the directory");
  }

  std::printf("\n%s\n", rc == 0 ? "OK" : "FAILED");
  return rc;
}

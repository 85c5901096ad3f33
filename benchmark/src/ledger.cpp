// Traced run: the per-layer ledger. A prefix of the workload is replayed
// twice — untraced through the public entry point (core::solve or
// DimensioningSession::redimension), then traced — and the two must
// produce the same solutions. The traced solve is rebuilt from the
// library's public stage functions (analyze_app, paper_sort_order,
// first_fit over an IncrementalAdmissionOracle, the [9] baselines), with
// a span around each stage and each admission probe; a redimension is
// one span whose stage children are placed from its SolveStats phase
// times. Layers the replay does not exercise, or cannot see from
// outside, are timed standalone on the workload's own inputs.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "control/design.h"
#include "control/lti.h"
#include "control/sim.h"
#include "engine/fingerprint.h"
#include "engine/oracle/incremental_oracle.h"
#include "engine/oracle/slot_config_key.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "engine/parallel_for.h"
#include "linalg/lyap.h"
#include "mapping/first_fit.h"
#include "sched/baseline.h"
#include "support/codec.h"
#include "switching/dwell.h"
#include "trace.h"
#include "workloads.h"

namespace bench {

namespace {

using engine::oracle::IncrementalAdmissionOracle;

enum Tier { kExact, kSubsumption, kPrefix, kFresh, kTiers };
constexpr const char* kTierName[kTiers] = {"exact", "subsumption", "prefix",
                                           "fresh"};
constexpr const char* kDeltaKinds[] = {"remove", "rerate", "add"};

/// Operations the traced run replays per workload: a fixed prefix, so
/// that its count metrics repeat exactly.
long prefix_ops(Workload w) {
  switch (w) {
    case Workload::kCold: return 10;
    case Workload::kRemap: return 50;
    case Workload::kChurn: return 3;  // walks
    case Workload::kRestart: return 5000;
  }
  return 1;
}

struct OracleCounts {
  long exact = 0, subsumption = 0, prefix = 0;
};

OracleCounts counts_of(const IncrementalAdmissionOracle& oracle) {
  return {oracle.exact_hits(),
          oracle.subsumption_hits() + oracle.subsumption_cuts(),
          oracle.prefix_hits()};
}

/// The tier that answered one probe, from the oracle's counter deltas.
Tier classify(const OracleCounts& before, const OracleCounts& after) {
  if (after.exact > before.exact) return kExact;
  if (after.subsumption > before.subsumption) return kSubsumption;
  if (after.prefix > before.prefix) return kPrefix;
  return kFresh;
}

struct Ledger {
  long ops = 0;
  long probes = 0;
  long tier_count[kTiers] = {};
  std::vector<double> probe_ms[kTiers];
  long analysis_hits = 0;
  long analysis_misses = 0;
  long states = 0;
  long reused = 0;
  double snapshot_bytes = 0.0;
  std::vector<double> baseline_ms;
  std::vector<double> redimension_ms[3];
  long redimension_events = 0;
  long redimension_proofs = 0;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  /// Solutions the standalone layer probes run on.
  std::vector<core::Solution> samples;
};

/// The caches one staged solve uses: the options' own, and private ones
/// where the options leave a cache unset (as DimensioningSession does).
struct StageCaches {
  std::shared_ptr<engine::analysis::AnalysisCache> analysis;
  std::shared_ptr<engine::oracle::VerdictCache> verdicts;
  std::shared_ptr<engine::oracle::SnapshotCache> snapshots;
  std::shared_ptr<engine::cache::DiskCache> disk;
};

StageCaches caches_for(const core::SolveOptions& options) {
  StageCaches caches;
  caches.analysis = options.analysis_cache
                        ? options.analysis_cache
                        : std::make_shared<engine::analysis::AnalysisCache>();
  caches.verdicts = options.verdict_cache
                        ? options.verdict_cache
                        : std::make_shared<engine::oracle::VerdictCache>();
  caches.snapshots = options.snapshot_cache
                         ? options.snapshot_cache
                         : std::make_shared<engine::oracle::SnapshotCache>();
  caches.disk = options.disk_cache;
  return caches;
}

verify::DiscreteVerifier::Options verifier_options(
    const core::SolveOptions& options) {
  verify::DiscreteVerifier::Options vopt;
  vopt.max_disturbances_per_app = options.max_disturbances_per_app;
  vopt.policy = options.policy;
  vopt.proof_threads = engine::resolve_threads(options.proof_threads);
  return vopt;
}

/// The two [9] baseline mappings, as the session's baseline stage
/// computes them.
void assign_baselines(core::Solution& solution,
                      const std::vector<verify::AppTiming>& timings,
                      const std::vector<int>& order) {
  std::vector<sched::BaselineApp> apps;
  for (const core::AppSolution& app : solution.apps)
    apps.push_back(
        sched::make_baseline_app(app.timing, app.tables.settling_tt));
  const auto oracle = [&](sched::BaselineStrategy strategy) {
    return [&apps, &timings, strategy](
               const std::vector<verify::AppTiming>& slot_apps) {
      std::vector<sched::BaselineApp> members;
      for (const verify::AppTiming& t : slot_apps) {
        const auto it = std::find_if(
            timings.begin(), timings.end(),
            [&t](const verify::AppTiming& x) { return x.name == t.name; });
        members.push_back(apps[static_cast<std::size_t>(it - timings.begin())]);
      }
      return sched::analyze_baseline_slot(members, strategy).schedulable;
    };
  };
  solution.baseline_np = mapping::first_fit(
      timings, order, oracle(sched::BaselineStrategy::kNonPreemptiveDm));
  solution.baseline_delayed = mapping::first_fit(
      timings, order, oracle(sched::BaselineStrategy::kDelayedRequests));
}

/// core::solve rebuilt from the public stage functions, traced.
core::Solution staged_solve(const std::vector<core::AppSpec>& specs,
                            const core::SolveOptions& options,
                            const StageCaches& caches, Tracer& tracer, long op,
                            Ledger& ledger) {
  const SpanScope op_span(tracer, "core.solve", op);
  core::Solution solution;
  {
    const SpanScope span(tracer, "engine.analysis", op);
    for (const core::AppSpec& spec : specs) {
      const engine::analysis::AppAnalysisOutcome outcome =
          engine::analysis::analyze_app(spec.plant, spec.kt, spec.ke,
                                        analysis_spec(spec),
                                        caches.analysis.get(), 1,
                                        caches.disk.get());
      ++(outcome.cache_hit ? ledger.analysis_hits : ledger.analysis_misses);
      core::AppSolution app{spec, outcome.result->tables,
                            verify::make_app_timing(spec.name,
                                                    outcome.result->tables,
                                                    spec.min_interarrival),
                            outcome.result->stability};
      if (!app.stability.switching_stable() || !app.tables.feasible())
        throw std::invalid_argument("staged solve: " + spec.name +
                                    " fails its analysis");
      solution.apps.push_back(std::move(app));
    }
  }
  std::vector<verify::AppTiming> timings;
  for (const core::AppSolution& app : solution.apps)
    timings.push_back(app.timing);
  std::vector<int> order;
  {
    const SpanScope span(tracer, "mapping", op);
    order = mapping::paper_sort_order(timings);
    const IncrementalAdmissionOracle oracle(
        verifier_options(options), caches.verdicts, caches.snapshots,
        options.subsumption_admission, caches.disk);
    const mapping::SlotOracle probe =
        [&](const std::vector<verify::AppTiming>& apps) {
          const OracleCounts before = counts_of(oracle);
          const int id = tracer.begin("engine.oracle", op);
          const Clock::time_point start = Clock::now();
          const bool admitted = oracle.admit(apps);
          const double ms = ms_since(start);
          tracer.end(id);
          const Tier tier = classify(before, counts_of(oracle));
          tracer.rename(id, std::string("engine.oracle.") + kTierName[tier]);
          ++ledger.probes;
          ++ledger.tier_count[tier];
          ledger.probe_ms[tier].push_back(ms);
          return admitted;
        };
    solution.proposed = mapping::first_fit(timings, order, probe);
    ledger.states += oracle.states_explored();
    ledger.reused += oracle.states_reused();
    ledger.snapshot_bytes =
        std::max(ledger.snapshot_bytes,
                 static_cast<double>(caches.snapshots->stats().bytes));
  }
  {
    const SpanScope span(tracer, "sched.baselines", op);
    const Clock::time_point start = Clock::now();
    assign_baselines(solution, timings, order);
    ledger.baseline_ms.push_back(ms_since(start));
  }
  return solution;
}

std::uint64_t fingerprint_hash(const core::Solution& solution) {
  return engine::oracle::fnv1a(engine::fingerprint(solution));
}

/// Times one redimension and books it under its delta kind.
core::Solution timed_redimension(core::DimensioningSession& session,
                                 const core::Delta& delta, Ledger& ledger) {
  const Clock::time_point start = Clock::now();
  core::Solution next = session.redimension(delta);
  const double ms = ms_since(start);
  const std::string kind = delta_kind(delta);
  for (int k = 0; k < 3; ++k)
    if (kind == kDeltaKinds[k]) ledger.redimension_ms[k].push_back(ms);
  ++ledger.redimension_events;
  ledger.redimension_proofs += next.stats.cache_misses;
  return next;
}

// ---- Standalone layer probes ------------------------------------------------

/// CQLF search, stability check and dwell tables of every Table-1 pair.
void analysis_layer(const std::vector<core::AppSpec>& base, Result& result) {
  std::vector<double> cqlf_ms, stability_ms, degradation_ms, dwell_ms;
  int found = 0;
  for (const core::AppSpec& spec : base) {
    const control::SwitchedModes modes =
        control::switched_modes(spec.plant, spec.kt, spec.ke);
    Clock::time_point start = Clock::now();
    found += linalg::find_common_lyapunov(modes.a_tt, modes.a_et).found ? 1 : 0;
    cqlf_ms.push_back(ms_since(start));
    start = Clock::now();
    static_cast<void>(
        control::check_switching_stability(spec.plant, spec.kt, spec.ke, {}));
    stability_ms.push_back(ms_since(start));
    degradation_ms.push_back(stability_ms.back() - cqlf_ms.back());
    const control::SwitchedLoop loop(spec.plant, spec.kt, spec.ke);
    start = Clock::now();
    static_cast<void>(
        switching::compute_dwell_tables(loop, analysis_spec(spec).dwell));
    dwell_ms.push_back(ms_since(start));
  }
  result.add("linalg.cqlf_ms", mean(cqlf_ms), "ms");
  result.add("linalg.cqlf_found_ratio",
             static_cast<double>(found) / static_cast<double>(base.size()),
             "ratio");
  result.add("control.stability_ms", mean(stability_ms), "ms");
  result.add("control.degradation_ms", mean(degradation_ms), "ms");
  result.add("switching.dwell_ms", mean(dwell_ms), "ms");
}

/// Poses every final slot of the samples to a fresh oracle so that each
/// tier answers: growing prefixes (fresh, then prefix extensions), the
/// full slot again (exact) and the slot without its first member
/// (subsumption).
void tier_probe(const std::vector<core::Solution>& samples,
                const verify::DiscreteVerifier::Options& vopt,
                std::vector<double> (&standalone)[kTiers]) {
  const IncrementalAdmissionOracle oracle(
      vopt, std::make_shared<engine::oracle::VerdictCache>(),
      std::make_shared<engine::oracle::SnapshotCache>());
  const auto probe = [&](const std::vector<verify::AppTiming>& apps) {
    const OracleCounts before = counts_of(oracle);
    const Clock::time_point start = Clock::now();
    static_cast<void>(oracle.admit(apps));
    standalone[classify(before, counts_of(oracle))].push_back(ms_since(start));
  };
  for (const core::Solution& solution : samples)
    for (const std::vector<int>& slot : solution.proposed.slots) {
      const std::vector<verify::AppTiming> members =
          slot_timings(solution, slot);
      for (std::size_t len = 1; len <= members.size(); ++len)
        probe({members.begin(), members.begin() + static_cast<long>(len)});
      probe(members);
      if (members.size() >= 2) probe({members.begin() + 1, members.end()});
    }
}

/// Every final slot of the samples proved by a fresh verifier, serial
/// and with min(hardware threads, 4) proof threads.
void verify_layer(const std::vector<core::Solution>& samples, Result& result) {
  const int threads = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  double serial_ms = 0.0, parallel_ms = 0.0;
  long states = 0, proofs = 0;
  for (const core::Solution& solution : samples)
    for (const std::vector<int>& slot : solution.proposed.slots) {
      const verify::DiscreteVerifier verifier(slot_timings(solution, slot));
      verify::DiscreteVerifier::Options options;
      Clock::time_point start = Clock::now();
      const verify::SlotVerdict serial = verifier.verify(options);
      serial_ms += ms_since(start);
      options.proof_threads = threads;
      start = Clock::now();
      const verify::SlotVerdict parallel = verifier.verify(options);
      parallel_ms += ms_since(start);
      states += serial.states_explored;
      ++proofs;
      if (!serial.safe || parallel.safe != serial.safe ||
          parallel.states_explored != serial.states_explored)
        result.fail("verify probe: a proposed slot is unsafe or the parallel "
                    "proof disagrees with the serial one");
    }
  const double n = static_cast<double>(std::max(1L, proofs));
  result.add("verify.proof_ms.serial", serial_ms / n, "ms");
  result.add("verify.proof_ms.parallel", parallel_ms / n, "ms");
  result.add("verify.states_per_s.serial",
             static_cast<double>(states) / (serial_ms / 1000.0), "1/s");
  result.add("verify.states_per_s.parallel",
             static_cast<double>(states) / (parallel_ms / 1000.0), "1/s");
  result.add("verify.parallel_speedup", serial_ms / parallel_ms, "x");
}

/// Codec round trips, DiskCache put/get of the encoded solutions, and
/// VerdictCache lookups of the final slots' keys. Each reports the median
/// per-call time, so one slow call of the host does not move it.
void cache_layers(const std::vector<core::Solution>& samples,
                  const verify::DiscreteVerifier::Options& vopt,
                  const Config& config, Result& result) {
  constexpr int kRounds = 100;
  std::vector<double> encode_us, decode_us;
  double bytes = 0.0;
  bool decoded_all = true;
  std::vector<std::string> encoded;
  for (const core::Solution& solution : samples)
    for (int r = 0; r < kRounds; ++r) {
      std::string blob;
      Clock::time_point start = Clock::now();
      support::codec::Encoder enc(blob);
      core::encode_solution(enc, solution);
      encode_us.push_back(ms_since(start) * 1000.0);
      start = Clock::now();
      support::codec::Decoder dec(blob);
      core::Solution decoded;
      const bool ok = core::decode_solution(dec, decoded) && dec.done();
      decode_us.push_back(ms_since(start) * 1000.0);
      decoded_all = decoded_all && ok;
      bytes += static_cast<double>(blob.size());
      if (r == 0) encoded.push_back(std::move(blob));
    }
  if (!decoded_all)
    result.fail("codec probe: an encoded solution does not decode");
  result.add("support.codec.encode_solution_us", percentile(encode_us, 50.0),
             "us");
  result.add("support.codec.decode_solution_us", percentile(decode_us, 50.0),
             "us");
  result.add("support.codec.solution_bytes",
             bytes / static_cast<double>(encode_us.size()), "B");

  const ScratchDir dir(config.work_dir, "diskprobe");
  engine::cache::DiskCache disk(dir.path());
  const auto key_of = [](std::size_t s, int r) {
    return "probe/" + std::to_string(s) + "/" + std::to_string(r);
  };
  std::vector<double> put_us, get_us;
  for (std::size_t s = 0; s < encoded.size(); ++s)
    for (int r = 0; r < kRounds; ++r) {
      const std::string key = key_of(s, r);
      const Clock::time_point start = Clock::now();
      disk.put("solution", key, encoded[s]);
      put_us.push_back(ms_since(start) * 1000.0);
    }
  bool read_back = true;
  for (std::size_t s = 0; s < encoded.size(); ++s)
    for (int r = 0; r < kRounds; ++r) {
      const std::string key = key_of(s, r);
      const Clock::time_point start = Clock::now();
      const std::optional<std::string> value = disk.get("solution", key);
      get_us.push_back(ms_since(start) * 1000.0);
      read_back = read_back && value && *value == encoded[s];
    }
  if (!read_back)
    result.fail("disk probe: a stored solution does not read back");
  result.add("engine.cache.disk_get_us", percentile(get_us, 50.0), "us");
  result.add("engine.cache.disk_put_us", percentile(put_us, 50.0), "us");

  engine::oracle::VerdictCache verdicts;
  std::vector<engine::oracle::SlotConfigKey> keys;
  for (const core::Solution& solution : samples)
    for (const std::vector<int>& slot : solution.proposed.slots) {
      keys.push_back(engine::oracle::SlotConfigKey::of(
          slot_timings(solution, slot), vopt));
      verify::SlotVerdict safe;
      safe.safe = true;
      verdicts.insert(keys.back(), safe);
    }
  // Lookups take tens of nanoseconds: time them in batches.
  constexpr long kBatch = 1000;
  constexpr int kBatches = 200;
  long hits = 0;
  std::vector<double> lookup_us;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    for (long i = 0; i < kBatch; ++i)
      hits += verdicts.lookup(keys[static_cast<std::size_t>(i) % keys.size()])
                  ? 1
                  : 0;
    lookup_us.push_back(ms_since(start) * 1000.0 / static_cast<double>(kBatch));
  }
  result.add("engine.cache.verdict_lookup_us", percentile(lookup_us, 50.0),
             "us");
  if (hits != kBatch * kBatches)
    result.fail("verdict probe: a stored key missed");
}

/// Shared tail of both traced runs: standalone probes, the ledger's
/// metrics and the trace file.
void finish_ledger(const Config& config, const std::vector<core::AppSpec>& base,
                   const core::SolveOptions& options, const Tracer& tracer,
                   Ledger& ledger, double disk_hit_ratio, Result& result) {
  if (ledger.samples.empty()) {
    result.fail("no traced operation completed; no ledger to report");
    return;
  }
  const verify::DiscreteVerifier::Options vopt = verifier_options(options);
  analysis_layer(base, result);

  const std::vector<double> self = tracer.self_us();
  double op_us = 0.0, analysis_us = 0.0, mapping_us = 0.0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    if (span.parent < 0) op_us += span.end_us - span.start_us;
    if (span.name == "engine.analysis") analysis_us += self[i];
    if (span.name == "mapping") mapping_us += self[i];
  }
  const double ops = static_cast<double>(std::max(1L, ledger.ops));
  const long lookups = ledger.analysis_hits + ledger.analysis_misses;
  result.add("engine.analysis.self_pct", 100.0 * analysis_us / op_us, "%");
  result.add("engine.analysis.hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(ledger.analysis_hits) /
                                static_cast<double>(lookups),
             "ratio");
  result.add("mapping.probes_per_op", static_cast<double>(ledger.probes) / ops,
             "count");
  result.add("mapping.self_pct", 100.0 * mapping_us / op_us, "%");

  std::vector<double> standalone[kTiers];
  bool missing = false;
  for (int t = 0; t < kTiers; ++t)
    missing = missing || ledger.probe_ms[t].empty();
  if (missing) tier_probe(ledger.samples, vopt, standalone);
  for (int t = 0; t < kTiers; ++t)
    result.add(std::string("engine.oracle.") + kTierName[t] + "_per_op",
               static_cast<double>(ledger.tier_count[t]) / ops, "count");
  for (int t = 0; t < kTiers; ++t)
    result.add(std::string("engine.oracle.probe_ms.") + kTierName[t],
               mean(ledger.probe_ms[t].empty() ? standalone[t]
                                               : ledger.probe_ms[t]),
               "ms");
  result.add("engine.oracle.proof_free_ratio",
             ledger.probes == 0
                 ? 0.0
                 : static_cast<double>(ledger.tier_count[kExact] +
                                       ledger.tier_count[kSubsumption]) /
                       static_cast<double>(ledger.probes),
             "ratio");
  result.add("engine.oracle.states_per_op",
             static_cast<double>(ledger.states) / ops, "count");
  result.add("engine.oracle.states_reused_per_op",
             static_cast<double>(ledger.reused) / ops, "count");

  verify_layer(ledger.samples, result);
  result.add("sched.baseline_ms", mean(ledger.baseline_ms), "ms");
  for (int k = 0; k < 3; ++k)
    result.add(std::string("core.redimension_ms.") + kDeltaKinds[k],
               percentile(ledger.redimension_ms[k], 50.0), "ms");
  result.add("core.redimension_proofs_per_event",
             static_cast<double>(ledger.redimension_proofs) /
                 static_cast<double>(std::max(1L, ledger.redimension_events)),
             "count");

  cache_layers(ledger.samples, vopt, config, result);
  result.add("engine.cache.disk_hit_ratio", disk_hit_ratio, "ratio");
  result.add("engine.cache.snapshot_mb", ledger.snapshot_bytes / (1 << 20),
             "MB");
  result.add("trace.overhead_pct",
             100.0 * (mean(ledger.traced_ms) / mean(ledger.untraced_ms) - 1.0),
             "%");

  if (!tracer.write_chrome(config.trace_path))
    result.fail("cannot write " + config.trace_path);
}

// ---- cold / remap / restart -----------------------------------------------

void traced_solves(const Config& config, Result& result) {
  SolveRun run(config);
  result.input_hash = run.inputs().hash;
  const std::vector<std::vector<core::AppSpec>>& populations =
      run.inputs().populations;
  const auto population = [&](long i) -> const std::vector<core::AppSpec>& {
    return populations[static_cast<std::size_t>(i) % populations.size()];
  };
  long cap = prefix_ops(config.workload);
  if (config.max_ops > 0) cap = std::min<long>(cap, config.max_ops);

  Ledger ledger;
  std::vector<std::uint64_t> expected;
  for (long i = 0; i < cap; ++i) {
    const Clock::time_point op_start = Clock::now();
    const core::Solution solution = core::solve(population(i), run.options);
    ledger.untraced_ms.push_back(ms_since(op_start));
    expected.push_back(fingerprint_hash(solution));
  }

  Tracer tracer;
  engine::cache::DiskCache* const disk = run.options.disk_cache.get();
  engine::cache::DiskCacheStats disk_before;
  if (disk != nullptr) disk_before = disk->stats();
  // cold replays one fixed input: one sample covers it.
  const std::size_t samples = config.workload == Workload::kCold ? 1 : 3;
  StageCaches caches;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const long op = static_cast<long>(i);
    ++result.attempted;
    caches = caches_for(run.options);
    const std::size_t span = tracer.spans().size();
    core::Solution solution;
    try {
      solution = staged_solve(population(op), run.options, caches, tracer,
                              op, ledger);
    } catch (const std::exception& e) {
      result.fail("op " + std::to_string(op) + ": threw: " + e.what());
      continue;
    }
    ++ledger.ops;
    ledger.traced_ms.push_back(tracer.duration_us(static_cast<int>(span)) /
                               1000.0);
    if (fingerprint_hash(solution) != expected[i])
      result.fail("op " + std::to_string(op) +
                  ": traced replay differs from the untraced solve");
    if (ledger.samples.size() < samples)
      ledger.samples.push_back(std::move(solution));
  }
  double disk_hit_ratio = 0.0;
  if (disk != nullptr) {
    const engine::cache::DiskCacheStats after = disk->stats();
    const long gets = (after.hits - disk_before.hits) +
                      (after.misses - disk_before.misses);
    if (gets > 0)
      disk_hit_ratio = static_cast<double>(after.hits - disk_before.hits) /
                       static_cast<double>(gets);
  }

  // Redimension costs on the last replayed population, in a session over
  // the caches its staged solve warmed: remove, re-add and re-rate (to the
  // same rate) three of its apps.
  if (!ledger.samples.empty()) {
    core::SolveOptions options = run.options;
    options.analysis_cache = caches.analysis;
    options.verdict_cache = caches.verdicts;
    options.snapshot_cache = caches.snapshots;
    const std::vector<core::AppSpec>& specs =
        population(static_cast<long>(expected.size()) - 1);
    core::DimensioningSession session(options);
    static_cast<void>(session.solve(specs));
    for (std::size_t k = 0; k < std::min<std::size_t>(3, specs.size()); ++k) {
      const core::AppSpec& app = specs[specs.size() - 1 - k];
      core::Delta remove, add, rerate;
      remove.remove.push_back(app.name);
      add.add.push_back(app);
      rerate.rerate.push_back(app);
      static_cast<void>(timed_redimension(session, remove, ledger));
      static_cast<void>(timed_redimension(session, add, ledger));
      static_cast<void>(timed_redimension(session, rerate, ledger));
    }
  }
  finish_ledger(config, run.inputs().base, run.options, tracer, ledger,
                disk_hit_ratio, result);
}

// ---- churn -----------------------------------------------------------------

void traced_churn(const Config& config, Result& result) {
  ChurnRun run(config);
  result.input_hash = run.inputs().hash;
  const std::vector<ChurnWalk>& walks = run.inputs().walks;
  const std::size_t walk_cap = std::min<std::size_t>(
      static_cast<std::size_t>(prefix_ops(Workload::kChurn)), walks.size());
  const long op_cap = config.max_ops > 0 ? config.max_ops : -1;

  Ledger ledger;
  std::vector<std::size_t> replayed;  // deltas per walk
  std::vector<std::uint64_t> expected;
  long ops = 0;
  // Both passes see the walks for the first time, like the timed run.
  run.fresh_caches();
  for (std::size_t w = 0; w < walk_cap; ++w) {
    if (w > 0 && ops == op_cap) break;
    core::DimensioningSession session(run.options);
    static_cast<void>(session.solve(run.inputs().base));
    std::size_t d = 0;
    for (; d < walks[w].deltas.size() && ops != op_cap; ++d, ++ops) {
      const Clock::time_point op_start = Clock::now();
      static_cast<void>(session.redimension(walks[w].deltas[d]));
      ledger.untraced_ms.push_back(ms_since(op_start));
    }
    replayed.push_back(d);
    expected.push_back(fingerprint_hash(session.solution()));
  }

  Tracer tracer;
  run.fresh_caches();
  long op = 0;
  for (std::size_t w = 0; w < replayed.size(); ++w) {
    core::DimensioningSession session(run.options);
    static_cast<void>(session.solve(run.inputs().base));
    for (std::size_t d = 0; d < replayed[w]; ++d, ++op) {
      ++result.attempted;
      const int id = tracer.begin("core.redimension", op);
      core::Solution next;
      try {
        next = timed_redimension(session, walks[w].deltas[d], ledger);
      } catch (const std::exception& e) {
        tracer.end(id);
        result.fail("op " + std::to_string(op) + ": threw: " + e.what());
        continue;
      }
      tracer.end(id);
      ++ledger.ops;
      const engine::oracle::SolveStats& stats = next.stats;
      // The session's stages run analysis -> mapping -> baselines; their
      // spans are placed back to back from the phase times it reports.
      double at = tracer.spans()[static_cast<std::size_t>(id)].start_us;
      const std::pair<const char*, double> phases[] = {
          {"engine.analysis", stats.analysis_ms},
          {"mapping", stats.mapping_ms},
          {"sched.baselines", stats.baseline_ms}};
      for (const auto& [name, ms] : phases) {
        tracer.add_derived(name, op, at, at + ms * 1000.0, id);
        at += ms * 1000.0;
      }
      ledger.traced_ms.push_back(tracer.duration_us(id) / 1000.0);
      ledger.probes += stats.oracle_calls;
      ledger.tier_count[kExact] += stats.cache_hits;
      ledger.tier_count[kSubsumption] +=
          stats.subsumption_hits + stats.subsumption_cuts;
      ledger.tier_count[kPrefix] += stats.prefix_hits;
      ledger.tier_count[kFresh] += stats.cache_misses - stats.prefix_hits;
      ledger.states += stats.verifier_states;
      ledger.reused += stats.states_reused;
      ledger.analysis_hits += stats.analysis_hits;
      ledger.analysis_misses += stats.analysis_misses;
      ledger.baseline_ms.push_back(stats.baseline_ms);
    }
    if (fingerprint_hash(session.solution()) != expected[w])
      result.fail("walk " + std::to_string(w) +
                  ": traced replay differs from the untraced walk");
    ledger.samples.push_back(session.solution());
  }
  ledger.snapshot_bytes =
      static_cast<double>(run.options.snapshot_cache->stats().bytes);
  finish_ledger(config, run.inputs().base, run.options, tracer, ledger, 0.0,
                result);
}

}  // namespace

Result run_traced(const Config& config) {
  Result result;
  if (config.workload == Workload::kChurn)
    traced_churn(config, result);
  else
    traced_solves(config, result);
  return result;
}

}  // namespace bench

#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "engine/analysis/analysis_cache.h"
#include "engine/analysis/app_analysis.h"
#include "engine/cache/disk_cache.h"
#include "engine/oracle/incremental_oracle.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "engine/parallel_for.h"
#include "support/check.h"

namespace ttdim::core {

namespace {

using Clock = std::chrono::steady_clock;
using engine::oracle::IncrementalAdmissionOracle;
using engine::oracle::ms_since;
using engine::oracle::SolveStats;

/// A nullptr cache field gets a private session-lifetime cache (the
/// admission tiers only when their flag is on) — the per-call private
/// cache of the old monolithic solve(), hoisted to construction so
/// redimension passes stay warm.
SolveOptions materialize_caches(SolveOptions options) {
  if (options.analysis_cache == nullptr)
    options.analysis_cache =
        std::make_shared<engine::analysis::AnalysisCache>();
  if (options.memoize_admission && options.verdict_cache == nullptr)
    options.verdict_cache = std::make_shared<engine::oracle::VerdictCache>();
  if (options.incremental_admission && options.snapshot_cache == nullptr)
    options.snapshot_cache =
        std::make_shared<engine::oracle::SnapshotCache>();
  return options;
}

/// The admission oracle of one pass over the session's caches. Both
/// admission caches disabled degrades to the reference one-fresh-proof-
/// per-probe behaviour, so a single oracle covers the whole option
/// matrix. Its counters start at zero, so they are the pass's own.
IncrementalAdmissionOracle make_oracle(const SolveOptions& options,
                                       int proof_threads) {
  verify::DiscreteVerifier::Options vopt;
  vopt.max_disturbances_per_app = options.max_disturbances_per_app;
  vopt.policy = options.policy;
  vopt.proof_threads = proof_threads;
  return IncrementalAdmissionOracle(
      vopt, options.memoize_admission ? options.verdict_cache : nullptr,
      options.incremental_admission ? options.snapshot_cache : nullptr,
      options.subsumption_admission, options.disk_cache);
}

/// Oracle accounting: add one pass's oracle counters to its stats, once,
/// at the end of the pass.
void stamp_oracle(const IncrementalAdmissionOracle& oracle,
                  SolveStats& stats) {
  stats.oracle_calls += oracle.calls();
  stats.cache_hits += oracle.exact_hits();
  stats.subsumption_hits += oracle.subsumption_hits();
  stats.subsumption_cuts += oracle.subsumption_cuts();
  stats.cache_misses += oracle.misses();
  stats.verifier_states += oracle.states_explored();
  stats.prefix_hits += oracle.prefix_hits();
  stats.states_reused += oracle.states_reused();
  stats.states_extended += oracle.states_extended();
  stats.proof_threads = oracle.options().proof_threads;
}

/// Disk-tier accounting: SolveStats reports the delta of the shared
/// DiskCache's monotonic counters across one pass (the
/// analysis_evictions idiom) — approximate under concurrent sharing,
/// exact otherwise.
void stamp_disk(engine::cache::DiskCache* disk,
                const engine::cache::DiskCacheStats& before,
                SolveStats& stats) {
  if (disk == nullptr) return;
  const engine::cache::DiskCacheStats now = disk->stats();
  stats.disk_hits = now.hits - before.hits;
  stats.disk_misses = now.misses - before.misses;
  stats.disk_writes = now.writes - before.writes;
  stats.disk_trims = now.trims - before.trims;
}

int index_of(const Solution& solution, const std::string& name) {
  for (std::size_t i = 0; i < solution.apps.size(); ++i)
    if (solution.apps[i].spec.name == name) return static_cast<int>(i);
  return -1;
}

int slot_of(const mapping::SlotAssignment& assignment, int idx) {
  for (std::size_t s = 0; s < assignment.slots.size(); ++s)
    for (int member : assignment.slots[s])
      if (member == idx) return static_cast<int>(s);
  return -1;
}

/// Erase app `idx` from the population: drop it from its slot (dropping
/// the slot when it empties), renumber the indices above it, erase the
/// AppSolution. Proof-free: every surviving slot is a sub-population of
/// a proven-safe one, and admission is antitone.
void remove_at(Solution& solution, int idx) {
  auto& slots = solution.proposed.slots;
  for (auto it = slots.begin(); it != slots.end();) {
    std::vector<int>& slot = *it;
    slot.erase(std::remove(slot.begin(), slot.end(), idx), slot.end());
    for (int& member : slot)
      if (member > idx) --member;
    it = slot.empty() ? slots.erase(it) : it + 1;
  }
  solution.apps.erase(solution.apps.begin() + idx);
}

std::vector<verify::AppTiming> timings_of(const Solution& solution) {
  std::vector<verify::AppTiming> timings;
  timings.reserve(solution.apps.size());
  for (const AppSolution& app : solution.apps) timings.push_back(app.timing);
  return timings;
}

/// First-fit `idx` into the existing slots (new dedicated slot when none
/// admits), bumping the redimension refit/new-slot counters.
void place_app(Solution& solution, int idx,
               const IncrementalAdmissionOracle& oracle, SolveStats& stats) {
  const std::vector<verify::AppTiming> timings = timings_of(solution);
  const int slot = mapping::first_fit_placement(timings, solution.proposed,
                                                idx, oracle.slot_oracle());
  if (slot >= 0) {
    solution.proposed.slots[static_cast<size_t>(slot)].push_back(idx);
    ++stats.redimension_refits;
  } else {
    // A new dedicated slot must always admit a single application
    // (mirrors the first-fit walk's invariant).
    TTDIM_CHECK(oracle.admit({timings[static_cast<size_t>(idx)]}));
    solution.proposed.slots.push_back({idx});
    ++stats.redimension_new_slots;
  }
}

/// Reject specs no analysis may see: kt must be 1 x n, ke 1 x (n+1), every
/// gain entry finite, and r within the verifier's byte counters. Without
/// this a NaN gain reaches the eigensolver (which fails to converge), an
/// infinite one yields a bogus "not switching stable", and a wrong shape
/// or a slow rate trips a precondition deep inside.
void check_spec(const AppSpec& spec, const char* where) {
  const control::Index n = spec.plant.n_states();
  const std::string prefix = std::string(where) + ": " + spec.name;
  if (spec.kt.rows() != 1 || spec.kt.cols() != n)
    throw std::invalid_argument(prefix + " needs kt of shape 1 x " +
                                std::to_string(n));
  if (spec.ke.rows() != 1 || spec.ke.cols() != n + 1)
    throw std::invalid_argument(prefix + " needs ke of shape 1 x " +
                                std::to_string(n + 1));
  if (!spec.kt.all_finite() || !spec.ke.all_finite())
    throw std::invalid_argument(prefix + " has a non-finite gain entry");
  if (spec.min_interarrival > verify::DiscreteVerifier::kMaxInterarrival)
    throw std::invalid_argument(
        prefix + " has a min_interarrival above the limit of " +
        std::to_string(verify::DiscreteVerifier::kMaxInterarrival));
}

}  // namespace

DimensioningSession::DimensioningSession(SolveOptions options)
    : options_(materialize_caches(std::move(options))),
      proof_threads_(engine::resolve_threads(options_.proof_threads)) {}

// ---- Stage 1: per-application analysis (engine/analysis). ----------------
// Stability certificates and dwell tables are pure functions of the
// plant/gain/spec tuple, so each app is answered by analyze_app — either
// from the content-addressed AnalysisCache or computed fresh and
// inserted; the result is byte-identical either way. Apps are analysed
// in input order, so the first failing app is the one that throws.
std::vector<AppSolution> DimensioningSession::stage_analysis(
    const std::vector<AppSpec>& specs, SolveStats& stats) const {
  engine::analysis::AnalysisCache& cache = *options_.analysis_cache;
  engine::cache::DiskCache* const disk = options_.disk_cache.get();
  const long evictions_before = cache.stats().evictions;
  std::vector<AppSolution> apps;
  apps.reserve(specs.size());
  const auto t_analysis = Clock::now();
  for (const AppSpec& spec : specs) {
    engine::analysis::AppAnalysisSpec aspec;
    aspec.dwell.settling_requirement = spec.settling_requirement;
    aspec.dwell.settling = options_.settling;
    aspec.dwell.tw_granularity = options_.tw_granularity;
    aspec.stop_on_unstable = options_.require_switching_stability;
    const engine::analysis::AppAnalysisOutcome outcome =
        engine::analysis::analyze_app(spec.plant, spec.kt, spec.ke, aspec,
                                      &cache, 1, disk);
    stats.stability_ms += outcome.stability_ms;
    stats.dwell_ms += outcome.dwell_ms;
    ++(outcome.cache_hit ? stats.analysis_hits : stats.analysis_misses);

    AppSolution app{spec, {}, {}, outcome.result->stability};
    if (options_.require_switching_stability &&
        !app.stability.switching_stable())
      throw std::invalid_argument(
          "solve: gain pair of " + spec.name +
          " is not switching stable (set require_switching_stability = "
          "false to override)");
    // Past the stability gate the analysis always carries tables
    // (stop_on_unstable mirrors require_switching_stability).
    TTDIM_CHECK(outcome.result->tables_computed);
    app.tables = outcome.result->tables;
    if (!app.tables.feasible())
      throw std::invalid_argument("solve: requirement of " + spec.name +
                                  " infeasible even with zero wait");
    app.timing = verify::make_app_timing(spec.name, app.tables,
                                         spec.min_interarrival);
    apps.push_back(std::move(app));
  }
  stats.analysis_ms += ms_since(t_analysis);
  stats.analysis_evictions += cache.stats().evictions - evictions_before;
  return apps;
}

// ---- Stage 2: proposed mapping — first-fit + model checking, routed
// through the pass's admission oracle (engine/oracle). --------------------
mapping::SlotAssignment DimensioningSession::stage_mapping(
    const std::vector<verify::AppTiming>& timings,
    const std::vector<int>& order, SolveStats& stats) const {
  const IncrementalAdmissionOracle oracle =
      make_oracle(options_, proof_threads_);
  const auto t_mapping = Clock::now();
  mapping::SlotAssignment proposed =
      mapping::first_fit(timings, order, oracle.slot_oracle());
  stats.mapping_ms += ms_since(t_mapping);
  stamp_oracle(oracle, stats);
  return proposed;
}

// ---- Stage 3: baseline mappings ([9]). -----------------------------------
void DimensioningSession::stage_baselines(
    Solution& solution, const std::vector<verify::AppTiming>& timings,
    const std::vector<int>& order, SolveStats& stats) const {
  const auto t_baseline = Clock::now();
  std::vector<sched::BaselineApp> baseline_apps;
  baseline_apps.reserve(solution.apps.size());
  for (const AppSolution& a : solution.apps)
    baseline_apps.push_back(
        sched::make_baseline_app(a.timing, a.tables.settling_tt));

  const auto baseline_oracle = [&](sched::BaselineStrategy strategy) {
    return [&baseline_apps, &timings, strategy](
               const std::vector<verify::AppTiming>& slot_apps) {
      std::vector<sched::BaselineApp> members;
      for (const verify::AppTiming& t : slot_apps) {
        const auto it = std::find_if(
            timings.begin(), timings.end(),
            [&t](const verify::AppTiming& x) { return x.name == t.name; });
        TTDIM_CHECK(it != timings.end());
        members.push_back(
            baseline_apps[static_cast<size_t>(it - timings.begin())]);
      }
      return sched::analyze_baseline_slot(members, strategy).schedulable;
    };
  };
  solution.baseline_np = mapping::first_fit(
      timings, order,
      baseline_oracle(sched::BaselineStrategy::kNonPreemptiveDm));
  solution.baseline_delayed = mapping::first_fit(
      timings, order,
      baseline_oracle(sched::BaselineStrategy::kDelayedRequests));
  stats.baseline_ms += ms_since(t_baseline);
}

Solution DimensioningSession::solve(const std::vector<AppSpec>& specs) {
  TTDIM_EXPECTS(!specs.empty());
  for (const AppSpec& spec : specs) check_spec(spec, "solve");
  support::MutexLock lock(mutex_);
  const auto t_solve = Clock::now();
  engine::cache::DiskCache* const disk = options_.disk_cache.get();
  engine::cache::DiskCacheStats disk_before;
  if (disk != nullptr) disk_before = disk->stats();

  Solution solution;
  solution.apps = stage_analysis(specs, solution.stats);
  const std::vector<verify::AppTiming> timings = timings_of(solution);
  const std::vector<int> order = mapping::paper_sort_order(timings);
  solution.proposed = stage_mapping(timings, order, solution.stats);
  stage_baselines(solution, timings, order, solution.stats);

  // ---- Stage 4: assembly. -------------------------------------------------
  stamp_disk(disk, disk_before, solution.stats);
  solution.stats.total_ms = ms_since(t_solve);
  solution_ = solution;
  return solution;
}

void DimensioningSession::validate_delta_locked(const Delta& delta) const {
  std::unordered_set<std::string> present;
  for (const AppSolution& app : solution_->apps) present.insert(app.spec.name);
  std::unordered_set<std::string> removed;
  for (const std::string& name : delta.remove) {
    if (present.find(name) == present.end())
      throw std::invalid_argument("redimension: cannot remove unknown app " +
                                  name);
    if (!removed.insert(name).second)
      throw std::invalid_argument("redimension: duplicate removal of " + name);
  }
  std::unordered_set<std::string> rerated;
  for (const AppSpec& spec : delta.rerate) {
    if (present.find(spec.name) == present.end())
      throw std::invalid_argument("redimension: cannot re-rate unknown app " +
                                  spec.name);
    if (removed.count(spec.name) != 0)
      throw std::invalid_argument("redimension: " + spec.name +
                                  " is both removed and re-rated");
    if (!rerated.insert(spec.name).second)
      throw std::invalid_argument("redimension: duplicate re-rate of " +
                                  spec.name);
    check_spec(spec, "redimension");
  }
  std::unordered_set<std::string> added;
  for (const AppSpec& spec : delta.add) {
    if (present.count(spec.name) != 0 && removed.count(spec.name) == 0)
      throw std::invalid_argument("redimension: cannot add duplicate app " +
                                  spec.name);
    if (rerated.count(spec.name) != 0)
      throw std::invalid_argument("redimension: " + spec.name +
                                  " is both re-rated and added");
    if (!added.insert(spec.name).second)
      throw std::invalid_argument("redimension: duplicate addition of " +
                                  spec.name);
    check_spec(spec, "redimension");
  }
  if (present.size() - removed.size() + added.size() == 0)
    throw std::invalid_argument(
        "redimension: delta would empty the population");
}

Solution DimensioningSession::redimension(const Delta& delta) {
  support::MutexLock lock(mutex_);
  if (!solution_.has_value())
    throw std::logic_error(
        "DimensioningSession::redimension: no standing solution (run "
        "solve() first)");
  const auto t_redim = Clock::now();
  engine::cache::DiskCache* const disk = options_.disk_cache.get();
  engine::cache::DiskCacheStats disk_before;
  if (disk != nullptr) disk_before = disk->stats();

  SolveStats stats;
  stats.proof_threads = proof_threads_;

  // Empty delta is the identity: the standing solution, byte-identical,
  // with fresh per-request stats.
  if (delta.empty()) {
    Solution out = *solution_;
    out.stats = stats;
    stamp_disk(disk, disk_before, out.stats);
    out.stats.total_ms = ms_since(t_redim);
    return out;
  }

  validate_delta_locked(delta);

  // Analysis for re-rates and additions runs up front (one stage pass,
  // same caches as a fresh solve), so an unmeetable
  // requirement throws before the standing solution is touched.
  std::vector<AppSpec> fresh_specs;
  fresh_specs.reserve(delta.rerate.size() + delta.add.size());
  for (const AppSpec& spec : delta.rerate) fresh_specs.push_back(spec);
  for (const AppSpec& spec : delta.add) fresh_specs.push_back(spec);
  std::vector<AppSolution> fresh;
  if (!fresh_specs.empty()) fresh = stage_analysis(fresh_specs, stats);

  Solution next = *solution_;
  next.stats = {};
  const IncrementalAdmissionOracle oracle =
      make_oracle(options_, proof_threads_);
  const auto t_mapping = Clock::now();

  // Removals first: proof-free by antitone admission, and they free the
  // capacity re-rates/additions may first-fit into.
  for (const std::string& name : delta.remove) {
    remove_at(next, index_of(next, name));
    ++stats.redimension_removals;
  }

  // Re-rates: probe the app's current slot with the re-analyzed timing
  // substituted in place (members stay in insertion order, so the probe
  // is warm-cache-friendly). Only a true conflict re-places the app.
  std::size_t k = 0;
  for (std::size_t i = 0; i < delta.rerate.size(); ++i, ++k) {
    AppSolution& app = fresh[k];
    const int idx = index_of(next, app.spec.name);
    const int slot = slot_of(next.proposed, idx);
    TTDIM_CHECK(idx >= 0 && slot >= 0);
    std::vector<verify::AppTiming> probe;
    const std::vector<int>& members =
        next.proposed.slots[static_cast<size_t>(slot)];
    probe.reserve(members.size());
    for (int member : members)
      probe.push_back(member == idx ? app.timing
                                    : next.apps[static_cast<size_t>(member)]
                                          .timing);
    if (oracle.admit(probe)) {
      next.apps[static_cast<size_t>(idx)] = std::move(app);
      ++stats.redimension_refits;
    } else {
      ++stats.redimension_conflicts;
      std::vector<int>& current =
          next.proposed.slots[static_cast<size_t>(slot)];
      current.erase(std::remove(current.begin(), current.end(), idx),
                    current.end());
      if (current.empty())
        next.proposed.slots.erase(next.proposed.slots.begin() + slot);
      next.apps[static_cast<size_t>(idx)] = std::move(app);
      place_app(next, idx, oracle, stats);
    }
  }

  // Additions: first-fit into the existing slots through the warm
  // oracle; a fresh dedicated slot only when none admits. Arrival order,
  // not the paper sort — the standing assignment is history-dependent by
  // design.
  for (std::size_t i = 0; i < delta.add.size(); ++i, ++k) {
    next.apps.push_back(std::move(fresh[k]));
    place_app(next, static_cast<int>(next.apps.size()) - 1, oracle, stats);
  }
  stats.mapping_ms += ms_since(t_mapping);
  stamp_oracle(oracle, stats);

  // Baselines are closed-form and cheap: recompute them from scratch so
  // the saving-vs-baseline comparison stays meaningful after churn.
  const std::vector<verify::AppTiming> timings = timings_of(next);
  const std::vector<int> order = mapping::paper_sort_order(timings);
  stage_baselines(next, timings, order, stats);

  stats.redimension_events = static_cast<long>(delta.size());
  stamp_disk(disk, disk_before, stats);
  stats.total_ms = ms_since(t_redim);
  next.stats = stats;
  solution_ = next;
  return next;
}

bool DimensioningSession::has_solution() const {
  support::MutexLock lock(mutex_);
  return solution_.has_value();
}

Solution DimensioningSession::solution() const {
  support::MutexLock lock(mutex_);
  if (!solution_.has_value())
    throw std::logic_error(
        "DimensioningSession::solution: no standing solution");
  return *solution_;
}

std::vector<AppSpec> DimensioningSession::specs() const {
  support::MutexLock lock(mutex_);
  if (!solution_.has_value())
    throw std::logic_error("DimensioningSession::specs: no standing solution");
  std::vector<AppSpec> out;
  out.reserve(solution_->apps.size());
  for (const AppSolution& app : solution_->apps) out.push_back(app.spec);
  return out;
}

}  // namespace ttdim::core

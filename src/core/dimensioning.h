// Top-level façade: from plant models + requirements to a verified TT slot
// dimensioning. This is the end-to-end pipeline of the paper:
//   1. dwell-time analysis per application (Sec. 3),
//   2. switching-stability check of the gain pair (Sec. 3),
//   3. first-fit mapping with model-checking admission (Secs. 4-5),
//   4. baseline mapping with the [9] schedulability analysis for the
//      comparison of Sec. 5.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/design.h"
#include "control/sim.h"
#include "engine/oracle/solve_stats.h"
#include "mapping/first_fit.h"
#include "sched/baseline.h"
#include "sched/slot_scheduler.h"
#include "switching/dwell.h"
#include "verify/discrete.h"

namespace ttdim::engine::oracle {
class VerdictCache;
class SnapshotCache;
}  // namespace ttdim::engine::oracle

namespace ttdim::engine::analysis {
class AnalysisCache;
}  // namespace ttdim::engine::analysis

namespace ttdim::engine::cache {
class DiskCache;
class SolutionCache;
}  // namespace ttdim::engine::cache

namespace ttdim::core {

/// One application as specified by the system designer.
struct AppSpec {
  std::string name;
  control::DiscreteLti plant;
  control::Matrix kt;  ///< fast gain, 1 x n
  control::Matrix ke;  ///< slow gain on [x; u_prev], 1 x (n+1)
  int min_interarrival = 0;      ///< r, samples
  int settling_requirement = 0;  ///< J*, samples
};

struct SolveOptions {
  control::SettlingSpec settling{0.02, 3000};
  int tw_granularity = 1;
  /// Disturbance-instance bound handed to the verifier; < 0 = unbounded.
  int max_disturbances_per_app = -1;
  /// Reject gain pairs without a common quadratic Lyapunov certificate
  /// (paper Sec. 3 recommends switching-stable designs; disable to
  /// experiment with unstable pairs as in Fig. 3).
  bool require_switching_stability = true;
  /// Arbitration policy the admission checks verify (and the deployed
  /// runtime must then use): the paper's strategy or the slack-aware
  /// extension (verify/policy.h).
  verify::SlotPolicy policy = verify::SlotPolicy::kPaper;
  /// Enable the exact-verdict tier of the admission oracle
  /// (engine/oracle): first-fit probes answered from a VerdictCache of
  /// canonical slot configurations. The dimensioning result is
  /// byte-identical either way. Note this controls only that tier —
  /// reverting to the reference one-fresh-DiscreteVerifier-run-per-probe
  /// path (what caching is tested against) requires also disabling
  /// incremental_admission below.
  bool memoize_admission = true;
  /// Verdict cache shared across solves (batch jobs, a serve process).
  /// nullptr + memoize_admission gives the solve a private cache.
  std::shared_ptr<engine::oracle::VerdictCache> verdict_cache;
  /// Prefix-reuse tier of the admission oracle (engine/oracle): when a
  /// first-fit probe {slot + candidate} misses the verdict cache, the
  /// verifier extends the cached reachable-set snapshot of the {slot}
  /// prefix instead of re-proving it from scratch. The dimensioning
  /// result is byte-identical either way (the incremental search visits
  /// exactly the same reachable set); disabling reverts admission to the
  /// PR-2 two-tier oracle.
  bool incremental_admission = true;
  /// Snapshot cache shared across solves, like verdict_cache. nullptr +
  /// incremental_admission gives the solve a private cache.
  std::shared_ptr<engine::oracle::SnapshotCache> snapshot_cache;
  /// Cross-config subsumption tier of the admission oracle
  /// (engine/oracle/subsumption_index.h): admission is antitone in the
  /// slot population, so a probe never posed exactly can be answered by
  /// multiset inclusion against populations the verdict store has
  /// proved — sub-populations of safe ones are safe, super-populations
  /// of unsafe ones are unsafe, always under byte-identical verifier
  /// options. The dimensioning result is byte-identical either way; the
  /// tier pays off when the verdict cache is shared across solves of
  /// overlapping-but-not-equal populations (batch sweeps that add or
  /// drop applications). Requires memoize_admission (the index hangs off
  /// the verdict store); ignored without it.
  bool subsumption_admission = true;
  /// Analysis cache (engine/analysis): the stability certificate and
  /// dwell tables of each plant/gain/spec tuple are answered from this
  /// content-addressed cache instead of recomputed. Shared across solves
  /// (batch jobs, a serve process), scenarios that perturb arrival
  /// patterns but reuse the same plants pay the ~stability+dwell cost
  /// once instead of per job. nullptr gives the solve a private cache.
  std::shared_ptr<engine::analysis::AnalysisCache> analysis_cache;
  /// Thread budget of the per-application analysis phase (stability +
  /// dwell tables) and of the dwell-row search: 1 = serial (default),
  /// 0 = hardware concurrency. Results are independent of this value.
  int analysis_threads = 1;
  /// Thread budget of each discrete admission proof
  /// (verify::DiscreteVerifier::Options::proof_threads): 1 = serial
  /// (default), 0 = hardware concurrency. > 1 routes fresh full proofs
  /// to the Executor-parallel BFS driver; prefix-seeded extensions and
  /// witness/depth-first diagnostics stay serial (their discovery order
  /// is part of their contract). Results are independent of this value
  /// — like analysis_threads it is excluded from SolveKey, so warm and
  /// cold thread configurations share solve-result cache entries.
  int proof_threads = 1;
  /// Persistent second tier under the memory caches
  /// (engine/cache/disk_cache.h): analysis results, admission verdicts
  /// and whole-solve results survive the process, so a restarted daemon
  /// or a CI run restoring the directory starts warm. nullptr (default)
  /// disables the tier; the dimensioning result is byte-identical either
  /// way. The verdict space is consulted only with memoize_admission on.
  std::shared_ptr<engine::cache::DiskCache> disk_cache;
  /// Whole-solve result cache keyed by SolveKey (the full canonical
  /// input): a hit returns the complete Solution without running any
  /// pipeline phase. Layered over disk_cache's "solution" space when
  /// both are set. nullptr (default) disables the tier.
  std::shared_ptr<engine::cache::SolutionCache> solution_cache;

  SolveOptions() {}
};

/// Per-application artefacts of the analysis.
struct AppSolution {
  AppSpec spec;
  switching::DwellTables tables;
  verify::AppTiming timing;
  control::SwitchingStability stability;
};

/// Complete dimensioning result.
struct Solution {
  std::vector<AppSolution> apps;
  mapping::SlotAssignment proposed;          ///< model-checking admission
  mapping::SlotAssignment baseline_np;       ///< [9] strategy 1
  mapping::SlotAssignment baseline_delayed;  ///< [9] strategy 2
  /// Per-solve instrumentation (phase wall times, oracle/cache counters).
  /// Measurement only: excluded from engine::fingerprint.
  engine::oracle::SolveStats stats;

  /// Slot-count saving of the proposed strategy vs. the better baseline.
  [[nodiscard]] double saving_vs_baseline() const;
};

/// Content-addressed identity of a whole solve: the canonical
/// serialization of every AppSpec (in input order — the pipeline is
/// order-sensitive) plus the result-affecting SolveOptions fields
/// (settling, granularity, disturbance bound, stability requirement,
/// policy). Cache/thread toggles are excluded: they never change the
/// result (pinned by the fingerprint-equality tests), so warm and cold
/// configurations share solve-result cache entries. This is the
/// AppAnalysisKey idiom extended to complete specs — the key of the
/// whole-solve SolutionCache and of the disk tier's "solution" space.
struct SolveKey {
  std::string canonical;
  std::uint64_t hash = 0;

  [[nodiscard]] static SolveKey of(const std::vector<AppSpec>& specs,
                                   const SolveOptions& options);

  [[nodiscard]] friend bool operator==(const SolveKey& a, const SolveKey& b) {
    return a.canonical == b.canonical;
  }
  [[nodiscard]] friend bool operator!=(const SolveKey& a, const SolveKey& b) {
    return !(a == b);
  }
};

struct SolveKeyHash {
  [[nodiscard]] std::size_t operator()(const SolveKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

/// Round-trip binary codec for disk-cached solutions: apps (specs, dwell
/// tables, timings, stability verdicts) and all three assignments.
/// SolveStats is measurement, not result — it is excluded from the
/// encoding (like engine::fingerprint), and a decoded Solution carries
/// default stats for the caller to fill. decode_solution returns false
/// on malformed input and never throws.
void encode_solution(support::codec::Encoder& enc, const Solution& solution);
[[nodiscard]] bool decode_solution(support::codec::Decoder& dec,
                                   Solution& solution);

/// Run the full pipeline. Throws std::invalid_argument when a requirement
/// is unmeetable or (if required) a gain pair lacks switching stability.
/// One pass of a throwaway DimensioningSession (core/session.h) under
/// the hood — long-lived callers that re-dimension under churn hold a
/// session instead and call its solve()/redimension().
[[nodiscard]] Solution solve(const std::vector<AppSpec>& specs,
                             const SolveOptions& options = {});

/// Co-simulation: drive every application's switched loop with the slot
/// occupancy produced by the runtime scheduler for a concrete disturbance
/// scenario. Traces are per-application and start at that application's
/// disturbance tick (matching the paper's Figs. 8-9 plots). Applications
/// without a disturbance in the scenario get an empty trace.
struct CoSimResult {
  sched::ScheduleResult schedule;
  std::vector<control::Trace> traces;
  std::vector<std::optional<int>> settling;  ///< samples, per app
};
[[nodiscard]] CoSimResult cosimulate(const std::vector<AppSolution>& apps,
                                     const sched::Scenario& scenario,
                                     double settling_tol);

}  // namespace ttdim::core

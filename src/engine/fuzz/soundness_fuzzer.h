// The soundness fuzzer: a deterministic, seed-driven differential harness
// that cross-checks every tier of the admission oracle against fresh
// DiscreteVerifier proofs and against simulated deadline behaviour
// (sched::simulate_slot / core::cosimulate), in the spirit of
// coverage-guided differential testing and the paper's Fig. 8/9
// simulator cross-validation.
//
// Per iteration it:
//   1. generates a random application population (timing-level) and picks
//      verdict-affecting verifier options (policy, disturbance bound);
//   2. runs the first-fit mapping under the admission-oracle
//      configuration matrix (reference / exact-only / full-private /
//      full-shared — the SolveOptions-toggle matrix at mapping level —
//      plus a fresh-memory configuration over the persistent disk tier
//      when a cache directory is configured, and a configuration whose
//      fresh proofs and seeded extensions run with proof_threads = 2) and
//      requires identical slot assignments; admitted and rejected
//      populations are additionally re-proved at proof_threads 1 and 2,
//      which must return the same whole verdict (or both exhaust the
//      state budget);
//   3. re-verifies every admitted slot population with a fresh BFS and
//      simulates it against every ScenarioGenerator kind plus a max-rate
//      hyperperiod sweep — an admitted population must never miss a
//      deadline; rejected populations must reproduce their violation when
//      the verifier witness is replayed on the runtime scheduler;
//   4. probes sub-populations of admitted slots and super-populations of
//      rejected ones through the shared oracle (the antitone property,
//      and the deterministic way to exercise the exact/subsumption tiers
//      every iteration);
//   5. every solve_every-th iteration, runs the full core::solve pipeline
//      on perturbed case-study specs under toggled SolveOptions and
//      requires byte-identical fingerprints, then co-simulates the
//      proposed slots (and requires a rate past the verifier's limit to be
//      rejected); on the same cadence it walks a generated
//      ChurnTrace through a DimensioningSession (core/session.h),
//      cross-checking every redimensioned standing solution against
//      fresh admission proofs (removal-only deltas additionally against
//      proof-freeness and name-level byte-identity) and the final
//      population against a from-scratch solve.
//
// Any disagreement is greedily shrunk (drop applications, truncate
// arrivals, clamp the horizon) to a minimal counterexample and serialized
// as a replayable Artifact. The whole run is a pure function of
// (seed, iterations, flags): same seed, byte-identical trajectory and
// report (wall-clock budgets only ever cut the iteration sequence short).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/fuzz/artifact.h"

namespace ttdim::engine::cache {
class DiskCache;
}  // namespace ttdim::engine::cache

namespace ttdim::engine::fuzz {

struct FuzzConfig {
  std::uint64_t seed = 1;
  /// System families to generate. The trajectory is a pure function of
  /// (seed, iteration index), so a longer run strictly extends a shorter
  /// one.
  long iterations = 50;
  /// Wall-clock budget in seconds, checked between iterations; 0 = none.
  /// Stopping early truncates the trajectory but never alters it.
  double max_seconds = 0.0;
  /// Population size is uniform in [2, max_apps] (clamped to [2, 8]).
  int max_apps = 5;
  /// Every Nth iteration additionally runs the full core::solve
  /// cross-check on perturbed case-study specs; 0 disables (the
  /// timing-level loop alone still covers all oracle tiers).
  long solve_every = 0;
  /// Where shrunk counterexamples are serialized; empty = don't write.
  std::string artifacts_dir;
  /// Directory for a campaign-shared persistent DiskCache; empty = no disk
  /// tier. When set, the family-shared oracle configuration writes every
  /// proof through to disk and a fifth, fresh-memory oracle configuration
  /// re-answers the whole walk from the disk tier — its slot assignments
  /// must match the reference byte for byte, and every disk-served verdict
  /// is thereby cross-checked against a live proof trajectory. Report
  /// determinism holds for a fresh (empty) directory; a pre-warmed
  /// directory shifts tier counts but never assignments.
  std::string disk_cache_dir;
  /// Test-only hook (the acceptance path of the harness itself): flips
  /// every unsafe admission answer of populations with >= 2 members to
  /// "safe" *outside* the oracle, emulating an unsound verdict tier. The
  /// harness must catch it, shrink it, and emit a red-replaying artifact
  /// — asserted by tests/fuzz_harness_test.cpp and `ttdim_fuzz
  /// --self-check`.
  bool inject_unsound = false;
};

struct FuzzReport {
  std::uint64_t seed = 0;
  long iterations = 0;
  long systems = 0;
  /// Systems abandoned because a verifier run exhausted its state budget
  /// (counted, never silently dropped).
  long skipped_budget = 0;
  long solve_checks = 0;
  long probes = 0;                ///< admission queries posed to oracles
  long scenarios_simulated = 0;

  // Oracle-tier verdict accounting, aggregated over every oracle
  // instance the run created (the per-run analogue of SolveStats'
  // four-tier split). The nightly job fails loudly when any tier stayed
  // at zero — see missing_coverage().
  long exact_hits = 0;
  long subsumption_hits = 0;
  long subsumption_cuts = 0;
  long prefix_hits = 0;
  long fresh_proofs = 0;
  /// Exact hits answered from the persistent tier (a subset of
  /// exact_hits). Only meaningful — and only reported / coverage-checked —
  /// when the campaign ran with a disk cache directory.
  long disk_hits = 0;
  bool disk_enabled = false;
  /// Thread-budget verifier differentials performed: populations of the
  /// walk re-proved under proof_threads = 2 and compared against the
  /// serial verdict whole (safe, states_explored, violator; a budget
  /// throw on one side only is a mismatch). Zero is a coverage gap
  /// ("config:parallel") — the thread budget must never silently drop
  /// out of the campaign.
  long parallel_checks = 0;
  /// Churn differential walks performed (on the solve_every cadence): a
  /// DimensioningSession's standing solution is driven through a
  /// generated ChurnTrace and after every applied delta (a) each
  /// proposed slot must pass a fresh admission proof, (b) removal-only
  /// deltas must be proof-free and name-level byte-identical on the
  /// remaining slots, and (c) the final population must re-solve from
  /// scratch with per-application analysis artefacts identical to the
  /// session's. Zero while expected is a coverage gap
  /// ("config:redimension") — like parallel_checks, the redimension path
  /// must never silently drop out of the campaign.
  long redimension_checks = 0;
  /// Deltas applied across all churn walks (each walk applies one delta
  /// per usable trace event).
  long redimension_events = 0;
  /// Rate-boundary probes, one per solve check: its population with one
  /// r past verify::DiscreteVerifier::kMaxInterarrival must be rejected.
  /// Zero while expected is a coverage gap ("config:boundary").
  long boundary_checks = 0;
  /// Whether the campaign put solve checks and churn walks on the
  /// schedule (solve_every > 0) — only then is their absence a gap.
  bool solve_checks_expected = false;

  /// Simulated scenarios by kind name (the seven ScenarioGenerator kinds
  /// plus "hyperperiod" and "witness").
  std::map<std::string, long> scenario_kind_counts;

  long disagreements = 0;
  long artifacts_written = 0;
  std::vector<std::string> artifact_paths;
  /// One line per disagreement, shrunk form included.
  std::vector<std::string> disagreement_summaries;

  /// Silent-coverage-gap guard: every oracle tier and every scenario
  /// kind that was never exercised, as "tier:<name>" / "kind:<name>"
  /// entries. Empty = full coverage.
  [[nodiscard]] std::vector<std::string> missing_coverage() const;

  /// Canonical multi-line report. Byte-deterministic given (seed,
  /// iterations): contains no wall times, no paths other than the
  /// configured artifact directory.
  [[nodiscard]] std::string to_string() const;
};

/// Run the fuzz campaign. Throws only on harness-internal errors (e.g. an
/// unwritable artifacts_dir); disagreements are reported, not thrown.
[[nodiscard]] FuzzReport run_soundness_fuzz(const FuzzConfig& config);

/// Replay verdict of one artifact: fresh-verify the population under the
/// recorded options and re-simulate the recorded scenario, then compare
/// both against the recorded claim and expectation. `ok == false` means
/// the artifact disagrees with the current code — either a checked-in
/// regression resurfaced or a just-shrunk counterexample (which is
/// expected to replay red until the bug it found is fixed).
struct ReplayResult {
  bool ok = false;
  std::string message;  ///< human-readable verdict, one line
};
[[nodiscard]] ReplayResult replay(const Artifact& artifact);

/// Replay with a disk-backed oracle cross-check: in addition to the plain
/// replay() verdict, the population is admitted through a fresh-memory
/// oracle layered over `disk` and the answer must match the fresh proof.
/// On a disk miss this *writes* the proof, so replaying the seed corpus
/// against a directory both validates any pre-existing entries and warms
/// the directory for a following campaign. A null `disk` is plain replay().
[[nodiscard]] ReplayResult replay(
    const Artifact& artifact,
    const std::shared_ptr<engine::cache::DiskCache>& disk);

/// Translate a structured verifier witness into a runtime scenario with
/// forced grants (the construction of tests/replay_test.cpp, shared so
/// the harness and the tests cannot drift).
[[nodiscard]] sched::Scenario witness_scenario(
    const verify::SlotVerdict& verdict, std::size_t napps);

/// Max-rate periodic cross-check scenario: every application arrives at
/// its minimum inter-arrival rate from tick 0 over (a 4096-tick cap of)
/// the population's hyperperiod lcm(r_i), each final episode fully
/// simulated. The densest sustained load the sporadic model admits.
[[nodiscard]] sched::Scenario hyperperiod_scenario(
    const std::vector<verify::AppTiming>& apps);

/// Write the hand-picked seed corpus (boundary systems, a witness replay,
/// a case-study-derived slot) into `dir`, self-validating each entry via
/// replay(). Returns the written paths. Regenerate with
/// `ttdim_fuzz --mint-corpus tests/corpus` after intentional format or
/// semantics changes.
std::vector<std::string> mint_seed_corpus(const std::string& dir);

}  // namespace ttdim::engine::fuzz

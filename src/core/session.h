// Staged dimensioning pipeline with a standing solution: the session
// owns the caches, the admission oracle and the current Solution, so the
// heavy serving workload — *re*-dimensioning a live system as apps
// arrive, leave and get re-rated — reuses everything a cold solve had to
// build.
//
// A full pass runs the four explicit stages of core::solve
//
//   analysis  -> admission mapping -> baselines -> assembly
//
// and core::solve() itself is now a thin façade over one throwaway
// session pass (byte-identical to the pre-session monolith, pinned by
// the golden/fingerprint tests). On top of the standing solution,
// redimension(Delta) applies app additions / removals / re-rates
// incrementally:
//
//   removals   rewrite the assignment in place — proof-free: admission
//              is antitone in the slot population, so every remaining
//              slot (a sub-population of a proven-safe one) stays safe;
//   re-rates   probe the app's current slot with the re-analyzed timing
//              substituted in place (one oracle call, usually warm);
//              only a true conflict falls back to first-fit over the
//              other slots, then a fresh dedicated slot;
//   additions  first-fit into the existing slots through the warm
//              oracle; a new slot only when no existing slot admits.
//
// Every probe is posed as "slot members in insertion order + candidate
// appended" (mapping::first_fit_placement), so re-dimensioning hits the
// same verdict/snapshot entries the original solve populated. The
// returned solution therefore passes exactly the admission proofs a
// fresh solve would run — cross-checked by tests/redimension_test.cpp
// and the fuzzer's churn differential.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dimensioning.h"
#include "support/thread_annotations.h"

namespace ttdim::engine::oracle {
class IncrementalAdmissionOracle;
}  // namespace ttdim::engine::oracle

namespace ttdim::core {

/// One batch of population changes, applied atomically in the order
/// removals -> re-rates -> additions (so "remove X; add X" re-specs X
/// from scratch and a re-rate never races its own removal). Names are
/// the app identity: removals and re-rates must name standing apps,
/// additions must not collide with the post-removal population.
struct Delta {
  std::vector<std::string> remove;
  /// Replacement specs for standing apps (same name, new rate/plant/
  /// gains). The app is re-analyzed and kept in its slot when the slot
  /// still admits the new timing; only a conflict re-places it.
  std::vector<AppSpec> rerate;
  std::vector<AppSpec> add;

  [[nodiscard]] bool empty() const noexcept {
    return remove.empty() && rerate.empty() && add.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return remove.size() + rerate.size() + add.size();
  }
};

/// Long-lived dimensioning pipeline. Construction materializes every
/// cache the options enable (a nullptr cache field gets a private
/// session-lifetime cache — the admission tiers only when their flag is
/// on — where solve() used to build a private per-call one) and the
/// admission oracle; solve() runs one full
/// staged pass and installs the result as the standing solution;
/// redimension() edits the standing solution under the same proofs.
///
/// Thread-safe: the standing state is GUARDED_BY an annotated
/// support::Mutex (machine-checked by the clang thread-safety lane),
/// public methods serialize, and the caches/oracle are internally
/// synchronized — concurrent sessions may share them freely.
class DimensioningSession {
 public:
  explicit DimensioningSession(SolveOptions options = {});
  ~DimensioningSession();

  DimensioningSession(const DimensioningSession&) = delete;
  DimensioningSession& operator=(const DimensioningSession&) = delete;

  /// One full staged pass (analysis -> admission mapping -> baselines ->
  /// assembly); the result becomes the standing solution. Byte-identical
  /// to the pre-session core::solve for the same options (which is now
  /// exactly one pass of a throwaway session). Throws
  /// std::invalid_argument like solve() on unmeetable requirements; the
  /// standing solution is untouched on throw.
  [[nodiscard]] Solution solve(const std::vector<AppSpec>& specs);

  /// Apply `delta` to the standing solution (solve() must have
  /// succeeded first). Removals are proof-free; re-rates and additions
  /// are admitted through the warm oracle; baselines are recomputed.
  /// The updated solution becomes the standing solution and is returned.
  /// An empty delta is the identity (byte-identical standing solution,
  /// fresh stats). Throws std::invalid_argument on unknown/duplicate
  /// names, on a delta that empties the population, or on an unmeetable
  /// re-rate/addition requirement — the standing solution is untouched
  /// on throw. The result is deliberately NOT published to the
  /// whole-solve SolutionCache: a re-dimensioned assignment is
  /// history-dependent, generally not what a fresh solve of the same
  /// population would produce.
  [[nodiscard]] Solution redimension(const Delta& delta);

  [[nodiscard]] bool has_solution() const;
  /// Copy of the standing solution; throws std::logic_error when no
  /// solve() has succeeded yet.
  [[nodiscard]] Solution solution() const;
  /// Specs of the standing population, in assignment index order.
  [[nodiscard]] std::vector<AppSpec> specs() const;
  [[nodiscard]] const SolveOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Monotonic per-instance oracle counters, snapshotted before a stage
  /// so each pass reports its own delta (the analysis_evictions idiom).
  struct OracleCounters {
    long calls = 0, exact_hits = 0, subsumption_hits = 0,
         subsumption_cuts = 0, misses = 0, states = 0, prefix_hits = 0,
         states_reused = 0, states_extended = 0, parallel_proofs = 0;
  };
  [[nodiscard]] OracleCounters counters() const;
  void stamp_oracle(engine::oracle::SolveStats& stats,
                    const OracleCounters& before) const;

  // ---- Pipeline stages. Stage functions accumulate into `stats` so a
  // redimension pass can run a stage more than once. ----------------------
  [[nodiscard]] std::vector<AppSolution> stage_analysis(
      const std::vector<AppSpec>& specs,
      engine::oracle::SolveStats& stats) const;
  [[nodiscard]] mapping::SlotAssignment stage_mapping(
      const std::vector<verify::AppTiming>& timings,
      const std::vector<int>& order, engine::oracle::SolveStats& stats) const;
  void stage_baselines(Solution& solution,
                       const std::vector<verify::AppTiming>& timings,
                       const std::vector<int>& order,
                       engine::oracle::SolveStats& stats) const;

  void validate_delta_locked(const Delta& delta) const REQUIRES(mutex_);
  /// First-fit `idx` into the existing slots (new dedicated slot when
  /// none admits), bumping the redimension refit/new-slot counters.
  void place_app(Solution& solution, int idx,
                 engine::oracle::SolveStats& stats) const;

  const SolveOptions options_;  ///< caches materialized, immutable
  const int proof_threads_;     ///< resolved once, mirrored into stats
  std::unique_ptr<engine::oracle::IncrementalAdmissionOracle> oracle_;

  mutable support::Mutex mutex_;
  std::optional<Solution> solution_ GUARDED_BY(mutex_);
};

}  // namespace ttdim::core

// Exact discrete-time verifier for one shared TT slot.
//
// The system the paper verifies is sampled: disturbances are *seen* at
// sampling ticks, all scheduler decisions happen at ticks, and with integer
// minimum inter-arrival times the continuous-time sporadic model projects
// exactly onto ticks (DESIGN.md Sec. 4). The reachability question "can any
// application still be waiting when its clock passes T*w" is therefore
// decidable by breadth-first search over a finite discrete state space.
// This is the workhorse verifier; ta_model.h builds the paper's
// UPPAAL-style network of timed automata for the same question and the two
// are cross-checked in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/app_timing.h"
#include "verify/policy.h"

namespace ttdim::verify {

/// One sample of a structured counterexample: which applications'
/// disturbances were seen at this tick and which application the slot was
/// granted to (-1: none). Feeding these into sched::simulate_slot (as the
/// scenario's disturbances + forced grants) replays the violation on the
/// runtime scheduler — tested in tests/sched_verify_replay_test.cpp.
struct WitnessTick {
  std::vector<int> disturbed;
  int granted = -1;
};

[[nodiscard]] inline bool operator==(const WitnessTick& a,
                                     const WitnessTick& b) {
  return a.disturbed == b.disturbed && a.granted == b.granted;
}
[[nodiscard]] inline bool operator!=(const WitnessTick& a,
                                     const WitnessTick& b) {
  return !(a == b);
}

/// Verdict of a slot-sharing verification.
struct SlotVerdict {
  bool safe = false;
  long states_explored = 0;
  /// Human-readable witness of the requirement violation (empty when safe
  /// or when witnesses were not requested).
  std::vector<std::string> witness;
  /// Structured counterpart of `witness`: one entry per tick, oldest
  /// first (the violation happens on the tick after the last entry).
  std::vector<WitnessTick> witness_ticks;
  /// App index that overshot its T*w (valid when !safe and witnesses were
  /// requested).
  int violator = -1;
};

/// Full structural equality — used by the oracle tests to assert that a
/// cached verdict is indistinguishable from a fresh one.
[[nodiscard]] inline bool operator==(const SlotVerdict& a,
                                     const SlotVerdict& b) {
  return a.safe == b.safe && a.states_explored == b.states_explored &&
         a.witness == b.witness && a.witness_ticks == b.witness_ticks &&
         a.violator == b.violator;
}
[[nodiscard]] inline bool operator!=(const SlotVerdict& a,
                                     const SlotVerdict& b) {
  return !(a == b);
}

/// Round-trip binary codec for disk-cached verdicts (full structure
/// including witness text and ticks, so a disk hit is indistinguishable
/// from the verdict that was stored). decode returns false on malformed
/// input and never throws.
void encode(support::codec::Encoder& enc, const SlotVerdict& verdict);
[[nodiscard]] bool decode(support::codec::Decoder& dec, SlotVerdict& verdict);

/// Snapshot of a *completed* safe exploration: every reachable pre-tick
/// state, packed 3 bytes per application, one record per state in BFS
/// discovery order (the first record is always the all-steady initial
/// state). A completed proof has an empty frontier, so the snapshot *is*
/// the frontier of any extension: when applications are appended, every
/// recorded state may spawn successors that involve the new applications,
/// and the extension BFS re-enqueues all of them (see
/// DiscreteVerifier::verify below for the soundness argument).
struct ExplorationState {
  /// Number of applications the records describe (record stride is
  /// 3 * napps bytes).
  std::size_t napps = 0;
  /// Concatenated records, discovery order.
  std::vector<std::uint8_t> packed;

  [[nodiscard]] std::size_t state_count() const noexcept {
    return napps == 0 ? 0 : packed.size() / (3 * napps);
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return packed.size();
  }
};

/// Exhaustive discrete-time verifier for a set of applications sharing one
/// TT slot under the paper's strategy: EDF-like arbitration on deadline
/// T*w - Tw, non-preemptive until T-dw(Tw), preemptable in
/// [T-dw, T+dw), evicted at T+dw.
class DiscreteVerifier {
 public:
  /// Cap on applications for the allocation-free state key: one 8-byte
  /// code per state, each app's (mode, elapsed, wait at grant,
  /// disturbance count) a dense index in its own bit field, the widths
  /// taken from the slot's timings (the Table-1 apps need 7–8 bits each).
  /// Larger populations, and the rare ones whose fields would need more
  /// than 63 bits (long r or T*w, or a large disturbance budget), fall
  /// back to a heap-backed key of 3 bytes per app — same search, same
  /// verdicts, slower per state — so oversized generated scenarios solve
  /// instead of throwing.
  static constexpr std::size_t kMaxApps = 5;
  /// Absolute cap: beyond this the 2^napps disturbance branching is
  /// intractable under any representation and the constructor refuses.
  static constexpr std::size_t kMaxAppsUnpacked = 62;
  /// Largest min inter-arrival r (samples) the constructor accepts: states
  /// count samples in bytes, and AppTiming::validate bounds the rest by r.
  static constexpr int kMaxInterarrival = 249;

  /// State-representation override for tests: kAuto picks the 8-byte
  /// code (the heap key where it does not fit, see kMaxApps); kUnpacked
  /// forces the heap key.
  /// Verdicts are identical by construction — the equality is pinned by
  /// tests/discrete_large_test.cpp — so this never enters the oracle
  /// layer's cache keys.
  enum class StateBackend { kAuto, kUnpacked };

  struct Options {
    /// Cap on disturbance instances per application; < 0 explores the full
    /// sporadic behaviour (paper Sec. 5 "comments on verification time"
    /// uses the bounded variant to accelerate).
    int max_disturbances_per_app = -1;
    long max_states = 200'000'000;
    bool want_witness = false;
    /// Arbitration policy under verification: the paper's
    /// preempt-at-T-dw, or the slack-aware postponement extension
    /// (paper Sec. 6 future work; see verify/policy.h).
    SlotPolicy policy = SlotPolicy::kPaper;
    /// Depth-first exploration reaches requirement violations much faster
    /// (it dives into the simultaneous-disturbance branches); breadth-first
    /// (default) yields shortest witnesses and is the sensible choice when
    /// the verdict is expected to be "safe". The verdict itself is
    /// identical either way.
    bool depth_first = false;
    /// Testing hook, see StateBackend.
    StateBackend backend = StateBackend::kAuto;
    /// Thread budget for this proof. Ignored: every proof runs the one
    /// search on the calling thread, so no value changes a verdict, a
    /// budget throw, a snapshot or a seeded extension. Never part of
    /// oracle cache keys. Kept only so that existing callers that set it
    /// still compile; it goes once they stop.
    int proof_threads = 1;

    Options() {}
  };

  explicit DiscreteVerifier(std::vector<AppTiming> apps);

  /// Runs the reachability analysis. Throws std::runtime_error when the
  /// state budget is exhausted.
  [[nodiscard]] SlotVerdict verify(const Options& options = {}) const;

  /// Reachability analysis with prefix reuse (the incremental admission
  /// oracle's workhorse, engine/oracle/incremental_oracle.h).
  ///
  /// `extend_from`, when non-null, must be the snapshot of a *safe*
  /// exploration of apps()[0 .. extend_from->napps) under the same
  /// options; the search then seeds its visited set and queue with every
  /// recorded state (appended applications all steady) instead of just
  /// the initial state.
  ///
  /// Soundness ("appending is conservative"): an appended application's
  /// state dimensions are disjoint from the prefix's, and while it stays
  /// steady it is invisible to every transition rule — it elapses nothing
  /// in phase 1, joins no waiter scan, and competes in no grant. The
  /// prefix system therefore embeds exactly into the extended one via
  /// "appended apps remain steady", so (a) every seeded state is genuinely
  /// reachable in the extended system (no spurious counterexamples), and
  /// (b) the seeded closure equals the from-scratch reachable set because
  /// the true initial state is the first seed. Safe verdicts are
  /// byte-identical to from-scratch runs (states_explored counts exactly
  /// the reachable set either way); unsafe verdicts agree on `safe` but
  /// may report a different violation (the search meets the error from a
  /// different direction), which is why the oracle layer never caches
  /// them. The invariants are asserted at seeding time.
  ///
  /// `capture`, when non-null, receives the snapshot of this run's
  /// reachable set if (and only if) the verdict is safe.
  ///
  /// Both features require the default breadth-first traversal and no
  /// witness recording; violations are precondition failures.
  [[nodiscard]] SlotVerdict verify(const Options& options,
                                   const ExplorationState* extend_from,
                                   ExplorationState* capture) const;

  [[nodiscard]] const std::vector<AppTiming>& apps() const noexcept {
    return apps_;
  }

 private:
  std::vector<AppTiming> apps_;
};

}  // namespace ttdim::verify

// The incremental admission oracle: the four-tier layer between the
// mapping walks (mapping::first_fit / best_fit, core::solve) and
// verify::DiscreteVerifier.
//
//   tier 1  exact hit      — the canonical SlotConfigKey is already in the
//                            VerdictCache;
//   tier 2  subsumption    — a never-seen probe is answered by multiset
//                            inclusion against the populations the verdict
//                            store has proved: admission is antitone, so a
//                            sub-population of a safe one is safe and a
//                            super-population of an unsafe one is unsafe
//                            (subsumption_index.h details the argument and
//                            its byte-identical-options guard);
//   tier 3  prefix hit     — the probe's ordered prefix {slot} has a
//                            reachable-set snapshot in the SnapshotCache,
//                            and the verifier extends that snapshot with
//                            the appended candidate instead of re-proving
//                            the prefix from scratch;
//   tier 4  fresh proof    — full BFS from the initial state.
//
// Tiers 3 and 4 capture the snapshot of every *safe* proof, so a slot's
// population — which is exactly the prefix of every later probe against
// that slot — is explored at most once per cache lifetime. Admission
// answers are identical across tiers by construction (discrete.h details
// the prefix soundness argument); safe verdicts of tiers 1/3/4 are
// byte-identical, unsafe ones agree on `safe` but may differ in the
// violation found, which is why only safe verdicts enter the
// VerdictCache. Tier-2 answers are admission booleans synthesized from
// inclusion — their verdict carries no state count — so they are never
// cached and never re-noted; every population the index holds was proved
// by a real verifier run.
//
// Thread-safe: concurrent queries contend only on the cache mutexes and
// the atomic counters. Those mutexes are the
// annotated support::Mutex (support/thread_annotations.h) throughout the
// cache layer, so the locking discipline this oracle leans on — including
// the note-then-insert protocol's eviction-hook obligations — is proven
// by the clang -Wthread-safety lane, not just exercised by TSan.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "engine/oracle/slot_config_key.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "mapping/first_fit.h"
#include "verify/discrete.h"

namespace ttdim::engine::cache {
class DiskCache;
}  // namespace ttdim::engine::cache

namespace ttdim::engine::oracle {

class IncrementalAdmissionOracle {
 public:
  /// Either cache may be nullptr to disable its tier: (nullptr, nullptr)
  /// verifies every query fresh (the reference behaviour), (cache,
  /// nullptr, false) is the two-tier exact-hit-or-fresh-proof oracle
  /// (oracle_cache_test pins it), and a shared
  /// SnapshotCache extends prefix reuse across solves (batch jobs, a
  /// serve process). `subsumption` gates tier 2 — it lives in the
  /// verdict store's SubsumptionIndex, so it needs `verdicts` non-null
  /// and is shared exactly as far as the verdict cache is; disabled (or
  /// with no verdict store) the oracle reproduces the PR-3 three-tier
  /// behaviour, including never touching the index.
  ///
  /// `disk`, when non-null (and `verdicts` is too), adds a persistent
  /// tier between the exact hit and subsumption: a memory miss consults
  /// the disk "verdict" space, and a decoded entry re-enters the memory
  /// tiers exactly as the original proof did (safe verdicts are inserted
  /// and noted, unsafe ones only noted — the memory cache's safe-only
  /// invariant holds) before being returned as an exact hit. Every real
  /// proof is written through (safe verdicts in full, unsafe ones as a
  /// bare marker, since their details are query-order-dependent);
  /// tier-2 synthesized answers are not — the population that answered
  /// them is already stored. Results stay byte-identical tier on/off.
  ///
  /// `options.proof_threads > 1` routes fresh full proofs (tier 4 with
  /// no prefix seed, and the cacheless reference path) to the verifier's
  /// Executor-parallel driver; prefix-seeded extensions and witness /
  /// depth-first diagnostics always run serial, since their discovery
  /// order is part of their contract. Parallel proofs capture no
  /// snapshot, so the tier-3 seed of future extensions is traded for
  /// this proof's wall time. Admission answers — and cached verdicts —
  /// are identical either way (verify/discrete.h pins the contract).
  IncrementalAdmissionOracle(verify::DiscreteVerifier::Options options,
                             std::shared_ptr<VerdictCache> verdicts,
                             std::shared_ptr<SnapshotCache> snapshots,
                             bool subsumption = true,
                             std::shared_ptr<cache::DiskCache> disk = nullptr);

  /// Full verdict for one slot population. Witness queries
  /// (options.want_witness) and depth-first traversals bypass both caches
  /// and verify fresh.
  [[nodiscard]] verify::SlotVerdict verify(
      const std::vector<verify::AppTiming>& slot_apps) const;

  /// Admission answer (verdict.safe).
  [[nodiscard]] bool admit(
      const std::vector<verify::AppTiming>& slot_apps) const;

  /// Adapter for the mapping walks. The returned closure references this
  /// oracle; it must not outlive it.
  [[nodiscard]] mapping::SlotOracle slot_oracle() const;

  [[nodiscard]] const std::shared_ptr<VerdictCache>& verdict_cache()
      const noexcept {
    return verdicts_;
  }
  [[nodiscard]] const std::shared_ptr<SnapshotCache>& snapshot_cache()
      const noexcept {
    return snapshots_;
  }
  [[nodiscard]] const verify::DiscreteVerifier::Options& options()
      const noexcept {
    return options_;
  }

  // Counters for this oracle instance (shared caches aggregate their own
  // stats across instances; these stay per-solve).
  [[nodiscard]] long calls() const noexcept { return calls_.load(); }
  /// Tier-1 answers served from the VerdictCache. Disk-tier answers
  /// count here too (they re-enter through the same exact-key door), so
  /// the identity calls = exact + subsumption hits/cuts + misses holds
  /// with the disk tier on; disk_hits() splits them out.
  [[nodiscard]] long exact_hits() const noexcept { return exact_hits_.load(); }
  /// The subset of exact_hits answered from the disk tier.
  [[nodiscard]] long disk_hits() const noexcept { return disk_hits_.load(); }
  /// Tier-2 safe answers: probe included in a proven-safe population.
  [[nodiscard]] long subsumption_hits() const noexcept {
    return subsumption_hits_.load();
  }
  /// Tier-2 unsafe answers: probe includes a proven-unsafe population
  /// (a refutation shortcut — no dive, no search).
  [[nodiscard]] long subsumption_cuts() const noexcept {
    return subsumption_cuts_.load();
  }
  /// Queries that had to run the verifier (tiers 3 and 4).
  [[nodiscard]] long misses() const noexcept { return misses_.load(); }
  /// Tier-3 runs: verifier extended a cached prefix snapshot.
  [[nodiscard]] long prefix_hits() const noexcept {
    return prefix_hits_.load();
  }
  /// Fresh proofs run on the Executor-parallel BFS driver
  /// (options().proof_threads > 1 and no prefix seed; seeded
  /// extensions and witness/DF diagnostics always run serial).
  [[nodiscard]] long parallel_proofs() const noexcept {
    return parallel_proofs_.load();
  }
  /// States explored by verifier runs issued through this oracle.
  [[nodiscard]] long states_explored() const noexcept {
    return states_.load();
  }
  /// States seeded from prefix snapshots instead of being re-derived.
  [[nodiscard]] long states_reused() const noexcept {
    return states_reused_.load();
  }
  /// States a prefix-seeded run explored beyond its seeds.
  [[nodiscard]] long states_extended() const noexcept {
    return states_extended_.load();
  }

 private:
  verify::DiscreteVerifier::Options options_;
  std::shared_ptr<VerdictCache> verdicts_;
  std::shared_ptr<SnapshotCache> snapshots_;
  bool subsumption_;
  std::shared_ptr<cache::DiskCache> disk_;
  mutable std::atomic<long> calls_{0};
  mutable std::atomic<long> exact_hits_{0};
  mutable std::atomic<long> disk_hits_{0};
  mutable std::atomic<long> subsumption_hits_{0};
  mutable std::atomic<long> subsumption_cuts_{0};
  mutable std::atomic<long> misses_{0};
  mutable std::atomic<long> prefix_hits_{0};
  mutable std::atomic<long> parallel_proofs_{0};
  mutable std::atomic<long> states_{0};
  mutable std::atomic<long> states_reused_{0};
  mutable std::atomic<long> states_extended_{0};
};

}  // namespace ttdim::engine::oracle

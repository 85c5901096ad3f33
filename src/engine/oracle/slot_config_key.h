// Canonical identity of an admission query: the set of applications posed
// to verify::DiscreteVerifier plus the verifier options that influence the
// verdict. The key is order-independent — first-fit probes the same slot
// population in whatever order the walk produced it, and a slot's
// admissibility does not depend on member order — and name-independent,
// because the verdict is a function of the timing parameters only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "verify/app_timing.h"
#include "verify/discrete.h"

namespace ttdim::engine::oracle {

/// FNV-1a over a byte string — the one hash primitive of the oracle
/// layer: SlotConfigKey spreads buckets with it (equality re-checks the
/// canonical bytes) and the SubsumptionIndex derives its per-member
/// signature bits from it. Shared so the constants can never diverge.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Canonical decomposition of a (set) key: the sorted per-app timing
/// tokens and the verdict-affecting options suffix, i.e. exactly the two
/// halves the canonical serialization concatenates. This is the domain
/// of the subsumption tier (engine/oracle/subsumption_index.h): two
/// populations are subsumption-comparable only under byte-identical
/// `options` (policy, disturbance bound AND state budget — a verdict
/// proven under one budget says nothing about another), and within that
/// group the admission check is antitone in the multiset `apps` — any
/// sub-multiset of a safe population is safe, any super-multiset of an
/// unsafe one is unsafe. Each token serializes one application's full
/// timing abstraction (T*w, r, T-dw[], T+dw[] — names excluded), so
/// multiset inclusion over tokens is inclusion over timing-identical
/// application populations.
struct SlotPopulationTokens {
  std::vector<std::string> apps;  ///< sorted per-app serializations
  std::string options;            ///< "p=<policy>;d=<dist>;s=<budget>"
};

/// Value key for the verdict cache. `canonical` is the full normalized
/// serialization (equality never trusts the hash alone: an admission
/// cache must not return a colliding entry's verdict).
struct SlotConfigKey {
  std::string canonical;
  std::uint64_t hash = 0;

  /// Build the canonical key: per-app timing serializations (T*w, r,
  /// T-dw[], T+dw[] — names excluded) sorted lexicographically, followed
  /// by the verdict-affecting options: policy, disturbance bound and the
  /// state budget (a smaller budget can turn a completed proof into a
  /// budget-exhausted throw, so sharing verdicts across budgets would
  /// make memoization observable). Witness/traversal options are
  /// excluded — the oracle caches only exhaustive safe verdicts
  /// and bypasses the cache for witness queries. proof_threads is
  /// likewise excluded: serial and parallel proofs are contractually
  /// interchangeable (identical verdicts, identical safe state counts —
  /// verify/discrete.h), so they share cache entries.
  [[nodiscard]] static SlotConfigKey of(
      const std::vector<verify::AppTiming>& apps,
      const verify::DiscreteVerifier::Options& options);

  /// The canonical decomposition `of` concatenates: sorted per-app
  /// tokens + options suffix. `of(tokens_of(apps, o))` is byte-identical
  /// to `of(apps, o)` (pinned by tests/subsumption_test.cpp), so a
  /// caller that needs both the inclusion domain and the cache key
  /// serializes each application once.
  [[nodiscard]] static SlotPopulationTokens tokens_of(
      const std::vector<verify::AppTiming>& apps,
      const verify::DiscreteVerifier::Options& options);

  /// Reassemble the canonical key from its decomposition.
  [[nodiscard]] static SlotConfigKey of(const SlotPopulationTokens& tokens);

  /// The options suffix ("p=..;d=..;s=..") of this key — the grouping
  /// domain of the subsumption index. Works for canonical and ordered
  /// keys alike: app tokens and the "ord:" tag draw from [0-9,;+-:], so
  /// '=' first appears in the suffix.
  [[nodiscard]] std::string_view options_suffix() const;

  /// Key of the *ordered* prefix apps[0 .. prefix_len): the identity of a
  /// reachable-set snapshot (engine/oracle/snapshot_cache.h). Unlike the
  /// canonical set key above, member order is preserved — a snapshot's
  /// packed records assign byte positions by app index, so it is only
  /// reusable by a probe whose first prefix_len members match in order.
  /// First-fit probes are built as "slot members in insertion order +
  /// candidate appended", which keeps these prefixes stable across the
  /// whole walk (and across solves sharing a snapshot cache). A distinct
  /// tag keeps ordered keys from ever colliding with canonical ones.
  [[nodiscard]] static SlotConfigKey prefix_of(
      const std::vector<verify::AppTiming>& apps, std::size_t prefix_len,
      const verify::DiscreteVerifier::Options& options);

  friend bool operator==(const SlotConfigKey& a, const SlotConfigKey& b) {
    return a.hash == b.hash && a.canonical == b.canonical;
  }
  friend bool operator!=(const SlotConfigKey& a, const SlotConfigKey& b) {
    return !(a == b);
  }
};

struct SlotConfigKeyHash {
  [[nodiscard]] std::size_t operator()(const SlotConfigKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

}  // namespace ttdim::engine::oracle

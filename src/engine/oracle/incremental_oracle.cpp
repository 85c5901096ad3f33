#include "engine/oracle/incremental_oracle.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "engine/cache/disk_cache.h"
#include "support/codec.h"

namespace ttdim::engine::oracle {

namespace {

constexpr const char* kDiskSpace = "verdict";

// Disk payload: a 1-byte tag, then for safe verdicts the full structure
// (a disk hit must be indistinguishable from the proof that was stored).
// Unsafe verdicts store the tag alone: their details (violator, state
// count) depend on the query that found them — the same reason the
// memory VerdictCache never holds them — so only the admission boolean,
// which IS invariant, persists.
std::string encode_disk_verdict(const verify::SlotVerdict& verdict) {
  std::string out;
  support::codec::Encoder enc(out);
  if (verdict.safe) {
    enc.u8(1);
    verify::encode(enc, verdict);
  } else {
    enc.u8(0);
  }
  return out;
}

std::optional<verify::SlotVerdict> decode_disk_verdict(
    const std::string& blob) {
  support::codec::Decoder dec(blob);
  std::uint8_t tag = 0;
  if (!dec.u8(tag) || tag > 1) return std::nullopt;
  verify::SlotVerdict verdict;
  if (tag == 1) {
    if (!verify::decode(dec, verdict) || !dec.done() || !verdict.safe)
      return std::nullopt;
  } else {
    if (!dec.done()) return std::nullopt;
    verdict.safe = false;
  }
  return verdict;
}

}  // namespace

IncrementalAdmissionOracle::IncrementalAdmissionOracle(
    verify::DiscreteVerifier::Options options,
    std::shared_ptr<VerdictCache> verdicts,
    std::shared_ptr<SnapshotCache> snapshots, bool subsumption,
    std::shared_ptr<cache::DiskCache> disk)
    : options_(options),
      verdicts_(std::move(verdicts)),
      snapshots_(std::move(snapshots)),
      subsumption_(subsumption && verdicts_ != nullptr),
      // The disk tier re-enters answers through the memory verdict store
      // (insert + subsumption notes), so it requires one.
      disk_(verdicts_ != nullptr ? std::move(disk) : nullptr) {}

verify::SlotVerdict IncrementalAdmissionOracle::verify(
    const std::vector<verify::AppTiming>& slot_apps) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  // Witness and depth-first queries bypass every tier: witnesses need
  // parenthood the seeded search cannot reconstruct, and depth-first
  // traversal invalidates the FIFO discovery log the snapshots are built
  // from. Both re-prove fresh (they are rare, diagnostic queries).
  const bool bypass = options_.want_witness || options_.depth_first;
  if (bypass || (verdicts_ == nullptr && snapshots_ == nullptr)) {
    const verify::DiscreteVerifier verifier(slot_apps);
    verify::SlotVerdict verdict = verifier.verify(options_);
    states_.fetch_add(verdict.states_explored, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return verdict;
  }

  // ---- Tier 1: exact hit on the canonical (order-independent) key. ------
  // The decomposition is computed once: the tokens are the subsumption
  // tier's inclusion domain, and their concatenation is the cache key.
  const SlotPopulationTokens tokens =
      SlotConfigKey::tokens_of(slot_apps, options_);
  const SlotConfigKey key = SlotConfigKey::of(tokens);
  if (verdicts_ != nullptr) {
    if (std::optional<verify::SlotVerdict> cached = verdicts_->lookup(key)) {
      exact_hits_.fetch_add(1, std::memory_order_relaxed);
      return *std::move(cached);
    }
  }

  // ---- Tier 1.5: persistent exact hit. ----------------------------------
  // A prior process proved this exact population: decode its verdict and
  // re-enter it through the memory tiers exactly as the original proof
  // did — note-then-insert for safe, note only for unsafe — so the rest
  // of this solve behaves as if the proof had happened here. A malformed
  // payload falls through to a cold proof (the entry ages out via trim).
  if (disk_ != nullptr) {
    if (const auto blob = disk_->get(kDiskSpace, key.canonical)) {
      if (std::optional<verify::SlotVerdict> stored =
              decode_disk_verdict(*blob)) {
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
        exact_hits_.fetch_add(1, std::memory_order_relaxed);
        if (stored->safe) {
          if (subsumption_) verdicts_->subsumption().note_safe(key, tokens);
          verdicts_->insert(key, *stored);
        } else if (subsumption_) {
          verdicts_->subsumption().note_unsafe(key, tokens);
        }
        return *std::move(stored);
      }
    }
  }

  // ---- Tier 2: cross-config subsumption. --------------------------------
  // A never-seen probe included in a proven-safe population (or including
  // a proven-unsafe one) is answered by antitonicity without any search.
  // The synthesized verdict carries only the admission boolean (the
  // probe's own reachable set was never explored, so states_explored
  // stays 0); it is never cached — the index entry that answered it is
  // strictly stronger — and the walk consumes only `safe`.
  if (subsumption_) {
    if (std::optional<SubsumptionIndex::ProbeAnswer> included =
            verdicts_->subsumption().probe(tokens)) {
      (included->safe ? subsumption_hits_ : subsumption_cuts_)
          .fetch_add(1, std::memory_order_relaxed);
      // A safe match is backed by a cached verdict whose LRU recency
      // would otherwise never be touched (the probes it answers carry
      // different keys): refresh it here, outside both locks, so the
      // populations answering the most inclusion probes are the last
      // ones evicted — mirroring the unsafe side's internal refresh.
      // touch(), not lookup(): the store's hit rate keeps reflecting
      // only the exact-hit traffic it served itself.
      if (included->safe) verdicts_->touch(included->source);
      verify::SlotVerdict verdict;
      verdict.safe = included->safe;
      return verdict;
    }
  }

  // ---- Tier 3: longest cached ordered prefix. ---------------------------
  // A snapshot of the *whole* ordered population is itself an exact
  // answer: it only exists for a completed safe proof, whose verdict is
  // fully determined by the record count (safe, states = |reachable set|,
  // no witness) — no search needed, e.g. when only the snapshot cache is
  // shared across solves. Shorter prefixes seed the search instead.
  std::shared_ptr<const verify::ExplorationState> seed;
  if (snapshots_ != nullptr) {
    for (std::size_t len = slot_apps.size(); len >= 1; --len) {
      seed = snapshots_->lookup(
          SlotConfigKey::prefix_of(slot_apps, len, options_));
      if (seed == nullptr) continue;
      if (len == slot_apps.size()) {
        exact_hits_.fetch_add(1, std::memory_order_relaxed);
        verify::SlotVerdict verdict;
        verdict.safe = true;
        verdict.states_explored = static_cast<long>(seed->state_count());
        // Note-then-insert: the verdict store's eviction hook erases
        // noted populations, so noting first means the hook can never
        // run for a key the index has not seen yet.
        if (subsumption_) verdicts_->subsumption().note_safe(key, tokens);
        if (verdicts_ != nullptr) verdicts_->insert(key, verdict);
        // A full-population snapshot answer is a real proof's verdict
        // (count of its reachable set), so it persists like one.
        if (disk_ != nullptr)
          disk_->put(kDiskSpace, key.canonical, encode_disk_verdict(verdict));
        return verdict;
      }
      break;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  const verify::DiscreteVerifier verifier(slot_apps);

  // A breadth-first search seeded with the whole prefix reachable set is
  // the fastest way to *prove* the extension safe, but the slowest way to
  // *refute* it: a violation that lies a few ticks beyond one seed hides
  // behind the full breadth of all of them. Unsafe extensions are instead
  // caught by a bounded depth-first dive from the initial state — it
  // plunges into the simultaneous-disturbance branches and meets typical
  // violations within a few hundred states. Budget-exhaustion means
  // "probably safe": fall through to the seeded proof. The dive explores
  // reachable states only, so an unsafe answer is exact; its verdict
  // details (violator, state count) differ from a from-scratch BFS, which
  // is fine for verdicts that are never cached.
  if (seed != nullptr) {
    verify::DiscreteVerifier::Options refute = options_;
    refute.depth_first = true;
    refute.max_states =
        std::min(options_.max_states,
                 std::max<long>(1024, static_cast<long>(seed->state_count())));
    try {
      verify::SlotVerdict dive = verifier.verify(refute);
      states_.fetch_add(dive.states_explored, std::memory_order_relaxed);
      if (!dive.safe) {
        // The dive's refutation is exact (it explores reachable states
        // only), so the population is genuinely unsafe: record it for
        // the subsumption tier — its supersets are unsafe too.
        if (subsumption_) verdicts_->subsumption().note_unsafe(key, tokens);
        if (disk_ != nullptr)
          disk_->put(kDiskSpace, key.canonical, encode_disk_verdict(dive));
        return dive;
      }
      // Safe within the dive budget: the reachable set is small, but the
      // snapshot still needs the FIFO discovery log — fall through to the
      // (equally small) seeded proof. Verdicts agree byte-for-byte: both
      // count exactly the reachable set.
    } catch (const std::runtime_error&) {
      // Budget exhausted — inconclusive (the dive's states are not
      // reported: the verdict object never materialized).
    }
  }

  // ---- Tier 4 (or seeded tier 3): run the verifier. ---------------------
  verify::ExplorationState captured;
  verify::ExplorationState* capture =
      snapshots_ != nullptr ? &captured : nullptr;
  verify::SlotVerdict verdict = verifier.verify(options_, seed.get(), capture);
  states_.fetch_add(verdict.states_explored, std::memory_order_relaxed);
  if (seed != nullptr) {
    const long reused = static_cast<long>(seed->state_count());
    prefix_hits_.fetch_add(1, std::memory_order_relaxed);
    states_reused_.fetch_add(reused, std::memory_order_relaxed);
    states_extended_.fetch_add(verdict.states_explored - reused,
                               std::memory_order_relaxed);
  }

  if (verdict.safe) {
    // Only safe verdicts are cached: they are exhaustive, so every field
    // is invariant under member permutation and traversal origin (a
    // seeded run counts exactly the same reachable set). An unsafe
    // verdict stops at the first violation found, so its violator and
    // state count depend on the query/seed; those re-prove fresh (they
    // are the cheap case: the search stops early). Snapshots likewise
    // exist only for completed — safe — explorations. The population
    // itself is noted either way: the subsumption tier needs only the
    // admission boolean, which IS invariant.
    if (subsumption_) verdicts_->subsumption().note_safe(key, tokens);
    if (verdicts_ != nullptr) verdicts_->insert(key, verdict);
    if (capture != nullptr)
      snapshots_->insert(
          SlotConfigKey::prefix_of(slot_apps, slot_apps.size(), options_),
          std::move(captured));
  } else if (subsumption_) {
    verdicts_->subsumption().note_unsafe(key, tokens);
  }
  if (disk_ != nullptr)
    disk_->put(kDiskSpace, key.canonical, encode_disk_verdict(verdict));
  return verdict;
}

bool IncrementalAdmissionOracle::admit(
    const std::vector<verify::AppTiming>& slot_apps) const {
  return verify(slot_apps).safe;
}

mapping::SlotOracle IncrementalAdmissionOracle::slot_oracle() const {
  return [this](const std::vector<verify::AppTiming>& slot_apps) {
    return admit(slot_apps);
  };
}

}  // namespace ttdim::engine::oracle

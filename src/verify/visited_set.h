// Dedup machinery of the discrete-time verifier's BFS: the two state keys
// (the dense 8-byte code and the heap-backed byte key) with their hashes,
// and the open-addressing VisitedSet. One search owns one set, and only
// its calling thread touches it.
//
// The types are verifier internals — nothing outside src/verify/ should
// include this.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/splitmix64.h"

namespace ttdim::verify::detail {

constexpr std::size_t round8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Dense key of one state of up to DiscreteVerifier::kMaxApps = 5
/// applications: each application's (mode, elapsed, wait at grant,
/// disturbance count) is a local index in its own bit field of one
/// 64-bit word (discrete.cpp's CodeShape derives the field widths from
/// the slot's timings and refuses populations that need more than 63
/// bits). The all-steady state is code 0, and since a code never sets
/// bit 63, all ones marks an empty visited-table slot.
struct StateCode {
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::uint64_t code = kEmpty;

  [[nodiscard]] bool empty() const noexcept { return code == kEmpty; }

  friend bool operator==(StateCode a, StateCode b) { return a.code == b.code; }
  friend bool operator!=(StateCode a, StateCode b) { return a.code != b.code; }
};

[[nodiscard]] inline std::size_t hash_key(StateCode k) noexcept {
  return static_cast<std::size_t>(support::splitmix64(k.code));
}

/// Heap-backed key for populations the code cannot hold (more than
/// kMaxApps applications, or fields wider than 63 bits in all): three
/// bytes per application (mode and disturbance budget share a byte),
/// storage rounded up to whole words and zero-padded so the hash reads
/// whole words. Per-state allocation is acceptable here because the
/// disturbance branching dominates long before key traffic does at such
/// sizes.
struct HeapKey {
  std::vector<std::uint8_t> bytes;  ///< size == round8(len), zero-padded
  std::uint16_t len = 0;            ///< 0 marks an empty visited-table slot

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return bytes.data();
  }
  [[nodiscard]] std::uint8_t* data() noexcept { return bytes.data(); }
  [[nodiscard]] bool empty() const noexcept { return len == 0; }

  friend bool operator==(const HeapKey& a, const HeapKey& b) {
    return a.len == b.len && a.bytes == b.bytes;
  }
  friend bool operator!=(const HeapKey& a, const HeapKey& b) {
    return !(a == b);
  }
};

/// Word-at-a-time mix (splitmix-style) over the zero-padded key bytes.
/// All keys of one run share a length, so the trailing zero padding
/// inside the last word is collision-neutral.
[[nodiscard]] inline std::size_t hash_key(const HeapKey& k) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ k.len;
  const std::uint8_t* data = k.data();
  for (std::size_t off = 0; off < round8(k.len); off += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + off, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

/// Hash functor over either key (the witness path's parenthood map).
template <typename Key>
struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept { return hash_key(k); }
};

/// Open-addressing visited set: linear probing over flat key slots
/// (emptiness is the key's own marker, so a slot carries no metadata
/// beyond the key — at 8 bytes per coded state the table stays several
/// times smaller than a node-based set and the BFS's tens of millions of
/// membership-or-insert probes stay in cache accordingly).
///
/// Growth policy: capacity is always a power of two sized once, up
/// front, to the 0.75 load-factor bound — reserve()/ensure_room() round
/// the expected key count up to the bound, so the hot probe loop
/// (insert_hashed) carries no growth check at all. Callers either use
/// the checked insert() convenience, or batch: hash a block of
/// candidates, ensure_room(block), prefetch() every home slot, then
/// insert_hashed() in order — the
/// prefetches overlap the probe loop's dependent loads, hiding the
/// memory latency that dominates once the table outgrows the cache.
template <typename Key>
class VisitedSet {
 public:
  /// Starts small (a tiny proof pays for a tiny table); growth re-homes
  /// in prefetched blocks, so a large proof's doublings stay cheap.
  explicit VisitedSet(std::size_t initial_capacity = std::size_t{1} << 10) {
    rehash(initial_capacity);
  }

  [[nodiscard]] static std::size_t hash_of(const Key& k) noexcept {
    return hash_key(k);
  }

  /// Pre-sizes for `n` expected keys: rounds the capacity up (power-of-two
  /// growth) until `n` keys fit under the 0.75 load-factor bound. This
  /// is the one place the growth decision lives — insert_hashed() never
  /// re-checks it. Tables below kQuadrupleBelow slots grow fourfold: a
  /// proof of a few ten thousand states would otherwise spend more time
  /// re-homing through its doublings than the slack of at most 512 KB is
  /// worth.
  void reserve(std::size_t n) {
    std::size_t capacity = mask_ + 1;
    while (capacity - capacity / 4 < n)
      capacity *= capacity < kQuadrupleBelow ? 4 : 2;
    if (capacity > mask_ + 1) rehash(capacity);
  }

  /// Guarantees the next `n` insert_hashed() calls stay under the load
  /// bound without any per-insert growth check.
  void ensure_room(std::size_t n) {
    if (size_ + n > grow_at_) reserve(size_ + n);
  }

  /// Pulls the home slot of `hash` toward the cache ahead of its
  /// insert_hashed() probe. Only valid between an ensure_room() covering
  /// the pending block and the inserts themselves (a rehash in between
  /// would re-home every slot).
  void prefetch(std::size_t hash) const {
    __builtin_prefetch(&slots_[hash & mask_]);
  }

  /// True when the key was newly inserted (i.e. not seen before). The
  /// caller guarantees room via a preceding ensure_room()/reserve() —
  /// the probe loop itself never grows the table.
  bool insert_hashed(std::size_t hash, const Key& k) {
    std::size_t i = hash & mask_;
    for (;;) {
      Key& s = slots_[i];
      if (s.empty()) {
        s = k;
        ++size_;
        return true;
      }
      if (s == k) return false;
      i = (i + 1) & mask_;
    }
  }

  /// Checked single-key convenience (seeding, cold paths).
  bool insert(const Key& k) {
    ensure_room(1);
    return insert_hashed(hash_of(k), k);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kQuadrupleBelow = std::size_t{1} << 16;
  /// Old keys moved per prefetched block while re-homing.
  static constexpr std::size_t kRehomeBlock = 64;

  void rehash(std::size_t capacity) {
    std::vector<Key> old = std::move(slots_);
    slots_.assign(capacity, Key{});
    mask_ = capacity - 1;
    grow_at_ = capacity - capacity / 4;  // load factor 0.75
    // Re-home in blocks, as the probe path inserts: hash a block of old
    // keys, prefetch their new home slots, then place them, so the
    // placement probes find their lines on the way instead of missing
    // one after another.
    std::array<std::size_t, kRehomeBlock> hashes;
    std::array<Key*, kRehomeBlock> pending;
    std::size_t n = 0;
    auto place = [&]() {
      for (std::size_t j = 0; j < n; ++j) {
        std::size_t i = hashes[j] & mask_;
        while (!slots_[i].empty()) i = (i + 1) & mask_;
        slots_[i] = std::move(*pending[j]);
      }
      n = 0;
    };
    for (Key& k : old) {
      if (k.empty()) continue;
      hashes[n] = hash_key(k);
      pending[n] = &k;
      prefetch(hashes[n]);
      if (++n == kRehomeBlock) place();
    }
    place();
  }

  std::vector<Key> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t grow_at_ = 0;
};

}  // namespace ttdim::verify::detail

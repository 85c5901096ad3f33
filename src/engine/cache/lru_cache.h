// The one keyed, budgeted, thread-safe LRU that every engine cache is
// built on. VerdictCache (count-budgeted), SnapshotCache and
// AnalysisCache (byte-budgeted) each hand-rolled this structure —
// mutex + recency list + key index, splice-on-hit, back-eviction,
// lock-free atomic counter snapshots — as three diverging copies; this
// template is the single implementation they now share.
//
// Accounting is structural, not re-derived: each entry is charged its
// cost exactly once at insert time and refunds exactly the charged cost
// at eviction, so the ledger cannot drift even if a cost function were
// unstable (the hand-rolled byte caches recomputed the victim's cost at
// eviction time and silently depended on the recomputation matching the
// charge). The duplicate-insert path — concurrent misses of one key both
// computing and inserting an interchangeable value — is a no-op counted
// zero times: `insertions - evictions == entries` holds at every quiet
// point, which tests/lru_cache_test.cpp pins under a TSan-checked
// concurrent same-key hammer. (Audit note, PR 5: the hand-rolled
// VerdictCache already honoured the counted-once contract — its
// suspected insertions_/size_ drift is unreachable because every mutation
// is serialized on the one mutex — but the invariant was only upheld by
// each copy separately re-implementing it; here it is upheld once.)
//
// Values are handed out as shared_ptr<const V>: an eviction never
// invalidates a reader, and entries are immutable once inserted.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "support/check.h"
#include "support/thread_annotations.h"

namespace ttdim::engine::cache {

/// Monotonic cache counters. Each field is read from its own atomic, so
/// a snapshot taken while other threads hit the cache (SolveStats
/// aggregation over a batch sharing one cache, bench reporting loops) is
/// tear-free per counter without taking the cache lock; the fields of
/// one snapshot may straddle in-flight operations.
struct LruStats {
  long hits = 0;
  long misses = 0;
  long insertions = 0;
  long evictions = 0;
  std::size_t entries = 0;
  std::size_t cost = 0;    ///< sum of charged entry costs
  std::size_t budget = 0;  ///< entry count when cost_fn is null, bytes otherwise
};

template <typename Key, typename Value, typename KeyHash = std::hash<Key>>
class LruCache {
 public:
  /// Resident cost of one entry, charged at insert and refunded at
  /// eviction. nullptr charges every entry 1, making `budget` an entry
  /// count; a byte-cost function makes it a byte budget.
  using CostFn = std::size_t (*)(const Key&, const Value&);
  /// Called for every entry leaving the cache through eviction or
  /// clear(), while the cache mutex is held — so an attached secondary
  /// index (engine/oracle/subsumption_index.h hangs off VerdictCache this
  /// way) observes departures exactly once and in order. The hook must
  /// not call back into this cache (the mutex is not recursive); lock
  /// ordering is cache mutex -> anything the hook takes. The under-lock
  /// obligation is typed, not just documented: every hook invocation
  /// goes through fire_evict_hook_locked(), whose REQUIRES(mutex_) the
  /// thread-safety analysis enforces on all call paths.
  using EvictHook = std::function<void(const Key&, const Value&)>;

  explicit LruCache(std::size_t budget, CostFn cost_fn = nullptr,
                    EvictHook on_evict = {})
      : budget_(budget), cost_fn_(cost_fn), on_evict_(std::move(on_evict)) {
    TTDIM_EXPECTS(budget >= 1);
  }

  /// Returns the value and refreshes its recency; nullptr on miss.
  [[nodiscard]] std::shared_ptr<const Value> lookup(const Key& key) {
    support::MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  /// Refreshes the entry's recency without counting a hit or a miss —
  /// for secondary-index users (the subsumption tier) whose answers are
  /// *derived* from an entry rather than served by it: the entry must
  /// stay off the eviction tail, but the store's hit rate should keep
  /// reflecting only traffic it answered itself. No-op when absent.
  void touch(const Key& key) {
    support::MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    lru_.splice(lru_.begin(), lru_, it->second);
  }

  /// Inserts, evicting least-recently-used entries until the budget
  /// holds (the newest entry itself is never evicted). Returns false
  /// without touching any counter when the key is already present —
  /// values for one key are interchangeable, so the concurrent-miss
  /// duplicate is dropped (recency is deliberately NOT refreshed: the
  /// hand-rolled caches behaved this way, and a racing duplicate insert
  /// carries no new recency information) — or when the entry alone
  /// exceeds the whole budget (inserting it would evict everything else
  /// for a value that can never be joined by another).
  bool insert(const Key& key, Value value) {
    auto holder = std::make_shared<const Value>(std::move(value));
    const std::size_t cost = cost_fn_ ? cost_fn_(key, *holder) : 1;
    if (cost > budget_) return false;
    support::MutexLock lock(mutex_);
    if (index_.find(key) != index_.end()) return false;
    lru_.push_front(Entry{key, std::move(holder), cost});
    index_.emplace(key, lru_.begin());
    spent_ += cost;
    insertions_.fetch_add(1, std::memory_order_relaxed);
    while (spent_ > budget_ && lru_.size() > 1) evict_tail_locked();
    entries_.store(lru_.size(), std::memory_order_relaxed);
    cost_.store(spent_, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] LruStats stats() const {
    LruStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.entries = entries_.load(std::memory_order_relaxed);
    out.cost = cost_.load(std::memory_order_relaxed);
    out.budget = budget_;
    return out;
  }

  /// Drops every entry (firing the evict hook for each, so attached
  /// indexes stay consistent) and resets all counters to zero; cleared
  /// entries are not counted as evictions. Destruction does NOT fire the
  /// hook — whatever the hook maintains is torn down with the owner.
  void clear() {
    support::MutexLock lock(mutex_);
    for (const Entry& entry : lru_) fire_evict_hook_locked(entry);
    lru_.clear();
    index_.clear();
    spent_ = 0;
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    insertions_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    entries_.store(0, std::memory_order_relaxed);
    cost_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    std::size_t cost;
  };

  /// The one typed gate to the departure hook: REQUIRES(mutex_) is the
  /// eviction-hook-fired-under-lock contract the secondary indexes rely
  /// on, enforced by the analysis instead of by comments.
  void fire_evict_hook_locked(const Entry& entry) REQUIRES(mutex_) {
    if (on_evict_) on_evict_(entry.key, *entry.value);
  }

  /// Evict the least-recently-used entry, refunding exactly the charged
  /// cost (never recomputed) and notifying the hook under the lock.
  void evict_tail_locked() REQUIRES(mutex_) {
    const Entry& victim = lru_.back();
    spent_ -= victim.cost;
    fire_evict_hook_locked(victim);
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  mutable support::Mutex mutex_;
  std::size_t budget_;
  CostFn cost_fn_;
  EvictHook on_evict_;
  std::size_t spent_ GUARDED_BY(mutex_) = 0;
  /// front = most recently used
  std::list<Entry> lru_ GUARDED_BY(mutex_);
  std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash> index_
      GUARDED_BY(mutex_);
  // Counters live outside the mutex so stats() is a lock-free atomic
  // snapshot even while batch jobs hammer the cache (the map and LRU
  // list stay mutex-guarded).
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> insertions_{0};
  std::atomic<long> evictions_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> cost_{0};
};

}  // namespace ttdim::engine::cache

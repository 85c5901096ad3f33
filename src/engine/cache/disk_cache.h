// Content-addressed, size-capped, crash-safe on-disk cache — the
// persistent second tier under the in-memory LruCache wrappers
// (AnalysisCache, VerdictCache), in the dist-clang file_cache idiom:
// hash-named entry files, write-to-temp + atomic rename-into-place, LRU
// trimming by mtime.
//
// Keys and values are opaque byte strings: the key is the same canonical
// serialization the memory tiers already use (AppAnalysisKey::canonical,
// SlotConfigKey::canonical) and the value is a support::codec round-trip
// encoding of the cached result. One entry is one file named
// `<space>/<fnv1a(key) as 16 hex>.entry`, where `space` is a short
// namespace string ("analysis", "verdict") that keeps differently-typed
// payloads from colliding. The full key is
// stored inside the entry and compared on read, so a hash collision
// degrades to a miss, never to a wrong value.
//
// Entry file layout (little-endian):
//   "TTDC"                       4-byte magic
//   u32  kFormatVersion
//   u64  key length
//   u64  value length
//   key bytes, value bytes
//   u64  fnv1a(key ++ value)     checksum
//
// Failure model: this cache may be shared by concurrent processes (CI
// runs restoring the same actions/cache directory, fleet peers on NFS)
// and may be killed at any instant. Every failure — truncated or
// corrupted or version-mismatched entry, unwritable directory, a file
// vanishing mid-scan — is a miss or a silent no-op, NEVER an error that
// escapes to the solver. Writers stage entries as uniquely-named temp
// files in the destination directory and publish with
// std::filesystem::rename (atomic on POSIX), so readers only ever see
// absent or complete entries; an abandoned temp file is invisible to
// get() and swept by the next trim.
//
// Trimming: a put() that pushes the resident estimate past the byte
// budget rescans the directory and deletes oldest-mtime entries until
// the budget holds (get() refreshes mtime on hit, making this LRU).
// Bumping kFormatVersion orphans every old entry at once — they read as
// version mismatches (misses) until a put() of the same key replaces them,
// or they age out via the trim.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/thread_annotations.h"

namespace ttdim::engine::cache {

/// Monotonic counters + resident-size snapshot. Counters are lock-free
/// atomics, so a snapshot taken under concurrent use is approximate in
/// the same benign way LruStats is.
struct DiskCacheStats {
  long hits = 0;
  long misses = 0;    ///< absent entries (corrupt ones count separately)
  long corrupt = 0;   ///< truncated / checksum / version / magic failures
  long writes = 0;    ///< entries published via rename
  long trims = 0;     ///< budget-enforcement sweeps
  std::size_t bytes = 0;  ///< resident-size estimate (exact after a trim)
  std::size_t byte_budget = 0;
};

class DiskCache {
 public:
  /// Bump when the entry layout or any cached value's codec changes, or
  /// when a cached value changes under an unchanged key: version 2 came
  /// with the exact CQLF decision, which moved the `cqlf` flags and
  /// certificates of stored analysis results. CI's actions/cache key
  /// embeds this so incompatible caches are never restored
  /// (.github/workflows/ci.yml keeps "v<kFormatVersion>" in its key —
  /// update both together).
  static constexpr std::uint32_t kFormatVersion = 2;
  /// Entries are kilobytes; 256 MiB holds far more history than any CI
  /// run or daemon accumulates between trims.
  static constexpr std::size_t kDefaultByteBudget = 256u << 20;
  /// Conventional directory name used by tools that take a cache dir
  /// (examples/warm_start, ttdim_fuzz --disk-cache); listed in .gitignore.
  static constexpr const char* kDefaultDirName = ".ttdim-cache";

  /// Opens (creating if needed) `directory` and initialises the
  /// resident-size estimate from the entries already present. A
  /// directory that cannot be created leaves the cache permanently
  /// empty-and-unwritable rather than failing.
  explicit DiskCache(std::string directory,
                     std::size_t byte_budget = kDefaultByteBudget);

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// Returns the stored value, or nullopt on miss. Any malformed entry
  /// (truncated, corrupted, wrong version, hash-collided key) is a miss
  /// and counts in stats().corrupt. A hit refreshes the entry's mtime.
  [[nodiscard]] std::optional<std::string> get(std::string_view space,
                                               std::string_view key);

  /// Stores value under (space, key). No-op when a current-version entry
  /// already exists (content addressing: values for one key are
  /// interchangeable) or the single entry exceeds the whole budget; an
  /// entry of another format version is replaced. May trigger a trim.
  void put(std::string_view space, std::string_view key,
           std::string_view value);

  [[nodiscard]] DiskCacheStats stats() const;
  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

  /// Enforce the byte budget now (also sweeps stale temp files). Called
  /// automatically by put(); public for tests and shutdown hooks. The
  /// EXCLUDES makes the non-reentrancy contract checkable: trim takes
  /// the sweep mutex itself, so nothing holding it may call back in.
  void trim() EXCLUDES(trim_mutex_);

 private:
  [[nodiscard]] std::string entry_path(std::string_view space,
                                       std::string_view key) const;

  std::string directory_;
  std::size_t byte_budget_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> corrupt_{0};
  std::atomic<long> writes_{0};
  std::atomic<long> trims_{0};
  std::atomic<std::uint64_t> tmp_seq_{0};
  /// Serializes budget-enforcement sweeps (the directory itself is the
  /// guarded state — shared with other processes, so every individual
  /// filesystem operation stays failure-tolerant regardless).
  support::Mutex trim_mutex_;
};

}  // namespace ttdim::engine::cache

// The persistent cache tier (engine/cache/disk_cache.h) and the binary
// value codecs under it (support/codec.h): round trips for every cached
// value type and for whole solutions, hostile-input behaviour (every
// strict prefix of a valid encoding must fail cleanly, never throw), and
// the on-disk contract —
// crash-left temp files are invisible, corruption and version skew read
// as misses, the trim respects the byte budget in mtime order, and two
// handles sharing one directory stay consistent.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/apps.h"
#include "control/design.h"
#include "control/lti.h"
#include "core/dimensioning.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/cache/disk_cache.h"
#include "engine/fingerprint.h"
#include "gtest/gtest.h"
#include "linalg/lyap.h"
#include "linalg/matrix.h"
#include "support/codec.h"
#include "switching/dwell.h"
#include "verify/app_timing.h"
#include "verify/discrete.h"

namespace ttdim::engine::cache {
namespace {

namespace fs = std::filesystem;
using support::codec::Decoder;
using support::codec::Encoder;

// ---------------------------------------------------------------------------
// Codec round trips. The invariant under test: decode(encode(v)) succeeds,
// consumes every byte, and re-encodes to the identical byte string (the
// codec is deterministic, so byte equality IS value equality).

template <typename T, typename EncodeFn, typename DecodeFn>
void expect_round_trip(const T& value, EncodeFn encode_fn,
                       DecodeFn decode_fn) {
  std::string bytes;
  Encoder enc(bytes);
  encode_fn(enc, value);

  Decoder dec(bytes);
  T back{};
  ASSERT_TRUE(decode_fn(dec, back));
  EXPECT_TRUE(dec.done());

  std::string again;
  Encoder enc2(again);
  encode_fn(enc2, back);
  EXPECT_EQ(bytes, again);

  // Hostility: every strict prefix must fail cleanly (false or trailing
  // bytes unconsumed), never throw and never succeed as done().
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder partial(std::string_view(bytes.data(), cut));
    T scratch{};
    const bool decoded = decode_fn(partial, scratch);
    EXPECT_FALSE(decoded && partial.done())
        << "prefix of " << cut << "/" << bytes.size()
        << " bytes decoded as complete";
  }
}

linalg::Matrix test_matrix() {
  linalg::Matrix m(2, 3);
  m(0, 0) = 1.5;
  m(0, 1) = -0.0;  // signed zero: the bit pattern must survive
  m(0, 2) = 3.25e-7;
  m(1, 0) = -12.0;
  m(1, 1) = 0.1;
  m(1, 2) = 9e99;
  return m;
}

TEST(Codec, MatrixRoundTrip) {
  expect_round_trip(
      test_matrix(),
      [](Encoder& e, const linalg::Matrix& m) { linalg::encode(e, m); },
      [](Decoder& d, linalg::Matrix& m) { return linalg::decode(d, m); });
}

TEST(Codec, MatrixRejectsAbsurdDimensions) {
  // A corrupt length prefix must read as failure, not as an allocation.
  std::string bytes;
  Encoder enc(bytes);
  enc.u32(0xFFFFFFFFu);
  enc.u32(0xFFFFFFFFu);
  Decoder dec(bytes);
  linalg::Matrix m;
  EXPECT_FALSE(linalg::decode(dec, m));
}

TEST(Codec, CommonLyapunovRoundTrip) {
  linalg::CommonLyapunov cqlf;
  cqlf.found = true;
  cqlf.p = test_matrix();
  expect_round_trip(
      cqlf,
      [](Encoder& e, const linalg::CommonLyapunov& v) {
        linalg::encode(e, v);
      },
      [](Decoder& d, linalg::CommonLyapunov& v) {
        return linalg::decode(d, v);
      });
}

TEST(Codec, DwellTablesRoundTrip) {
  switching::DwellTables tables;
  tables.t_star_w = 3;
  tables.t_minus = {2, 2, 3, 3};
  tables.t_plus = {4, 4, 5, 6};
  tables.settling_at_minus = {10, 11, 12, 13};
  tables.settling_at_plus = {9, 9, 10, 11};
  tables.settling_tt = 8;
  tables.settling_et = 15;
  tables.tw_granularity = 1;
  expect_round_trip(
      tables,
      [](Encoder& e, const switching::DwellTables& v) {
        switching::encode(e, v);
      },
      [](Decoder& d, switching::DwellTables& v) {
        return switching::decode(d, v);
      });
}

TEST(Codec, SwitchingStabilityRoundTrip) {
  control::SwitchingStability st;
  st.tt_stable = true;
  st.et_stable = true;
  st.common_lyapunov = true;
  st.degradation_free = false;
  st.settling_et = 42;
  st.worst_settling = 57;
  st.p = test_matrix();
  expect_round_trip(
      st,
      [](Encoder& e, const control::SwitchingStability& v) {
        control::encode(e, v);
      },
      [](Decoder& d, control::SwitchingStability& v) {
        return control::decode(d, v);
      });
}

TEST(Codec, AppTimingRoundTrip) {
  verify::AppTiming timing;
  timing.name = "engine-ctl";
  timing.t_star_w = 2;
  timing.t_minus = {1, 1, 2};
  timing.t_plus = {2, 3, 3};
  timing.min_interarrival = 9;
  expect_round_trip(
      timing,
      [](Encoder& e, const verify::AppTiming& v) { verify::encode(e, v); },
      [](Decoder& d, verify::AppTiming& v) { return verify::decode(d, v); });
}

TEST(Codec, SlotVerdictRoundTrip) {
  verify::SlotVerdict verdict;
  verdict.safe = false;
  verdict.states_explored = 123456789L;
  verdict.witness = {"tick 0: A disturbed", "tick 1: grant -> B"};
  verdict.witness_ticks = {{{0, 2}, 1}, {{1}, 0}, {{}, -1}};
  verdict.violator = 2;
  expect_round_trip(
      verdict,
      [](Encoder& e, const verify::SlotVerdict& v) { verify::encode(e, v); },
      [](Decoder& d, verify::SlotVerdict& v) {
        return verify::decode(d, v);
      });
}

TEST(Codec, AppAnalysisResultRoundTrip) {
  analysis::AppAnalysisResult result;
  result.stability.tt_stable = true;
  result.stability.et_stable = true;
  result.stability.common_lyapunov = true;
  result.stability.settling_et = 20;
  result.stability.worst_settling = 31;
  result.stability.p = test_matrix();
  result.tables.t_star_w = 1;
  result.tables.t_minus = {2, 2};
  result.tables.t_plus = {3, 3};
  result.tables.settling_at_minus = {12, 13};
  result.tables.settling_at_plus = {11, 12};
  result.tables.settling_tt = 10;
  result.tables.settling_et = 20;
  result.tables_computed = true;
  expect_round_trip(
      result,
      [](Encoder& e, const analysis::AppAnalysisResult& v) {
        analysis::encode(e, v);
      },
      [](Decoder& d, analysis::AppAnalysisResult& v) {
        return analysis::decode(d, v);
      });
}

TEST(Codec, SolutionRoundTrip) {
  // The six-app case study: every AppSolution field and all three
  // assignments are populated. SolveStats is measurement and is not
  // encoded, so equality is judged by engine::fingerprint.
  std::vector<core::AppSpec> specs;
  for (const casestudy::App& app : casestudy::all_apps())
    specs.push_back({app.name, app.plant, app.kt, app.ke,
                     app.min_interarrival, app.settling_requirement});
  const core::Solution solution = core::solve(specs);
  std::string bytes;
  Encoder enc(bytes);
  core::encode_solution(enc, solution);

  Decoder dec(bytes);
  core::Solution back;
  ASSERT_TRUE(core::decode_solution(dec, back));
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(engine::fingerprint(back), engine::fingerprint(solution));

  // Hostility: every strict prefix reads as failure, never as a throw.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder partial(std::string_view(bytes.data(), cut));
    core::Solution scratch;
    EXPECT_FALSE(core::decode_solution(partial, scratch))
        << "prefix of " << cut << "/" << bytes.size() << " bytes decoded";
  }
}

TEST(Codec, DiscreteLtiDecodePrevalidates) {
  const control::DiscreteLti plant(
      linalg::Matrix{{1.0, 0.1}, {0.0, 0.9}},
      linalg::Matrix{{0.0}, {0.1}}, linalg::Matrix{{1.0, 0.0}}, 0.01);
  std::string bytes;
  Encoder enc(bytes);
  control::encode(enc, plant);
  {
    Decoder dec(bytes);
    const std::optional<control::DiscreteLti> back = control::decode_lti(dec);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(dec.done());
    std::string again;
    Encoder enc2(again);
    control::encode(enc2, *back);
    EXPECT_EQ(bytes, again);
  }
  // A decode that violates the constructor preconditions (h <= 0 here)
  // must return nullopt instead of reaching a throwing contract check.
  std::string bad = bytes;
  for (int i = 0; i < 8; ++i) bad[bad.size() - 8 + static_cast<std::size_t>(i)] = 0;
  Decoder dec(bad);
  EXPECT_FALSE(control::decode_lti(dec).has_value());
}

// ---------------------------------------------------------------------------
// DiskCache on-disk contract.

class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ttdim-disk-cache-test-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The single *.entry file under dir_ (most tests store exactly one).
  fs::path only_entry() const {
    fs::path found;
    int count = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir_))
      if (e.is_regular_file() && e.path().extension() == ".entry") {
        found = e.path();
        ++count;
      }
    EXPECT_EQ(count, 1);
    return found;
  }

  std::string dir_;
};

TEST_F(DiskCacheTest, PutGetRoundTripAndAbsentMiss) {
  DiskCache cache(dir_);
  EXPECT_FALSE(cache.get("analysis", "key-a").has_value());
  cache.put("analysis", "key-a", "value-a");
  const auto hit = cache.get("analysis", "key-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "value-a");
  // Spaces are disjoint namespaces.
  EXPECT_FALSE(cache.get("verdict", "key-a").has_value());
  const DiskCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.writes, 1);
  EXPECT_EQ(s.corrupt, 0);
}

TEST_F(DiskCacheTest, DuplicatePutIsANoOp) {
  DiskCache cache(dir_);
  cache.put("analysis", "k", "first");
  cache.put("analysis", "k", "second");  // content-addressed: kept as-is
  EXPECT_EQ(cache.stats().writes, 1);
  EXPECT_EQ(*cache.get("analysis", "k"), "first");
}

TEST_F(DiskCacheTest, OversizedValueIsSkipped) {
  DiskCache cache(dir_, 64);
  cache.put("analysis", "k", std::string(1024, 'x'));
  EXPECT_EQ(cache.stats().writes, 0);
  EXPECT_FALSE(cache.get("analysis", "k").has_value());
}

TEST_F(DiskCacheTest, EmptyValueRoundTrips) {
  DiskCache cache(dir_);
  cache.put("verdict", "k", "");
  const auto hit = cache.get("verdict", "k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->empty());
}

TEST_F(DiskCacheTest, CorruptedEntryIsAMissAndSelfHeals) {
  DiskCache cache(dir_);
  cache.put("analysis", "k", "precious");
  const fs::path entry = only_entry();
  {
    // Flip one payload byte: the checksum must catch it.
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put(static_cast<char>('~'));
  }
  EXPECT_FALSE(cache.get("analysis", "k").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  // Self-heal: the broken file is gone, so a fresh result can re-enter
  // and the next read hits again.
  EXPECT_FALSE(fs::exists(entry));
  cache.put("analysis", "k", "precious");
  EXPECT_EQ(*cache.get("analysis", "k"), "precious");
}

TEST_F(DiskCacheTest, TruncatedEntryIsAMiss) {
  DiskCache cache(dir_);
  cache.put("analysis", "k", "0123456789");
  const fs::path entry = only_entry();
  fs::resize_file(entry, fs::file_size(entry) / 2);
  EXPECT_FALSE(cache.get("analysis", "k").has_value());
  EXPECT_GE(cache.stats().corrupt, 1);
}

TEST_F(DiskCacheTest, WrongVersionIsAMissButKept) {
  DiskCache cache(dir_);
  cache.put("analysis", "k", "v");
  const fs::path entry = only_entry();
  {
    // Bump the format version field (offset 4, little-endian u32).
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put(static_cast<char>(DiskCache::kFormatVersion + 1));
  }
  EXPECT_FALSE(cache.get("analysis", "k").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  // A well-formed entry from another format era is not deleted on read;
  // it ages out through the trim instead.
  EXPECT_TRUE(fs::exists(entry));
}

TEST_F(DiskCacheTest, VersionOneEntryIsAMiss) {
  // Version 1 analysis entries predate the exact CQLF decision and carry
  // stale `cqlf` flags; a directory written then must not serve them.
  static_assert(DiskCache::kFormatVersion >= 2);
  DiskCache cache(dir_);
  cache.put("analysis", "k", "v");
  const fs::path entry = only_entry();
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, sizeof(v1));
  }
  EXPECT_FALSE(cache.get("analysis", "k").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  // The next fresh result replaces the old entry, and reads hit again.
  cache.put("analysis", "k", "fresh");
  EXPECT_EQ(cache.stats().writes, 2);
  EXPECT_EQ(cache.get("analysis", "k"), std::optional<std::string>("fresh"));
}

TEST_F(DiskCacheTest, WrongMagicIsAMiss) {
  DiskCache cache(dir_);
  cache.put("analysis", "k", "v");
  const fs::path entry = only_entry();
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
  }
  EXPECT_FALSE(cache.get("analysis", "k").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(DiskCacheTest, AbandonedTempFileIsInvisibleAndSwept) {
  DiskCache cache(dir_);
  cache.put("analysis", "k", "v");
  // A writer that crashed mid-write leaves a tmp_ file behind; it must
  // never be read as an entry.
  const fs::path tmp = fs::path(dir_) / "analysis" / "tmp_dead_1_1";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "half-written garbage";
  }
  EXPECT_EQ(*cache.get("analysis", "k"), "v");
  // Fresh temp files survive the trim (a live writer may own them)...
  cache.trim();
  EXPECT_TRUE(fs::exists(tmp));
  // ...stale ones are swept.
  fs::last_write_time(tmp, fs::file_time_type::clock::now() -
                               std::chrono::hours(1));
  cache.trim();
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(*cache.get("analysis", "k"), "v");
}

TEST_F(DiskCacheTest, TrimEvictsOldestFirstAndRespectsBudget) {
  // Populate with a generous budget, then re-open with a tight one: the
  // constructor scan plus an explicit trim must delete in mtime order
  // until the directory fits.
  const std::string payload(100, 'p');
  {
    DiskCache cache(dir_);
    cache.put("analysis", "old", payload);
    cache.put("analysis", "mid", payload);
    cache.put("analysis", "new", payload);
  }
  // Pin a deterministic age order: entry files are hash-named, so sort
  // them by name and age them oldest-to-newest in that order.
  const auto now = fs::file_time_type::clock::now();
  std::vector<fs::path> entries;
  for (const auto& e : fs::recursive_directory_iterator(dir_))
    if (e.is_regular_file() && e.path().extension() == ".entry")
      entries.push_back(e.path());
  ASSERT_EQ(entries.size(), 3u);
  std::sort(entries.begin(), entries.end());
  for (std::size_t i = 0; i < entries.size(); ++i)
    fs::last_write_time(entries[i],
                        now - std::chrono::hours(24 * (3 - static_cast<int>(i))));

  const std::size_t entry_size =
      static_cast<std::size_t>(fs::file_size(entries[0]));
  // Budget for exactly two entries: the oldest (entries[0]) must go.
  DiskCache tight(dir_, 2 * entry_size + entry_size / 2);
  tight.trim();
  EXPECT_FALSE(fs::exists(entries[0]));
  EXPECT_TRUE(fs::exists(entries[1]));
  EXPECT_TRUE(fs::exists(entries[2]));
  const DiskCacheStats s = tight.stats();
  EXPECT_EQ(s.trims, 1);
  EXPECT_LE(s.bytes, s.byte_budget);
}

TEST_F(DiskCacheTest, TwoHandlesShareOneDirectory) {
  DiskCache a(dir_);
  DiskCache b(dir_);
  a.put("verdict", "from-a", "A");
  b.put("verdict", "from-b", "B");
  EXPECT_EQ(*a.get("verdict", "from-b"), "B");
  EXPECT_EQ(*b.get("verdict", "from-a"), "A");
  // Same key from both handles: one file, one winner, consistent reads.
  a.put("verdict", "shared", "same-bytes");
  b.put("verdict", "shared", "same-bytes");
  EXPECT_EQ(*a.get("verdict", "shared"), *b.get("verdict", "shared"));
}

TEST_F(DiskCacheTest, ConcurrentWritersAndReadersStayConsistent) {
  DiskCache cache(dir_);
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&cache, t] {
      for (int k = 0; k < kKeys; ++k) {
        const std::string key = "key-" + std::to_string(k);
        const std::string value = "value-" + std::to_string(k);
        if ((t + k) % 2 == 0) cache.put("analysis", key, value);
        const auto hit = cache.get("analysis", key);
        if (hit.has_value()) EXPECT_EQ(*hit, value);
      }
    });
  for (std::thread& t : threads) t.join();
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const auto hit = cache.get("analysis", key);
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_EQ(*hit, "value-" + std::to_string(k));
  }
  EXPECT_EQ(cache.stats().corrupt, 0);
}

}  // namespace
}  // namespace ttdim::engine::cache

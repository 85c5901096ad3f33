#include "verify/discrete.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "support/check.h"
#include "verify/visited_set.h"

namespace ttdim::verify {

namespace {

using detail::HeapKey;
using detail::KeyHash;
using detail::StateCode;
using detail::VisitedSet;
using detail::round8;

/// Application mode within the slot-sharing protocol.
enum Loc : uint8_t { kSteady = 0, kWait = 1, kTt = 2, kSafe = 3 };

/// Decoded per-application state: mode, samples since the disturbance
/// was seen, wait at grant time (TT only), disturbance count (bounded
/// mode).
struct AppState {
  uint8_t loc = kSteady;
  uint8_t elapsed = 0;
  uint8_t wt_grant = 0;
  uint8_t dist_count = 0;
};

/// The 3-byte record of one application in ExplorationState snapshots
/// and heap keys: mode and disturbance count share the first byte.
void write_record(const AppState& a, uint8_t* out) {
  out[0] = static_cast<uint8_t>(a.loc | (a.dist_count << 2));
  out[1] = a.elapsed;
  out[2] = a.wt_grant;
}

AppState read_record(const uint8_t* in) {
  AppState a;
  a.loc = in[0] & 0x03;
  a.dist_count = static_cast<uint8_t>(in[0] >> 2);
  a.elapsed = in[1];
  a.wt_grant = in[2];
  return a;
}

// State-representation policies. The search below is written once
// against this interface and instantiated for the dense code (CodeShape)
// and the heap-backed byte key (HeapShape):
//   blank()                 all apps steady;
//   encode(State) / decode  whole-state conversions;
//   patch(app, from, to)    a precomputed edit turning app `app`'s part
//                           of a key from state `from` into `to`, applied
//                           with apply(Key&, Patch) in the hot loop;
//   write_records / from_records
//                           the ExplorationState record format (3 bytes
//                           per app), for capture and prefix seeding.

/// Dense 8-byte code. Each app's (mode, elapsed, wt_grant, dist_count)
/// maps to a local index:
///   steady                                     0
///   waiting, elapsed e in 0..T*w               1 + e
///   in the slot, wt_grant w in 0..T*w and
///     elapsed - w = c in 0..T+dw[w]            tt0[w] + c
///   safe, elapsed e in 0..r-1                  safe0 + e
/// (tt0 and safe0 number the blocks consecutively), and the field value
/// is dist_count * span + local, span being the local index count
/// (dist_count stays 0 when disturbances are unbounded). App i's field
/// sits above app i-1's, as wide as its own field count needs, so the
/// all-steady state is code 0 and a prefix population's fields are an
/// extension's low fields. Populations whose fields need more than 63
/// bits in all run on the heap key.
class CodeShape {
 public:
  using Key = StateCode;
  using State = std::array<AppState, DiscreteVerifier::kMaxApps>;
  using Patch = uint64_t;  ///< field delta, modulo 2^64

  /// Whether the population fits one code: at most kMaxApps apps and 63
  /// bits of fields. The dispatch test; the constructor requires it.
  static bool fits(const std::vector<AppTiming>& apps, int budget) {
    if (apps.size() > DiscreteVerifier::kMaxApps) return false;
    unsigned bits = 0;
    for (const AppTiming& a : apps) bits += field_bits(a, budget);
    return bits <= 63;
  }

  CodeShape(const std::vector<AppTiming>& apps, int budget)
      : napps_(apps.size()) {
    TTDIM_EXPECTS(fits(apps, budget));
    unsigned shift = 0;
    for (size_t i = 0; i < napps_; ++i) {
      const AppTiming& t = apps[i];
      Field& f = fields_[i];
      f.shift = shift;
      const unsigned bits = field_bits(t, budget);
      f.mask = (uint64_t{1} << bits) - 1;
      shift += bits;
      f.counts = budget < 0 ? 1 : budget + 1;
      f.waits = t.t_star_w + 1;
      f.offset.assign(4 * static_cast<size_t>(f.waits), 0);
      f.offset[kWait * static_cast<size_t>(f.waits)] = 1;
      int next = t.t_star_w + 2;  // past steady and the waiting indices
      for (int w = 0; w <= t.t_star_w; ++w) {
        f.offset[kTt * static_cast<size_t>(f.waits) + static_cast<size_t>(w)] =
            next - w;
        next += t.t_plus[static_cast<size_t>(w)] + 1;
      }
      f.offset[kSafe * static_cast<size_t>(f.waits)] = next;
      f.span = next + t.min_interarrival;

      // The decode table is the inverse of field_of over every state the
      // layout numbers.
      f.states.resize(static_cast<size_t>(f.span) *
                      static_cast<size_t>(f.counts));
      for (int d = 0; d < f.counts; ++d) {
        auto put = [&](Loc loc, int elapsed, int wt_grant) {
          const AppState a{loc, static_cast<uint8_t>(elapsed),
                           static_cast<uint8_t>(wt_grant),
                           static_cast<uint8_t>(d)};
          f.states[field_of(f, a)] = a;
        };
        put(kSteady, 0, 0);
        for (int e = 0; e <= t.t_star_w; ++e) put(kWait, e, 0);
        for (int w = 0; w <= t.t_star_w; ++w)
          for (int c = 0; c <= t.t_plus[static_cast<size_t>(w)]; ++c)
            put(kTt, w + c, w);
        for (int e = 0; e < t.min_interarrival; ++e) put(kSafe, e, 0);
      }
    }
  }

  [[nodiscard]] State blank() const { return State{}; }

  [[nodiscard]] Key encode(const State& s) const {
    uint64_t code = 0;
    for (size_t i = 0; i < napps_; ++i)
      code |= field_of(fields_[i], s[i]) << fields_[i].shift;
    return Key{code};
  }

  void decode(const Key& key, State& s) const {
    for (size_t i = 0; i < napps_; ++i) s[i] = state_of(fields_[i], key);
  }

  [[nodiscard]] Patch patch(size_t app, const AppState& from,
                            const AppState& to) const {
    const Field& f = fields_[app];
    return (field_of(f, to) - field_of(f, from)) << f.shift;
  }
  static void apply(Key& key, Patch p) { key.code += p; }

  void write_records(const Key& key, uint8_t* out) const {
    for (size_t i = 0; i < napps_; ++i)
      write_record(state_of(fields_[i], key), out + 3 * i);
  }

  /// Key of a snapshot record over the first `napps` apps, the rest
  /// steady. Records come from a proof of the same timings and budget,
  /// so every one must round-trip through the decode table; anything
  /// else is an invariant failure, never a silently wrong code.
  [[nodiscard]] Key from_records(const uint8_t* in, size_t napps) const {
    uint64_t code = 0;
    for (size_t i = 0; i < napps; ++i) {
      const Field& f = fields_[i];
      const AppState a = read_record(in + 3 * i);
      TTDIM_CHECK(a.wt_grant < f.waits && a.dist_count < f.counts);
      const uint64_t field = field_of(f, a);
      TTDIM_CHECK(field < f.states.size());
      const AppState& back = f.states[field];
      TTDIM_CHECK(back.loc == a.loc && back.elapsed == a.elapsed &&
                  back.wt_grant == a.wt_grant &&
                  back.dist_count == a.dist_count);
      code |= field << f.shift;
    }
    return Key{code};
  }

 private:
  struct Field {
    unsigned shift = 0;
    uint64_t mask = 0;
    int counts = 1;  ///< disturbance counts 0..budget
    int waits = 0;   ///< T*w + 1 wt_grant values
    int span = 0;    ///< local indices per disturbance count
    /// Local index minus elapsed, by loc * waits + wt_grant.
    std::vector<int> offset;
    std::vector<AppState> states;  ///< field value -> state
  };

  static unsigned field_bits(const AppTiming& t, int budget) {
    uint64_t span = static_cast<uint64_t>(t.t_star_w) + 2 +
                    static_cast<uint64_t>(t.min_interarrival);
    for (const int tp : t.t_plus) span += static_cast<uint64_t>(tp) + 1;
    const uint64_t count =
        span * static_cast<uint64_t>(budget < 0 ? 1 : budget + 1);
    return static_cast<unsigned>(64 - __builtin_clzll(count - 1));
  }

  static uint64_t field_of(const Field& f, const AppState& a) {
    const int local =
        f.offset[static_cast<size_t>(a.loc * f.waits + a.wt_grant)] +
        a.elapsed;
    return static_cast<uint64_t>(a.dist_count * f.span + local);
  }

  static const AppState& state_of(const Field& f, const Key& key) {
    return f.states[(key.code >> f.shift) & f.mask];
  }

  size_t napps_;
  std::array<Field, DiscreteVerifier::kMaxApps> fields_;
};

/// Heap-backed byte key: the records themselves, zero-padded.
class HeapShape {
 public:
  using Key = HeapKey;
  using State = std::vector<AppState>;
  struct Patch {
    size_t offset;
    std::array<uint8_t, 3> record;
  };

  explicit HeapShape(size_t napps) : napps_(napps) {
    TTDIM_EXPECTS(napps_ <= DiscreteVerifier::kMaxAppsUnpacked);
  }

  [[nodiscard]] State blank() const { return State(napps_); }

  [[nodiscard]] Key encode(const State& s) const {
    Key key = blank_key();
    for (size_t i = 0; i < napps_; ++i) write_record(s[i], key.data() + 3 * i);
    return key;
  }

  void decode(const Key& key, State& s) const {
    for (size_t i = 0; i < napps_; ++i) s[i] = read_record(key.data() + 3 * i);
  }

  [[nodiscard]] Patch patch(size_t app, const AppState&,
                            const AppState& to) const {
    Patch p{3 * app, {}};
    write_record(to, p.record.data());
    return p;
  }
  static void apply(Key& key, const Patch& p) {
    std::memcpy(key.data() + p.offset, p.record.data(), 3);
  }

  void write_records(const Key& key, uint8_t* out) const {
    std::memcpy(out, key.data(), 3 * napps_);
  }

  /// Appended applications start steady == all-zero record bytes, so
  /// zero-extension *is* the embedding of the prefix state.
  [[nodiscard]] Key from_records(const uint8_t* in, size_t napps) const {
    Key key = blank_key();
    std::memcpy(key.data(), in, 3 * napps);
    return key;
  }

 private:
  [[nodiscard]] Key blank_key() const {
    Key k;
    k.len = static_cast<uint16_t>(3 * napps_);
    k.bytes.assign(round8(3 * napps_), 0);
    return k;
  }

  size_t napps_;
};

/// Enumerating 2^k disturbance subsets from one state is pointless beyond
/// this width — a single expansion would dwarf any realistic state budget.
constexpr size_t kMaxSteadyBranching = 26;

/// Successor probes buffered per flush into the visited set. Large enough
/// to amortize ensure_room() and give the prefetches time to land, small
/// enough to stay cache-resident.
constexpr size_t kProbeBlock = 512;

inline size_t ctz(size_t bits) {
  return static_cast<size_t>(__builtin_ctzll(bits));
}

/// A hashed-up-front candidate successor awaiting its visited-set probe.
template <typename Key>
struct Probe {
  size_t hash;
  Key key;
};

/// One-state-to-all-successors generator of the breadth-first and the
/// depth-first search (run_search).
///
/// Two interior paths:
///  - expand_fast(): the kPaper no-witness hot path. Works directly on
///    keys — encode the post-elapse base once and precompute, per pop,
///    the patch of every app that can change; then each disturbance
///    subset is a copy of the base key plus popcount-many patches, and a
///    grant is one more. On the dense code a patch is one 64-bit add of
///    a field delta; on the heap key it is a 3-byte record store. No
///    AppState walk, no re-encode, no per-successor dispatch.
///  - expand_generic(): the reference path (witness recording, and the
///    kSlackAware policy whose preemption test needs full waiter views).
///
/// Emission order is identical across both paths and matches the
/// original one-state-at-a-time code exactly: subsets in ascending mask
/// order, grant ties in ascending app index. Everything downstream
/// (discovery order, fingerprints, snapshots, DFS traversal) depends on
/// that order, so it is part of this class's contract.
template <typename Shape>
class Expander {
 public:
  using Key = typename Shape::Key;
  using State = typename Shape::State;

  using Patch = typename Shape::Patch;

  Expander(const Shape& shape, const std::vector<AppTiming>& apps,
           const DiscreteVerifier::Options& options)
      : shape_(shape),
        apps_(apps),
        options_(options),
        napps_(apps.size()),
        bounded_(options.max_disturbances_per_app >= 0),
        base_(shape.blank()),
        s_(shape.blank()),
        granted_(shape.blank()) {}

  struct Violation {
    int violator = -1;
    std::string action;  ///< only materialized when Record
  };

  /// Expands `cur_key`. Returns false when the elapse phase reaches the
  /// Error location (violation filled); otherwise feeds every successor
  /// key to `sink` — sink(Key&&) normally, or sink(Key&&, action, tick)
  /// when Record — and returns true. `seed_pop`/`prefix_napps` carry the
  /// prefix-extension subset restriction (see run_search).
  template <bool Record, typename Sink>
  bool expand(const Key& cur_key, bool seed_pop, size_t prefix_napps,
              Violation& violation, Sink&& sink) {
    shape_.decode(cur_key, base_);

    // ---- Phase 1: one sample elapses. -----------------------------------
    bool error_now = false;
    for (size_t i = 0; i < napps_; ++i) {
      AppState& a = base_[i];
      switch (a.loc) {
        case kSteady:
          break;
        case kWait:
          ++a.elapsed;
          // Clock passed T*w while still waiting: the application automaton
          // reaches Error (paper Fig. 5).
          if (a.elapsed > apps_[i].t_star_w) {
            error_now = true;
            violation.violator = static_cast<int>(i);
            if (Record)
              violation.action = apps_[i].name + " exceeded T*w=" +
                                 std::to_string(apps_[i].t_star_w) +
                                 " while waiting";
          }
          break;
        case kTt:
          ++a.elapsed;
          break;
        case kSafe:
          ++a.elapsed;
          if (a.elapsed >= apps_[i].min_interarrival) {
            a.loc = kSteady;
            a.elapsed = 0;
            a.wt_grant = 0;
          }
          break;
      }
    }
    if (error_now) {
      // A seeded state cannot reach Error in phase 1: the prefix proof
      // already expanded it without one, and appended (steady) apps never
      // wait. Anything else would mean the snapshot belongs to different
      // timings than this prefix.
      TTDIM_CHECK(!seed_pop);
      return false;
    }

    // ---- Subset-invariant occupant facts. -------------------------------
    // A disturbance subset only moves kSteady apps to kWait, so the slot
    // occupant, its continuous time in the slot and its dwell-row bounds
    // are identical across all subsets of this pop — hoisted out of the
    // expansion loop (phase 3 consumes them).
    occupant0_ = -1;
    for (size_t i = 0; i < napps_; ++i)
      if (base_[i].loc == kTt) {
        TTDIM_CHECK(occupant0_ < 0);  // single-slot invariant
        occupant0_ = static_cast<int>(i);
      }
    occ_ct_ = occ_dtm_ = occ_dtp_ = 0;
    if (occupant0_ >= 0) {
      const AppState& o = base_[static_cast<size_t>(occupant0_)];
      occ_ct_ = o.elapsed - o.wt_grant;
      occ_dtm_ = apps_[static_cast<size_t>(occupant0_)].t_minus[o.wt_grant];
      occ_dtp_ = apps_[static_cast<size_t>(occupant0_)].t_plus[o.wt_grant];
      TTDIM_CHECK(occ_ct_ >= 0 && occ_ct_ <= occ_dtp_);
    }
    base_waiters_ = 0;
    for (size_t i = 0; i < napps_; ++i)
      if (base_[i].loc == kWait) ++base_waiters_;

    // ---- Phase 2 setup: which apps can be disturbed. --------------------
    steady_.clear();
    for (size_t i = 0; i < napps_; ++i) {
      if (base_[i].loc != kSteady) continue;
      if (bounded_ &&
          base_[i].dist_count >=
              static_cast<uint8_t>(options_.max_disturbances_per_app))
        continue;
      steady_.push_back(i);
    }
    if (steady_.size() > kMaxSteadyBranching)
      throw std::runtime_error(
          "DiscreteVerifier: disturbance branching too wide (" +
          std::to_string(steady_.size()) +
          " simultaneously disturbable applications)");

    // Subsets that disturb no appended application map a seeded state to
    // another seeded state (the prefix is closed under its own
    // transitions), so re-expanding a seed only needs the branches that
    // involve an appended app. Skipping the rest emits nothing new by
    // construction — the skipped successors are already in the visited
    // set — and leaves the discovery order of genuinely new states
    // untouched.
    size_t appended_mask = 0;
    if (seed_pop)
      for (size_t b = 0; b < steady_.size(); ++b)
        if (steady_[b] >= prefix_napps) appended_mask |= size_t{1} << b;

    if constexpr (Record) {
      expand_generic<true>(appended_mask, seed_pop, sink);
    } else if (options_.policy == SlotPolicy::kSlackAware) {
      expand_generic<false>(appended_mask, seed_pop, sink);
    } else {
      expand_fast(appended_mask, seed_pop, sink);
    }
    return true;
  }

 private:
  // Phases 2–4 over full AppState copies: the reference expansion, kept
  // for witness recording (action strings, tick contents — a handful of
  // heap allocations per successor) and for the slack-aware policy.
  template <bool Record, typename Sink>
  void expand_generic(size_t appended_mask, bool seed_pop, Sink&& sink) {
    const size_t subsets = size_t{1} << steady_.size();
    for (size_t mask = 0; mask < subsets; ++mask) {
      if (seed_pop && (mask & appended_mask) == 0) continue;
      s_ = base_;
      std::string action;
      if (Record) action = "tick";
      WitnessTick tick;
      for (size_t b = 0; b < steady_.size(); ++b) {
        if (!(mask & (size_t{1} << b))) continue;
        AppState& a = s_[steady_[b]];
        a.loc = kWait;
        a.elapsed = 0;
        if (bounded_) ++a.dist_count;
        if (Record) {
          action += " disturb(" + apps_[steady_[b]].name + ")";
          tick.disturbed.push_back(static_cast<int>(steady_[b]));
        }
      }

      // ---- Phase 3: slot occupant bookkeeping. --------------------------
      int occupant = occupant0_;
      // Waiters in s = waiters surviving phase 1 + the just-disturbed.
      const bool any_waiter =
          base_waiters_ + std::bitset<64>(mask).count() > 0;
      auto leave_slot = [&](size_t i, const char* why) {
        AppState& a = s_[i];
        if (a.elapsed >= apps_[i].min_interarrival) {
          a.loc = kSteady;
          a.elapsed = 0;
        } else {
          a.loc = kSafe;
        }
        a.wt_grant = 0;
        if (Record)
          action += std::string(" ") + why + "(" + apps_[i].name + ")";
      };
      if (occupant >= 0) {
        if (occ_ct_ == occ_dtp_) {
          leave_slot(static_cast<size_t>(occupant), "evict");
          occupant = -1;
        } else if (occ_ct_ >= occ_dtm_ && any_waiter) {
          bool preempt = true;
          if (options_.policy == SlotPolicy::kSlackAware) {
            waiters_.clear();
            for (size_t i = 0; i < napps_; ++i)
              if (s_[i].loc == kWait)
                waiters_.push_back({static_cast<int>(i), s_[i].elapsed});
            preempt = !preemption_postponable(apps_, waiters_, occupant);
          }
          if (preempt) {
            leave_slot(static_cast<size_t>(occupant), "preempt");
            occupant = -1;
          }
        }
      }

      // ---- Phase 4: grant (EDF on remaining deadline, ties explored). ---
      if (occupant < 0) {
        int best_remaining = INT32_MAX;
        candidates_.clear();
        for (size_t i = 0; i < napps_; ++i) {
          if (s_[i].loc != kWait) continue;
          const int remaining = apps_[i].t_star_w - s_[i].elapsed;
          TTDIM_CHECK(remaining >= 0);
          if (remaining < best_remaining) {
            best_remaining = remaining;
            candidates_.clear();
            candidates_.push_back(i);
          } else if (remaining == best_remaining) {
            candidates_.push_back(i);
          }
        }
        if (!candidates_.empty()) {
          for (size_t c : candidates_) {
            granted_ = s_;
            granted_[c].loc = kTt;
            granted_[c].wt_grant = granted_[c].elapsed;
            if constexpr (Record) {
              WitnessTick grant_tick = tick;
              grant_tick.granted = static_cast<int>(c);
              sink(shape_.encode(granted_),
                   action + " grant(" + apps_[c].name +
                       ",Tw=" + std::to_string(granted_[c].elapsed) + ")",
                   std::move(grant_tick));
            } else {
              sink(shape_.encode(granted_));
            }
          }
          continue;  // grant branches cover this subset
        }
      }
      if constexpr (Record) {
        sink(shape_.encode(s_), action, std::move(tick));
      } else {
        sink(shape_.encode(s_));
      }
    }
  }

  // Phases 2–4 straight over keys (kPaper, no witness).
  template <typename Sink>
  void expand_fast(size_t appended_mask, bool seed_pop, Sink&& sink) {
    base_key_ = shape_.encode(base_);

    // Hoisted per-pop constants. Base waiters are gathered in ascending
    // app index with their remaining deadlines and grant patches; a
    // freshly disturbed app's remaining deadline is its full T*w (elapsed
    // resets to 0), and its grant patch starts from the disturbed state.
    bw_idx_.clear();
    bw_rem_.clear();
    bw_grant_.clear();
    int base_best = INT32_MAX;
    for (size_t i = 0; i < napps_; ++i) {
      const AppState& a = base_[i];
      if (a.loc != kWait) continue;
      const int remaining = apps_[i].t_star_w - a.elapsed;
      TTDIM_CHECK(remaining >= 0);
      bw_idx_.push_back(i);
      bw_rem_.push_back(remaining);
      bw_grant_.push_back(shape_.patch(
          i, a, AppState{kTt, a.elapsed, a.elapsed, a.dist_count}));
      base_best = std::min(base_best, remaining);
    }
    dist_rem_.clear();
    disturb_.clear();
    dist_grant_.clear();
    for (size_t b = 0; b < steady_.size(); ++b) {
      const size_t i = steady_[b];
      const AppState& a = base_[i];
      const uint8_t dist =
          static_cast<uint8_t>(a.dist_count + (bounded_ ? 1 : 0));
      const AppState waiting{kWait, 0, 0, dist};
      dist_rem_.push_back(apps_[i].t_star_w);
      disturb_.push_back(shape_.patch(i, a, waiting));
      dist_grant_.push_back(
          shape_.patch(i, waiting, AppState{kTt, 0, 0, dist}));
    }

    // The occupant's fate is subset-invariant except through "is any
    // waiter present": eviction always fires, preemption fires iff a
    // waiter exists (kPaper never postpones). Either way it leaves to
    // the same state, so its patch is one constant.
    bool evict = false;
    bool preempt_on_waiter = false;
    Patch leave{};
    if (occupant0_ >= 0) {
      const size_t o = static_cast<size_t>(occupant0_);
      evict = occ_ct_ == occ_dtp_;
      preempt_on_waiter = !evict && occ_ct_ >= occ_dtm_;
      const AppState& ost = base_[o];
      const AppState left =
          ost.elapsed >= apps_[o].min_interarrival
              ? AppState{kSteady, 0, 0, ost.dist_count}
              : AppState{kSafe, ost.elapsed, 0, ost.dist_count};
      leave = shape_.patch(o, ost, left);
    }

    const size_t subsets = size_t{1} << steady_.size();
    for (size_t mask = 0; mask < subsets; ++mask) {
      if (seed_pop && (mask & appended_mask) == 0) continue;
      out_key_ = base_key_;
      for (size_t bits = mask; bits != 0; bits &= bits - 1)
        Shape::apply(out_key_, disturb_[ctz(bits)]);

      const bool any_waiter = !bw_idx_.empty() || mask != 0;
      bool slot_free = occupant0_ < 0;
      if (!slot_free && (evict || (preempt_on_waiter && any_waiter))) {
        Shape::apply(out_key_, leave);
        slot_free = true;
      }

      if (slot_free) {
        int best = base_best;
        for (size_t bits = mask; bits != 0; bits &= bits - 1)
          best = std::min(best, dist_rem_[ctz(bits)]);
        if (best != INT32_MAX) {
          // Tie candidates in ascending app index — the exact order the
          // reference scan produces — by merging the two sorted waiter
          // streams (base waiters and this subset's fresh waiters are
          // disjoint).
          size_t wi = 0;
          size_t bits = mask;
          while (wi < bw_idx_.size() || bits != 0) {
            const size_t app_w = wi < bw_idx_.size() ? bw_idx_[wi] : SIZE_MAX;
            const size_t bi = bits != 0 ? ctz(bits) : 0;
            const size_t app_d = bits != 0 ? steady_[bi] : SIZE_MAX;
            int remaining;
            const Patch* grant;
            if (app_w < app_d) {
              remaining = bw_rem_[wi];
              grant = &bw_grant_[wi];
              ++wi;
            } else {
              remaining = dist_rem_[bi];
              grant = &dist_grant_[bi];
              bits &= bits - 1;
            }
            if (remaining != best) continue;
            grant_key_ = out_key_;
            Shape::apply(grant_key_, *grant);
            sink(std::move(grant_key_));
          }
          continue;  // grant branches cover this subset
        }
      }
      sink(Key(out_key_));
    }
  }

  const Shape& shape_;
  const std::vector<AppTiming>& apps_;
  const DiscreteVerifier::Options& options_;
  const size_t napps_;
  const bool bounded_;

  // Post-elapse facts of the state being expanded.
  State base_;
  int occupant0_ = -1;
  int occ_ct_ = 0;
  int occ_dtm_ = 0;
  int occ_dtp_ = 0;
  size_t base_waiters_ = 0;
  std::vector<size_t> steady_;

  // Generic-path scratch.
  State s_;
  State granted_;
  std::vector<size_t> candidates_;
  std::vector<WaiterView> waiters_;

  // Fast-path scratch.
  Key base_key_;
  Key out_key_;
  Key grant_key_;
  std::vector<size_t> bw_idx_;
  std::vector<int> bw_rem_;
  std::vector<Patch> bw_grant_;
  std::vector<int> dist_rem_;
  std::vector<Patch> disturb_;
  std::vector<Patch> dist_grant_;
};

template <typename Shape>
SlotVerdict run_search(const Shape& shape, const std::vector<AppTiming>& apps,
                       const DiscreteVerifier::Options& options,
                       const ExplorationState* extend_from,
                       ExplorationState* capture) {
  using Key = typename Shape::Key;

  const size_t napps = apps.size();
  // Prefix extension and snapshot capture rely on the FIFO queue doubling
  // as the discovery-order log; witnesses would need parenthood for seeds.
  if (extend_from != nullptr || capture != nullptr) {
    TTDIM_EXPECTS(!options.depth_first);
    TTDIM_EXPECTS(!options.want_witness);
  }

  SlotVerdict verdict;
  VisitedSet<Key> visited;
  // FIFO via a head cursor: in breadth-first mode the vector is never
  // popped, so after a completed (safe) search it holds every reachable
  // state in discovery order — exactly the snapshot `capture` wants.
  std::vector<Key> queue;
  size_t head = 0;
  // Parenthood for witness reconstruction: predecessor key, description,
  // and the structured tick content.
  struct Parenthood {
    Key from;
    std::string action;
    WitnessTick tick;
  };
  std::unordered_map<Key, Parenthood, KeyHash<Key>> parent;

  // Number of seeded states; the first `seed_count` pops are exactly the
  // seeds (FIFO), which is what licenses the subset restriction below.
  size_t seed_count = 0;
  size_t prefix_napps = 0;
  const Key init_key = shape.encode(shape.blank());
  if (extend_from != nullptr) {
    const ExplorationState& base = *extend_from;
    // Soundness invariants of "appending is conservative" (discrete.h):
    // a strict prefix of this population, at least one record, whole
    // records only, and the prefix run's own initial state leading the
    // discovery order (the true initial state must be among the seeds).
    TTDIM_EXPECTS(base.napps >= 1 && base.napps < napps);
    const size_t stride = 3 * base.napps;
    TTDIM_EXPECTS(!base.packed.empty() && base.packed.size() % stride == 0);
    for (size_t i = 0; i < stride; ++i) TTDIM_EXPECTS(base.packed[i] == 0);
    prefix_napps = base.napps;
    seed_count = base.packed.size() / stride;
    visited.reserve(seed_count);
    queue.reserve(seed_count);
    for (size_t r = 0; r < seed_count; ++r) {
      // Appended applications start steady, so the embedding of a prefix
      // state leaves their part of the key blank.
      Key k = shape.from_records(base.packed.data() + r * stride, base.napps);
      TTDIM_CHECK(visited.insert(k));  // prefix snapshot holds no duplicates
      queue.push_back(std::move(k));
    }
  } else {
    visited.insert(init_key);
    queue.push_back(init_key);
  }

  auto build_witness = [&](const Key& leaf_key,
                           const std::string& final_action) {
    std::vector<std::string> steps{final_action};
    Key cur = leaf_key;
    while (cur != init_key) {
      const auto it = parent.find(cur);
      if (it == parent.end()) break;
      steps.push_back(it->second.action);
      verdict.witness_ticks.push_back(it->second.tick);
      cur = it->second.from;
    }
    steps.push_back("all applications steady");
    std::reverse(steps.begin(), steps.end());
    std::reverse(verdict.witness_ticks.begin(), verdict.witness_ticks.end());
    return steps;
  };

  Expander<Shape> expander(shape, apps, options);
  Key cur_key;

  // Non-witness successors route through a probe block: hashed at
  // emission, flushed in batches — ensure_room() once per flush, software
  // prefetch of every home slot, then the inserts in emission order.
  // Order in == order out, so discovery order (and with it fingerprints,
  // snapshots and the DFS stack) is byte-identical to unbatched probing;
  // only the memory latency of the probes changes. Breadth-first pops
  // leave their successors pending across states (a pop emits only a
  // handful, so a per-pop flush would give the prefetches almost no lead
  // time): the block flushes when full or when the queue runs dry, and a
  // FIFO pop never reads past the flushed part.
  std::vector<Probe<Key>> block;
  block.reserve(kProbeBlock);
  auto flush = [&]() {
    visited.ensure_room(block.size());
    for (const Probe<Key>& p : block) visited.prefetch(p.hash);
    for (Probe<Key>& p : block)
      if (visited.insert_hashed(p.hash, p.key))
        queue.push_back(std::move(p.key));
    block.clear();
  };
  auto sink = [&](Key&& key) {
    const size_t hash = VisitedSet<Key>::hash_of(key);
    block.push_back(Probe<Key>{hash, std::move(key)});
    if (block.size() >= kProbeBlock) flush();
  };
  // The witness path keeps per-emission inserts: parenthood must be
  // recorded exactly for the keys that are genuinely new.
  auto record_sink = [&](Key&& key, const std::string& action,
                         WitnessTick&& tick) {
    if (!visited.insert(key)) return;
    parent.emplace(key, Parenthood{cur_key, action, std::move(tick)});
    queue.push_back(std::move(key));
  };

  for (;;) {
    if (head == queue.size()) {
      if (block.empty()) break;
      flush();
      continue;
    }
    if (options.depth_first) {
      cur_key = std::move(queue.back());
      queue.pop_back();
    } else {
      cur_key = queue[head];  // the vector doubles as the discovery log
      ++head;
    }
    // True while this pop re-expands a seeded prefix state (seeds occupy
    // the front of the FIFO queue, so the pop index identifies them).
    const bool seed_pop = !options.depth_first && head <= seed_count &&
                          extend_from != nullptr;
    ++verdict.states_explored;
    if (verdict.states_explored > options.max_states)
      throw std::runtime_error("DiscreteVerifier: state budget exhausted");

    typename Expander<Shape>::Violation violation;
    const bool ok =
        options.want_witness
            ? expander.template expand<true>(cur_key, seed_pop, prefix_napps,
                                             violation, record_sink)
            : expander.template expand<false>(cur_key, seed_pop, prefix_napps,
                                              violation, sink);
    if (!ok) {
      verdict.safe = false;
      verdict.violator = violation.violator;
      if (options.want_witness)
        verdict.witness = build_witness(cur_key, violation.action);
      return verdict;
    }
    // The DFS stack pops the successors at once: make them visible.
    if (options.depth_first && !block.empty()) flush();
  }

  verdict.safe = true;
  if (capture != nullptr) {
    // Safe == exhausted queue == the FIFO log is the full reachable set.
    const size_t stride = 3 * napps;
    capture->napps = napps;
    capture->packed.assign(queue.size() * stride, 0);
    uint8_t* out = capture->packed.data();
    for (const Key& k : queue) {
      shape.write_records(k, out);
      out += stride;
    }
  }
  return verdict;
}

}  // namespace

DiscreteVerifier::DiscreteVerifier(std::vector<AppTiming> apps)
    : apps_(std::move(apps)) {
  TTDIM_EXPECTS(!apps_.empty());
  if (apps_.size() > kMaxAppsUnpacked)
    throw std::invalid_argument(
        "DiscreteVerifier: " + std::to_string(apps_.size()) +
        " applications in one slot exceeds the supported maximum of " +
        std::to_string(kMaxAppsUnpacked) +
        " (the search explores 2^napps disturbance subsets per state and "
        "is intractable long before this bound)");
  for (const AppTiming& a : apps_) {
    a.validate();
    // Every representation stores counters in bytes; r bounds them all.
    TTDIM_EXPECTS(a.min_interarrival <= kMaxInterarrival);
  }
}

SlotVerdict DiscreteVerifier::verify(const Options& options) const {
  return verify(options, nullptr, nullptr);
}

SlotVerdict DiscreteVerifier::verify(const Options& options,
                                     const ExplorationState* extend_from,
                                     ExplorationState* capture) const {
  // Snapshot records and heap keys store the disturbance count in 6 bits.
  TTDIM_EXPECTS(options.max_disturbances_per_app <= 62);
  if (options.backend != StateBackend::kUnpacked &&
      CodeShape::fits(apps_, options.max_disturbances_per_app)) {
    const CodeShape shape(apps_, options.max_disturbances_per_app);
    return run_search(shape, apps_, options, extend_from, capture);
  }
  const HeapShape shape(apps_.size());
  return run_search(shape, apps_, options, extend_from, capture);
}

void encode(support::codec::Encoder& enc, const SlotVerdict& verdict) {
  enc.u8(verdict.safe ? 1 : 0);
  enc.i64(verdict.states_explored);
  enc.u32(static_cast<std::uint32_t>(verdict.witness.size()));
  for (const std::string& line : verdict.witness) enc.str(line);
  enc.u32(static_cast<std::uint32_t>(verdict.witness_ticks.size()));
  for (const WitnessTick& tick : verdict.witness_ticks) {
    enc.ints(tick.disturbed);
    enc.i32(tick.granted);
  }
  enc.i32(verdict.violator);
}

bool decode(support::codec::Decoder& dec, SlotVerdict& verdict) {
  verdict = SlotVerdict{};
  std::uint8_t safe = 0;
  if (!dec.u8(safe) || safe > 1) return false;
  verdict.safe = safe != 0;
  std::int64_t states = 0;
  if (!dec.i64(states)) return false;
  verdict.states_explored = static_cast<long>(states);
  std::uint32_t nwitness = 0;
  if (!dec.u32(nwitness) || nwitness > dec.remaining() / 4) return false;
  verdict.witness.resize(nwitness);
  for (std::string& line : verdict.witness)
    if (!dec.str(line)) return false;
  std::uint32_t nticks = 0;
  if (!dec.u32(nticks) || nticks > dec.remaining() / 8) return false;
  verdict.witness_ticks.resize(nticks);
  for (WitnessTick& tick : verdict.witness_ticks)
    if (!dec.ints(tick.disturbed) || !dec.i32(tick.granted)) return false;
  return dec.i32(verdict.violator);
}

}  // namespace ttdim::verify

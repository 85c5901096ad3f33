// DiscreteVerifier beyond the dense code and across state backends: more
// than DiscreteVerifier::kMaxApps (5) applications, or fields wider than
// 63 bits, must solve on the heap key instead of throwing; the dense
// 8-byte code and the heap key must be observably identical (verdicts,
// snapshot bytes, seeded extensions); the prefix-extension entry point
// must reproduce from-scratch results byte-for-byte on safe
// configurations — the invariant the incremental admission oracle rests
// on; and a thread budget (proof_threads) must return exactly the serial
// result for every query kind.
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "verify/app_timing.h"
#include "verify/discrete.h"

namespace ttdim::verify {
namespace {

AppTiming uniform_app(const std::string& name, int t_star, int t_minus,
                      int t_plus, int r) {
  AppTiming a;
  a.name = name;
  a.t_star_w = t_star;
  a.t_minus.assign(static_cast<size_t>(t_star) + 1, t_minus);
  a.t_plus.assign(static_cast<size_t>(t_star) + 1, t_plus);
  a.min_interarrival = r;
  return a;
}

std::vector<AppTiming> clones(int n, int t_star, int t_minus, int t_plus,
                              int r) {
  std::vector<AppTiming> apps;
  for (int i = 0; i < n; ++i)
    apps.push_back(
        uniform_app("L" + std::to_string(i), t_star, t_minus, t_plus, r));
  return apps;
}

// ------------------------------------------------- beyond the dense code --

TEST(DiscreteLarge, SeventeenAppsVerifyInsteadOfThrowing) {
  // Far past the dense code's 5 apps. A slot shared by
  // 17 tight-deadline apps is hopeless, and the depth-first dive finds
  // the violation without enumerating the full breadth of 2^17
  // disturbance subsets per level. Distinct T*w values keep the EDF grant
  // unambiguous, so the all-disturbed branch stays narrow.
  std::vector<AppTiming> apps;
  for (int i = 0; i < 17; ++i)
    apps.push_back(
        uniform_app("L" + std::to_string(i), 1 + (i % 4), 1, 1, 8));
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options options;
  options.depth_first = true;
  const SlotVerdict verdict = verifier.verify(options);
  EXPECT_FALSE(verdict.safe);
  EXPECT_GE(verdict.violator, 0);
}

TEST(DiscreteLarge, SeventeenAppsSafeUnderZeroDisturbanceBudget) {
  // Degenerate but exercises the full heap search path to a safe verdict:
  // with no disturbances allowed the reachable set is the initial state.
  const std::vector<AppTiming> apps = clones(17, 1, 1, 1, 3);
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options options;
  options.max_disturbances_per_app = 0;
  const SlotVerdict verdict = verifier.verify(options);
  EXPECT_TRUE(verdict.safe);
  EXPECT_EQ(verdict.states_explored, 1);
}

TEST(DiscreteLarge, AbsoluteCapStillRefuses) {
  EXPECT_THROW(DiscreteVerifier(clones(
                   static_cast<int>(DiscreteVerifier::kMaxAppsUnpacked) + 1, 1,
                   1, 1, 3)),
               std::invalid_argument);
}

// ----------------------------------------------------- backend equality --

TEST(DiscreteLarge, UnpackedBackendMatchesPackedVerdicts) {
  // Same configurations through the default key (the dense code where it
  // fits) and the forced heap key: verdicts (including witnesses), the
  // captured snapshot bytes and a seeded extension from the population
  // minus its last app must be indistinguishable.
  struct Config {
    std::vector<AppTiming> apps;
    int bound;
  };
  const std::vector<Config> configs = {
      {{uniform_app("A", 3, 2, 4, 10)}, -1},
      {{uniform_app("A", 3, 2, 4, 10), uniform_app("B", 5, 1, 2, 9)}, -1},
      // Unsafe triple (same as the oracle tests): two back-to-back TT
      // episodes outlast the third app's T*w.
      {{uniform_app("A", 2, 2, 2, 7), uniform_app("B", 2, 2, 2, 7),
        uniform_app("C", 2, 2, 2, 7)},
       -1},
      // Five apps, the most the code takes; bounded to stay quick.
      {clones(5, 2, 1, 2, 6), 1},
      // Five apps whose fields would need 5 x 14 = 70 bits (T*w and T+dw
      // of 100, r = 249), so the default itself falls back to the heap
      // key, while the 4-app prefix (56 bits) still runs on the code.
      // A zero budget keeps the reachable set to the initial state.
      {clones(5, 100, 100, 100, 249), 0},
  };
  for (size_t c = 0; c < configs.size(); ++c) {
    const std::vector<AppTiming>& apps = configs[c].apps;
    const DiscreteVerifier verifier(apps);
    for (const bool witness : {false, true}) {
      DiscreteVerifier::Options code;
      code.want_witness = witness;
      code.max_disturbances_per_app = configs[c].bound;
      DiscreteVerifier::Options heap = code;
      heap.backend = DiscreteVerifier::StateBackend::kUnpacked;
      EXPECT_EQ(verifier.verify(code), verifier.verify(heap))
          << "config " << c << " witness " << witness;
    }

    DiscreteVerifier::Options code;
    code.max_disturbances_per_app = configs[c].bound;
    DiscreteVerifier::Options heap = code;
    heap.backend = DiscreteVerifier::StateBackend::kUnpacked;
    ExplorationState code_snapshot;
    ExplorationState heap_snapshot;
    EXPECT_EQ(verifier.verify(code, nullptr, &code_snapshot),
              verifier.verify(heap, nullptr, &heap_snapshot))
        << "config " << c;
    EXPECT_EQ(code_snapshot.napps, heap_snapshot.napps) << c;
    EXPECT_EQ(code_snapshot.packed, heap_snapshot.packed) << c;
    if (apps.size() < 2) continue;

    // Both backends extend the snapshot of the longest safe strict prefix
    // (a lone app is always safe); the record format is shared, whichever
    // key captured it.
    ExplorationState prefix;
    long n = static_cast<long>(apps.size()) - 1;
    while (!DiscreteVerifier({apps.begin(), apps.begin() + n})
                .verify(code, nullptr, &prefix)
                .safe)
      --n;
    ExplorationState code_extension;
    ExplorationState heap_extension;
    EXPECT_EQ(verifier.verify(code, &prefix, &code_extension),
              verifier.verify(heap, &prefix, &heap_extension))
        << "config " << c;
    EXPECT_EQ(code_extension.packed, heap_extension.packed) << c;
    if (!code_snapshot.packed.empty())
      EXPECT_EQ(code_extension.state_count(), code_snapshot.state_count())
          << c;
  }
}

// ------------------------------------------------------ prefix extension --

TEST(DiscreteLarge, ExtensionFromCapturedPrefixIsByteIdentical) {
  // Grow a slot one app at a time, as a first-fit walk does. At every
  // step, the verdict of the seeded extension must equal the from-scratch
  // verdict byte-for-byte (safe proofs count exactly the reachable set
  // regardless of seeding), and the captured snapshot must chain.
  const std::vector<AppTiming> all = {uniform_app("A", 3, 2, 4, 10),
                                      uniform_app("B", 5, 1, 2, 9),
                                      uniform_app("C", 4, 2, 2, 8)};
  const DiscreteVerifier::Options options;
  ExplorationState prev;
  for (size_t n = 1; n <= all.size(); ++n) {
    const std::vector<AppTiming> apps(all.begin(),
                                      all.begin() + static_cast<long>(n));
    const DiscreteVerifier verifier(apps);
    const SlotVerdict scratch = verifier.verify(options);
    ASSERT_TRUE(scratch.safe) << n;

    ExplorationState captured;
    const SlotVerdict extended = verifier.verify(
        options, n == 1 ? nullptr : &prev, &captured);
    EXPECT_EQ(extended, scratch) << n;
    EXPECT_EQ(captured.napps, n);
    EXPECT_EQ(captured.state_count(),
              static_cast<size_t>(scratch.states_explored));
    // First record is the all-steady initial state — the invariant the
    // next extension asserts before seeding.
    for (size_t b = 0; b < 3 * n; ++b) EXPECT_EQ(captured.packed[b], 0) << b;
    prev = std::move(captured);
  }
}

TEST(DiscreteLarge, ExtensionAgreesOnUnsafeConfigs) {
  // Unsafe extensions agree on the admission answer; the violation found
  // may differ (documented — unsafe verdicts are never cached).
  const std::vector<AppTiming> pair = {uniform_app("A", 2, 2, 2, 7),
                                       uniform_app("B", 2, 2, 2, 7)};
  const std::vector<AppTiming> triple = {uniform_app("A", 2, 2, 2, 7),
                                         uniform_app("B", 2, 2, 2, 7),
                                         uniform_app("C", 2, 2, 2, 7)};
  const DiscreteVerifier::Options options;
  ExplorationState snapshot;
  const SlotVerdict safe_pair =
      DiscreteVerifier(pair).verify(options, nullptr, &snapshot);
  ASSERT_TRUE(safe_pair.safe);
  const DiscreteVerifier verifier(triple);
  EXPECT_FALSE(verifier.verify(options).safe);
  EXPECT_FALSE(verifier.verify(options, &snapshot, nullptr).safe);
}

TEST(DiscreteLarge, ExtensionRejectsWitnessAndDepthFirst) {
  const std::vector<AppTiming> pair = {uniform_app("A", 3, 2, 4, 10),
                                       uniform_app("B", 5, 1, 2, 9)};
  ExplorationState snapshot;
  const DiscreteVerifier::Options options;
  ASSERT_TRUE(DiscreteVerifier({pair[0]})
                  .verify(options, nullptr, &snapshot)
                  .safe);
  const DiscreteVerifier verifier(pair);
  DiscreteVerifier::Options witness;
  witness.want_witness = true;
  EXPECT_THROW(static_cast<void>(verifier.verify(witness, &snapshot, nullptr)),
               std::logic_error);
  DiscreteVerifier::Options dfs;
  dfs.depth_first = true;
  EXPECT_THROW(static_cast<void>(verifier.verify(dfs, &snapshot, nullptr)),
               std::logic_error);
  ExplorationState capture;
  EXPECT_THROW(static_cast<void>(verifier.verify(dfs, nullptr, &capture)),
               std::logic_error);
}

// ---------------------------------------------------------- thread budget --
// proof_threads is a hint the verifier ignores: at any value, every query
// must return exactly the serial result.

TEST(DiscreteLarge, ParallelMatchesSerialOnSafeConfigs) {
  // Completed safe proofs equal serial whole, on the dense code and the
  // forced heap key, at 2 and 8 threads.
  struct Config {
    std::vector<AppTiming> apps;
    int bound;
  };
  const std::vector<Config> configs = {
      {clones(3, 4, 1, 1, 9), 2},  // 21 of the code's 63 bits
      {clones(4, 4, 1, 1, 8), 2},  // 28 code bits, ~150k states
      {clones(5, 4, 1, 1, 8), 1},  // 30 code bits, ~123k states
  };
  for (size_t c = 0; c < configs.size(); ++c) {
    const DiscreteVerifier verifier(configs[c].apps);
    DiscreteVerifier::Options serial;
    serial.max_disturbances_per_app = configs[c].bound;
    const SlotVerdict reference = verifier.verify(serial);
    ASSERT_TRUE(reference.safe) << c;
    for (const int threads : {2, 8}) {
      for (const bool unpacked : {false, true}) {
        DiscreteVerifier::Options parallel = serial;
        parallel.proof_threads = threads;
        if (unpacked)
          parallel.backend = DiscreteVerifier::StateBackend::kUnpacked;
        EXPECT_EQ(verifier.verify(parallel), reference)
            << "config " << c << " threads " << threads << " unpacked "
            << unpacked;
      }
    }
  }
}

TEST(DiscreteLarge, ParallelAgreesOnUnsafeConfigs) {
  // Unsafe verdicts equal serial whole (violator and states_explored
  // included), on the code and on the heap key, at 2 and 8 threads.
  const std::vector<AppTiming> apps = clones(5, 3, 1, 1, 8);
  const DiscreteVerifier verifier(apps);
  for (const bool unpacked : {false, true}) {
    DiscreteVerifier::Options serial;
    serial.max_disturbances_per_app = 1;
    if (unpacked) serial.backend = DiscreteVerifier::StateBackend::kUnpacked;
    const SlotVerdict reference = verifier.verify(serial);
    ASSERT_FALSE(reference.safe) << unpacked;
    for (const int threads : {2, 8}) {
      DiscreteVerifier::Options parallel = serial;
      parallel.proof_threads = threads;
      EXPECT_EQ(verifier.verify(parallel), reference)
          << "threads " << threads << " unpacked " << unpacked;
    }
  }
}

TEST(DiscreteLarge, ParallelBudgetExhaustionParity) {
  // The budget that just fits a proof returns the serial verdict and one
  // state fewer throws, for a safe proof (the whole reachable set) and an
  // unsafe one (up to the violating pop), on both keys, at every thread
  // count.
  struct Config {
    std::vector<AppTiming> apps;
    bool safe;
  };
  const std::vector<Config> configs = {{clones(4, 4, 1, 1, 8), true},
                                       {clones(5, 3, 1, 1, 8), false}};
  for (size_t c = 0; c < configs.size(); ++c) {
    const DiscreteVerifier verifier(configs[c].apps);
    for (const bool unpacked : {false, true}) {
      DiscreteVerifier::Options exact;
      exact.max_disturbances_per_app = 1;
      if (unpacked) exact.backend = DiscreteVerifier::StateBackend::kUnpacked;
      const SlotVerdict reference = verifier.verify(exact);
      ASSERT_EQ(reference.safe, configs[c].safe) << c;
      exact.max_states = reference.states_explored;
      DiscreteVerifier::Options starved = exact;
      starved.max_states = reference.states_explored - 1;
      for (const int threads : {1, 2, 8}) {
        exact.proof_threads = threads;
        starved.proof_threads = threads;
        EXPECT_EQ(verifier.verify(exact), reference)
            << "config " << c << " threads " << threads << " unpacked "
            << unpacked;
        EXPECT_THROW(static_cast<void>(verifier.verify(starved)),
                     std::runtime_error)
            << "config " << c << " threads " << threads << " unpacked "
            << unpacked;
      }
    }
  }
}

TEST(DiscreteLarge, ParallelHeapFallbackMatchesSerial) {
  // Past the code's 5 apps a thread budget still returns the serial
  // heap-key verdict; a zero disturbance budget keeps the 17-app space to
  // its single initial state.
  std::vector<AppTiming> apps;
  for (int i = 0; i < 17; ++i)
    apps.push_back(uniform_app("L" + std::to_string(i), 1 + (i % 4), 1, 1, 8));
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options options;
  options.max_disturbances_per_app = 0;
  const SlotVerdict reference = verifier.verify(options);
  ASSERT_TRUE(reference.safe);
  options.proof_threads = 8;
  EXPECT_EQ(verifier.verify(options), reference);
}

TEST(DiscreteLarge, ParallelMatchesSerialOnEveryQueryKind) {
  // A thread budget must not change what a query returns: a fresh proof's
  // captured snapshot bytes, a seeded extension (safe and unsafe, with
  // its snapshot), a witness query and a depth-first query all equal the
  // serial result, on both keys, at 2 and 8 threads.
  const std::vector<AppTiming> safe = {uniform_app("A", 3, 2, 4, 10),
                                       uniform_app("B", 5, 1, 2, 9),
                                       uniform_app("C", 4, 2, 2, 8)};
  const std::vector<AppTiming> unsafe = {uniform_app("A", 2, 2, 2, 7),
                                         uniform_app("B", 2, 2, 2, 7),
                                         uniform_app("C", 2, 2, 2, 7)};
  for (const bool unpacked : {false, true}) {
    DiscreteVerifier::Options serial;
    if (unpacked) serial.backend = DiscreteVerifier::StateBackend::kUnpacked;
    DiscreteVerifier::Options witness = serial;
    witness.want_witness = true;
    DiscreteVerifier::Options dfs = serial;
    dfs.depth_first = true;
    for (const std::vector<AppTiming>* apps : {&safe, &unsafe}) {
      const DiscreteVerifier verifier(*apps);
      ExplorationState prefix;
      ASSERT_TRUE(DiscreteVerifier({(*apps)[0], (*apps)[1]})
                      .verify(serial, nullptr, &prefix)
                      .safe);
      ExplorationState fresh;
      ExplorationState seeded;
      const SlotVerdict fresh_verdict = verifier.verify(serial, nullptr, &fresh);
      const SlotVerdict seeded_verdict =
          verifier.verify(serial, &prefix, &seeded);
      EXPECT_EQ(fresh_verdict.safe, apps == &safe);
      const SlotVerdict witness_verdict = verifier.verify(witness);
      const SlotVerdict dfs_verdict = verifier.verify(dfs);
      for (const int threads : {2, 8}) {
        const std::string where = std::string(apps == &safe ? "safe" : "unsafe") +
                                  " threads " + std::to_string(threads) +
                                  " unpacked " + std::to_string(unpacked);
        DiscreteVerifier::Options parallel = serial;
        parallel.proof_threads = threads;
        ExplorationState parallel_fresh;
        ExplorationState parallel_seeded;
        EXPECT_EQ(verifier.verify(parallel, nullptr, &parallel_fresh),
                  fresh_verdict)
            << where;
        EXPECT_EQ(parallel_fresh.napps, fresh.napps) << where;
        EXPECT_EQ(parallel_fresh.packed, fresh.packed) << where;
        EXPECT_EQ(verifier.verify(parallel, &prefix, &parallel_seeded),
                  seeded_verdict)
            << where;
        EXPECT_EQ(parallel_seeded.packed, seeded.packed) << where;
        DiscreteVerifier::Options parallel_witness = witness;
        parallel_witness.proof_threads = threads;
        EXPECT_EQ(verifier.verify(parallel_witness), witness_verdict) << where;
        DiscreteVerifier::Options parallel_dfs = dfs;
        parallel_dfs.proof_threads = threads;
        EXPECT_EQ(verifier.verify(parallel_dfs), dfs_verdict) << where;
      }
    }
  }
}

}  // namespace
}  // namespace ttdim::verify

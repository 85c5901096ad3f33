// Content-addressed identity of one application's analysis phase: the
// canonical, byte-exact serialization of everything the stability check
// and the dwell-table search read — discretized plant matrices, the
// fast/slow gain pair, the sampling period, and the settling / dwell
// parameters. Both computations are pure functions of these inputs
// (control/design.h, switching/dwell.h), so the key fully addresses an
// AppAnalysisResult: equal keys imply bit-identical results, and a 1-ulp
// plant perturbation yields a different key. App names and disturbance
// inter-arrival times are deliberately excluded — neither influences the
// analysis, so renamed or re-rated apps sharing one plant/gain tuple
// share one cache entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "control/lti.h"
#include "control/sim.h"
#include "switching/dwell.h"

namespace ttdim::engine::analysis {

/// Parameters of the per-application analysis beyond the plant and gains.
struct AppAnalysisSpec {
  /// Requirement, settling spec and granularity of the dwell-table search
  /// (switching::compute_dwell_tables).
  switching::DwellAnalysisSpec dwell;
  /// Mirror of SolveOptions::require_switching_stability: when true the
  /// analysis stops at a non-switching-stable pair and never computes
  /// dwell tables. Key-relevant — it decides whether a cached result
  /// carries tables, exactly like the verifier's state budget is part of
  /// SlotConfigKey because it can turn a result into a throw.
  bool stop_on_unstable = true;
};

/// Value key for the analysis cache. As with SlotConfigKey, `canonical`
/// is the full serialization and equality never trusts the hash alone:
/// an analysis cache must not hand a colliding entry's certificate to a
/// different plant.
struct AppAnalysisKey {
  std::string canonical;
  std::uint64_t hash = 0;

  [[nodiscard]] static AppAnalysisKey of(const control::DiscreteLti& plant,
                                         const linalg::Matrix& kt,
                                         const linalg::Matrix& ke,
                                         const AppAnalysisSpec& spec);

  friend bool operator==(const AppAnalysisKey& a, const AppAnalysisKey& b) {
    return a.hash == b.hash && a.canonical == b.canonical;
  }
  friend bool operator!=(const AppAnalysisKey& a, const AppAnalysisKey& b) {
    return !(a == b);
  }
};

struct AppAnalysisKeyHash {
  [[nodiscard]] std::size_t operator()(const AppAnalysisKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

}  // namespace ttdim::engine::analysis

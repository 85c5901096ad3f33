#include "engine/analysis/analysis_key.h"

namespace ttdim::engine::analysis {

AppAnalysisKey AppAnalysisKey::of(const control::DiscreteLti& plant,
                                  const linalg::Matrix& kt,
                                  const linalg::Matrix& ke,
                                  const AppAnalysisSpec& spec) {
  AppAnalysisKey key;
  key.canonical.reserve(512);
  control::append_canonical(key.canonical, plant);
  key.canonical += "kt=";
  linalg::append_canonical_bits(key.canonical, kt);
  key.canonical += "ke=";
  linalg::append_canonical_bits(key.canonical, ke);
  switching::append_canonical(key.canonical, spec.dwell);
  // Always the default grid spec, spelled out so persisted keys stay put.
  key.canonical += "stab:";
  control::append_canonical(key.canonical, control::SettlingSpec{});
  key.canonical += spec.stop_on_unstable ? "stop=1" : "stop=0";

  // FNV-1a, as in SlotConfigKey: equality re-checks the canonical string,
  // so the hash only has to spread buckets.
  std::uint64_t h = 1469598103934665603ull;
  for (char c : key.canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  key.hash = h;
  return key;
}

}  // namespace ttdim::engine::analysis

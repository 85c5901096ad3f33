// splitmix64 (Steele, Lea and Flood, OOPSLA 2014): a 64-bit mixing step
// that is a bijection on its input, so distinct seeds give distinct,
// well-spread outputs. The soundness fuzzer derives its per-iteration
// seeds with it, and seeded tests draw their inputs from it, so a seed
// names the same data on every platform and standard library (the
// <random> distributions are implementation-defined).
#pragma once

#include <cstdint>

namespace ttdim::support {

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Sequential generator over splitmix64: each draw mixes the previous
/// output.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() { return state_ = splitmix64(state_); }

  /// Uniform double in [-1, 1): the top 53 bits of one draw.
  constexpr double symmetric_unit() {
    return static_cast<double>(next() >> 11) * 0x1p-53 * 2.0 - 1.0;
  }

 private:
  std::uint64_t state_;
};

}  // namespace ttdim::support

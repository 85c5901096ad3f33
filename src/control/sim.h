// Closed-loop simulation and settling-time measurement.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "control/lti.h"

namespace ttdim::control {

/// One simulated sample of a control loop.
struct Sample {
  double t = 0.0;  ///< seconds since the disturbance
  double y = 0.0;  ///< first plant output
  double u = 0.0;  ///< input applied over [t, t+h)
};

using Trace = std::vector<Sample>;

/// Settling-time threshold: the system has settled at sample k0 when
/// |y[k]| <= abs_tol for every k >= k0 (paper Sec. 3.1 uses 0.02 against a
/// unit disturbance).
struct SettlingSpec {
  double abs_tol = 0.02;
  /// Samples simulated when measuring settling; must comfortably exceed
  /// any settling time of interest.
  int horizon = 4000;
};

/// Append a canonical, byte-exact serialization of a settling spec
/// (tolerance bit pattern + horizon) to `out`. Every simulation entry
/// point in this header is a pure function of its arguments, so a spec's
/// canonical form plus the loop's canonical form fully addresses any
/// settling result — what engine::analysis keys rely on.
void append_canonical(std::string& out, const SettlingSpec& spec);

/// Index of the first sample from which the trace output stays within
/// `abs_tol` to the end; nullopt when the trace never settles (including
/// divergence).
[[nodiscard]] std::optional<int> settling_samples(const Trace& trace,
                                                  double abs_tol);

/// Simulate x+ = a x from x0 for `steps` samples, recording y = (c x)(0)
/// and u = (k_u x) if a gain row is supplied (may be empty).
[[nodiscard]] Trace simulate_autonomous(const Matrix& a, const Matrix& c,
                                        const Matrix& x0, double h, int steps);

/// State of the bi-modal loop carried across mode switches.
struct LoopState {
  Matrix x;             ///< plant state (n x 1)
  double u_prev = 0.0;  ///< input applied during the previous sample
};

/// The bi-modal switched control loop of the paper: mode MT applies
/// u = -kt x with negligible delay, mode ME applies u = -ke [x; u_prev]
/// with one full sample of sensing-to-actuation delay.
class SwitchedLoop {
 public:
  /// `kt` is 1 x n, `ke` is 1 x (n+1).
  SwitchedLoop(DiscreteLti plant, Matrix kt, Matrix ke);

  [[nodiscard]] const DiscreteLti& plant() const noexcept { return plant_; }
  [[nodiscard]] const Matrix& kt() const noexcept { return kt_; }
  [[nodiscard]] const Matrix& ke() const noexcept { return ke_; }

  /// Fresh state immediately after a unit disturbance (y jumps to 1, held
  /// input memory cleared) — paper Sec. 3.1.
  [[nodiscard]] LoopState disturbed_state() const;

  /// Advance one sample in mode MT; returns the applied input.
  double step_tt(LoopState& s) const;
  /// Advance one sample in mode ME; returns the applied input (the held
  /// previous command, per the one-sample delay).
  double step_et(LoopState& s) const;

  [[nodiscard]] double output(const LoopState& s) const;

  /// Simulate: `wait` samples of ME, then `dwell` samples of MT, then ME
  /// until `spec.horizon` samples in total. This is exactly the switching
  /// pattern the strategy of Sec. 3 allows. Returns the full trace.
  [[nodiscard]] Trace simulate_pattern(int wait, int dwell,
                                       const SettlingSpec& spec) const;

  /// Settling time (in samples, from the disturbance) of the pattern
  /// above; nullopt when the loop fails to settle within the horizon,
  /// including a pattern whose mode schedule (wait + dwell samples) does
  /// not fit the horizon at all.
  ///
  /// Whenever the schedule fits, equals
  /// settling_samples(simulate_pattern(wait, dwell, spec), abs_tol) bit for
  /// bit. Up to kFlatMaxStates plant states it runs allocation-free on the
  /// loop matrices flattened at construction, and stops early: the
  /// constructor derives a tail certificate for the ME closed loop
  /// A = switched_modes(plant, kt, ke).a_et from floating-point powers of
  /// A (K, the first power up to 4096 with ||A^K||_inf <= 1/2, and M, the
  /// largest ||A^j||_inf below it). Once the schedule is over and
  /// 8 M ||c||_1 ||[x; u_prev]||_inf is below abs_tol, every later sample
  /// of the same floating-point recursion provably stays finite and within
  /// abs_tol (the argument, rounding included, is in sim.cpp), so the scan
  /// of the remaining samples cannot change the answer and is skipped.
  /// Without a certificate (an unstable or barely contracting ME mode, or
  /// non-finite gains) the full horizon is simulated. On the case-study
  /// loops a dwell-table or degradation-grid pattern stops after 40 to
  /// 220 samples on average instead of thousands.
  [[nodiscard]] std::optional<int> settling_of_pattern(
      int wait, int dwell, const SettlingSpec& spec) const;

  /// Simulate an arbitrary mode schedule: modes[k] == true means sample k
  /// runs in MT. Samples beyond the schedule run in ME.
  [[nodiscard]] Trace simulate_schedule(const std::vector<bool>& modes,
                                        int total_samples) const;

  /// Largest plant settling_of_pattern runs on flattened dynamics; larger
  /// plants fall back to scanning the Trace (the paper's plants have at
  /// most 3 states).
  static constexpr Index kFlatMaxStates = 8;

 private:
  using FlatRow = std::array<double, kFlatMaxStates + 1>;

  DiscreteLti plant_;
  Matrix kt_;
  Matrix ke_;
  // The loop flattened once for settling_of_pattern (n <= kFlatMaxStates).
  std::array<FlatRow, kFlatMaxStates> phi_{};
  FlatRow gamma_{};
  FlatRow kt_row_{};
  FlatRow ke_row_{};  ///< n + 1 entries
  FlatRow c_{};
  FlatRow x0_{};  ///< disturbed_state().x
  /// Tail certificate of the ME mode: 8 M ||c||_1, or 0 without one.
  double tail_gain_ = 0.0;
};

}  // namespace ttdim::control

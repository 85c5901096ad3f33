// Controller synthesis: pole placement (Ackermann) and discrete LQR.
//
// The paper ships concrete gains (Table 1); these routines let a user of
// the library design their own KT / KE pairs, and are used by the examples
// and by tests that re-derive gains with comparable closed-loop behaviour.
#pragma once

#include <complex>
#include <vector>

#include "control/lti.h"
#include "control/sim.h"

namespace ttdim::control {

/// Controllability matrix [gamma, phi gamma, ..., phi^{n-1} gamma].
[[nodiscard]] Matrix controllability_matrix(const DiscreteLti& plant);

/// True when (phi, gamma) is controllable (full-rank controllability
/// matrix).
[[nodiscard]] bool is_controllable(const DiscreteLti& plant,
                                   double tol = 1e-9);

/// Ackermann single-input pole placement: returns the 1 x n row gain k such
/// that eig(phi - gamma k) equals `poles`. Throws std::domain_error when
/// the plant is uncontrollable or `poles` has the wrong arity.
[[nodiscard]] Matrix ackermann(const DiscreteLti& plant,
                               const std::vector<std::complex<double>>& poles);

/// Infinite-horizon discrete LQR weights.
struct LqrWeights {
  Matrix q;  ///< n x n state cost, symmetric positive semidefinite
  Matrix r;  ///< m x m input cost, symmetric positive definite
};

/// Solve the discrete algebraic Riccati equation by fixed-point iteration
/// and return the optimal gain k (u = -k x). Throws std::runtime_error if
/// the iteration does not converge.
[[nodiscard]] Matrix dlqr(const DiscreteLti& plant, const LqrWeights& w,
                          int max_iter = 10000, double tol = 1e-12);

/// Observability matrix [c; c phi; ...; c phi^{n-1}].
[[nodiscard]] Matrix observability_matrix(const DiscreteLti& plant);

/// True when (phi, c) is observable.
[[nodiscard]] bool is_observable(const DiscreteLti& plant, double tol = 1e-9);

/// Luenberger observer gain l (n x 1 for single-output plants) placing the
/// eigenvalues of phi - l c at `poles`, via duality with Ackermann pole
/// placement on (phi', c'). The deployed estimator is
///   xhat[k+1] = phi xhat[k] + gamma u[k] + l (y[k] - c xhat[k]).
/// In the paper's distributed setting the observer runs on the sensor ECU
/// so the state-feedback gains KT / KE receive full state estimates.
[[nodiscard]] Matrix luenberger(const DiscreteLti& plant,
                                const std::vector<std::complex<double>>& poles);

/// Switching-stability verdict for a (kt, ke) pair on a plant (paper
/// Sec. 3, "Comments on switching stability").
///
/// Two pieces of evidence are gathered:
///  - a common quadratic Lyapunov function of the two closed loops in the
///    augmented space (the paper's recommended design condition), decided
///    by linalg::find_common_lyapunov. All six case-study pairs have one,
///    though C6's sits within about 1e-9 of the boundary of the CQLF
///    cone; for the paper's KuE pair a dual certificate proves that none
///    exists. A CQLF is sufficient for stability under arbitrary
///    switching, not necessary, so we also run
///  - the operative test behind the paper's Fig. 3: exhaustive simulation
///    of all switching patterns; the pair is degradation-free when no
///    (wait, dwell) pattern settles later than staying in ME outright
///    (for the paper's KuE pair the worst pattern settles 46 > JE = 35
///    samples; for all six case-study pairs the worst equals JE exactly).
struct SwitchingStability {
  bool tt_stable = false;
  bool et_stable = false;
  bool common_lyapunov = false;
  bool degradation_free = false;
  int settling_et = 0;       ///< JE, samples
  int worst_settling = 0;    ///< max J over the switching-pattern grid
  Matrix p;  ///< CQLF certificate when common_lyapunov is true
  [[nodiscard]] bool switching_stable() const noexcept {
    return tt_stable && et_stable && (common_lyapunov || degradation_free);
  }
};
[[nodiscard]] SwitchingStability check_switching_stability(
    const DiscreteLti& plant, const Matrix& kt, const Matrix& ke,
    const SettlingSpec& settling = {});

/// Append a canonical, byte-exact serialization of a stability verdict
/// (flags, settling numbers, CQLF certificate bits) to `out`, and the
/// verdict's resident byte size. check_switching_stability is a pure
/// function of (plant, kt, ke, settling), so the canonical form of those
/// inputs content-addresses the verdict — this pair is what lets the
/// engine::analysis cache store and equality-check certificates.
void append_canonical(std::string& out, const SwitchingStability& s);
[[nodiscard]] std::size_t byte_cost(const SwitchingStability& s);

/// Round-trip binary codec for disk-cached stability verdicts (the CQLF
/// certificate rides through the linalg::CommonLyapunov codec). decode
/// returns false on malformed input and never throws.
void encode(support::codec::Encoder& enc, const SwitchingStability& s);
[[nodiscard]] bool decode(support::codec::Decoder& dec,
                          SwitchingStability& s);

}  // namespace ttdim::control

// Discrete-time Lyapunov machinery used for switching-stability analysis
// (paper Sec. 3, "Comments on switching stability").
#pragma once

#include "linalg/matrix.h"

namespace ttdim::linalg {

/// Solve the discrete Lyapunov equation  A' P A - P + Q = 0  for P via
/// Kronecker vectorisation: (A'(x)A' - I) vec(P) = -vec(Q). Q must be
/// symmetric; P is returned symmetrised. Throws std::domain_error when A
/// has reciprocal eigenvalue pairs (equation singular).
[[nodiscard]] Matrix dlyap(const Matrix& a, const Matrix& q);

/// True when `p` is symmetric within 1e-8 * max(1, max |entry|) and every
/// Cholesky pivot lies above tol * max(1, max |entry|).
[[nodiscard]] bool is_positive_definite(const Matrix& p, double tol = 1e-10);

/// Result of deciding whether two discrete-time closed-loop matrices share
/// a common quadratic Lyapunov function (CQLF).
struct CommonLyapunov {
  bool found = false;
  Matrix p;  ///< valid iff found: P > 0 with Ai' P Ai - P < 0 for both Ai.
  /// True when (z1, z2) proves that no CQLF exists; see
  /// refutes_common_lyapunov. The refutation is not part of the canonical
  /// bytes or the codec, so a decoded result reads false here.
  bool refuted = false;
  // Braced, so that a `{found, p}` initialiser need not name them.
  Matrix z1{};  ///< valid iff refuted, with tr z1 + tr z2 = 1
  Matrix z2{};
};

/// Decide whether some P > 0 has a1' P a1 - P < 0 and a2' P a2 - P < 0.
///
/// Method: a log-det barrier method (Boyd, El Ghaoui, Feron & Balakrishnan,
/// "Linear Matrix Inequalities in System and Control Theory", SIAM 1994,
/// Ch. 2 and 5) maximises t subject to P >= 0, P - Ai' P Ai >= t I and
/// tr P = 1. Each centring round takes damped Newton steps on the
/// n(n+1)/2 unknowns; between rounds the barrier weight grows tenfold.
/// The caps are 14 centring rounds and 100 Newton steps in all. Every
/// iterate's P, scaled to max |entry| = 1, is put to the acceptance test
/// (is_positive_definite and certifies_decrease at their defaults, for
/// both modes); the first that passes is returned with found = true. At
/// the end of each round the central-path dual point is put to
/// refutes_common_lyapunov; when it passes, the result has refuted = true.
///
/// found = false without a refutation means: a mode is not Schur stable
/// (no Lyapunov function exists, and the method does not run), or the
/// caps ran out, or the Newton system broke down in floating point. The
/// last two happen only when the best t at tr P = 1 is within about
/// 1e-9 of zero. The barrier method itself never throws on finite input.
[[nodiscard]] CommonLyapunov find_common_lyapunov(const Matrix& a1,
                                                  const Matrix& a2);

/// True when `p` certifies a' p a - p < 0 within `tol`: every Cholesky
/// pivot of the symmetrised decrement p - a' p a lies above
/// tol * max(1, max |entry of the decrement|).
[[nodiscard]] bool certifies_decrease(const Matrix& a, const Matrix& p,
                                      double tol = 1e-9);

/// True when z1, z2 prove that a1 and a2 share no CQLF (a theorem of
/// alternatives; Boyd & Vandenberghe, "Convex Optimization", 2004,
/// Sec. 5.9): after scaling to tr z1 + tr z2 = 1, both zi are positive
/// definite and W = sum_i (ai zi ai' - zi) has every eigenvalue above
/// margin * max(1, max |entry of W|). For any CQLF P, <P, W> =
/// -sum_i <P - ai' P ai, zi> would be negative, yet P > 0 and W > 0 make
/// it positive.
[[nodiscard]] bool refutes_common_lyapunov(const Matrix& a1,
                                           const Matrix& a2,
                                           const Matrix& z1,
                                           const Matrix& z2,
                                           double margin = 1e-9);

/// Append a canonical, byte-exact serialization of a CQLF decision
/// (found flag + the certificate's IEEE-754 bit patterns) to `out`.
/// Lets a cached stability certificate be content-addressed and compared
/// bit-for-bit without lossy floating-point formatting.
void append_canonical(std::string& out, const CommonLyapunov& c);

/// Round-trip binary codec for disk-cached certificates. decode returns
/// false on malformed input and never throws.
void encode(support::codec::Encoder& enc, const CommonLyapunov& c);
[[nodiscard]] bool decode(support::codec::Decoder& dec, CommonLyapunov& c);

}  // namespace ttdim::linalg

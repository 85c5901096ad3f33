// Eigenvalue computation for small dense real matrices.
//
// Strategy: reduce to (complex) Hessenberg form with Householder
// reflections, then run a Wilkinson-shifted QR iteration with Givens
// rotations and deflation. Complex arithmetic throughout keeps the
// iteration simple and is perfectly adequate for the <= 5x5 matrices this
// repository works with.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.h"

namespace ttdim::linalg {

/// All eigenvalues of a square real matrix, unordered. Throws
/// std::runtime_error if the QR iteration fails to converge (does not occur
/// for the well-conditioned control matrices handled here).
[[nodiscard]] std::vector<std::complex<double>> eigenvalues(const Matrix& a);

/// max |lambda_i|.
[[nodiscard]] double spectral_radius(const Matrix& a);

/// True when every eigenvalue has |lambda| < 1 - margin, i.e. the
/// discrete-time system x+ = a x is asymptotically (Schur) stable.
[[nodiscard]] bool is_schur_stable(const Matrix& a, double margin = 0.0);

/// Coefficients c of the monic polynomial with the given roots:
/// p(s) = s^n + c[0] s^{n-1} + ... + c[n-1]. Imaginary parts of the
/// expanded coefficients must cancel (roots in conjugate pairs); enforced to
/// 1e-9.
[[nodiscard]] std::vector<double> poly_from_roots(
    const std::vector<std::complex<double>>& roots);

/// Evaluate the monic matrix polynomial
/// p(A) = A^n + c[0] A^{n-1} + ... + c[n-1] I.
[[nodiscard]] Matrix polyvalm(const std::vector<double>& monic_coeffs,
                              const Matrix& a);

}  // namespace ttdim::linalg

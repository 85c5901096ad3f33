#include "linalg/lyap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/eig.h"
#include "linalg/solve.h"
#include "support/check.h"

namespace ttdim::linalg {

Matrix dlyap(const Matrix& a, const Matrix& q) {
  TTDIM_EXPECTS(a.is_square() && q.is_square() && a.rows() == q.rows());
  TTDIM_EXPECTS(q.is_symmetric(1e-9));
  const Index n = a.rows();
  const Matrix at = a.transpose();
  const Matrix lhs = kron(at, at) - Matrix::identity(n * n);
  Matrix p;
  try {
    p = unvec(solve(lhs, -vec(q)), n, n);
  } catch (const std::domain_error&) {
    throw std::domain_error(
        "dlyap: singular Lyapunov operator (reciprocal eigenvalue pair)");
  }
  p.symmetrize();
  return p;
}

namespace {

/// Lower Cholesky factor of the symmetric matrix `a`, written to the lower
/// triangle of `l` (the upper triangle keeps `a`'s entries). False as soon
/// as a pivot is not above `floor`, NaN included: `a` is then not positive
/// definite by that margin.
bool cholesky(const Matrix& a, double floor, Matrix& l) {
  const Index n = a.rows();
  l = a;
  for (Index k = 0; k < n; ++k) {
    double d = l(k, k);
    for (Index j = 0; j < k; ++j) d -= l(k, j) * l(k, j);
    if (!(d > floor)) return false;
    const double s = std::sqrt(d);
    l(k, k) = s;
    for (Index i = k + 1; i < n; ++i) {
      double v = l(i, k);
      for (Index j = 0; j < k; ++j) v -= l(i, j) * l(k, j);
      l(i, k) = v / s;
    }
  }
  return true;
}

}  // namespace

bool is_positive_definite(const Matrix& p, double tol) {
  TTDIM_EXPECTS(p.is_square());
  const double scale = std::max(1.0, p.max_abs());
  if (!p.is_symmetric(1e-8 * scale)) return false;
  Matrix l;
  return cholesky(p, tol * scale, l);
}

bool certifies_decrease(const Matrix& a, const Matrix& p, double tol) {
  Matrix dec = p - a.transpose() * p * a;  // must be positive definite
  dec.symmetrize();
  return is_positive_definite(dec, tol);
}

bool refutes_common_lyapunov(const Matrix& a1, const Matrix& a2,
                             const Matrix& z1, const Matrix& z2,
                             double margin) {
  TTDIM_EXPECTS(a1.is_square() && a2.is_square() && a1.rows() == a2.rows());
  TTDIM_EXPECTS(z1.rows() == a1.rows() && z2.rows() == a1.rows());
  const double trace = z1.trace() + z2.trace();
  if (!(trace > 0.0)) return false;
  const Matrix y1 = z1 / trace;
  const Matrix y2 = z2 / trace;
  if (!is_positive_definite(y1, 0.0) || !is_positive_definite(y2, 0.0))
    return false;
  Matrix w = a1 * y1 * a1.transpose() - y1 + a2 * y2 * a2.transpose() - y2;
  w.symmetrize();
  const double shift = margin * std::max(1.0, w.max_abs());
  for (Index k = 0; k < w.rows(); ++k) w(k, k) -= shift;
  Matrix l;
  return cholesky(w, 0.0, l);
}

namespace {

// find_common_lyapunov decides the LMI
//   maximise t  subject to  P >= 0,  P - Ai' P Ai >= t I (i = 1, 2),
//                           tr P = 1
// with a log-det barrier method (Boyd & Vandenberghe, Convex Optimization,
// 2004, Sec. 11.6). A centring round minimises
//   f_s(P, t) = -s t - log det P - sum_i log det(P - Ai' P Ai - t I)
// by damped Newton steps; then s grows by kGrowth. The trace constraint is
// eliminated, P = I/n + sum_k x_k B_k over the trace-free symmetric basis
// {E_ij + E_ji (i < j), E_kk - E_mm (k < m = n - 1)}, so the Newton system
// is the Hessian in the n(n+1)/2 unknowns (x, t): positive definite, and
// factored by Cholesky. At a centred point S_i = (P - Ai' P Ai - t I)^-1
// scaled to tr S_1 + tr S_2 = 1 is the dual point (Sec. 5.9 there) that
// refutes_common_lyapunov checks.

constexpr double kGrowth = 10.0;      ///< factor on s per centring round
constexpr int kMaxRounds = 14;        ///< s runs 1, 10, ..., 1e13
constexpr int kMaxNewtonSteps = 100;  ///< over all rounds
constexpr int kMaxHalvings = 60;      ///< step halvings per line search
constexpr double kCentred = 1e-8;     ///< half squared Newton decrement

/// (L L')^-1 for a lower Cholesky factor `l`.
Matrix inverse_from_cholesky(const Matrix& l) {
  const Index n = l.rows();
  Matrix li(n, n);  // L^-1, lower triangular
  for (Index c = 0; c < n; ++c) {
    li(c, c) = 1.0 / l(c, c);
    for (Index r = c + 1; r < n; ++r) {
      double v = 0.0;
      for (Index k = c; k < r; ++k) v -= l(r, k) * li(k, c);
      li(r, c) = v / l(r, r);
    }
  }
  Matrix s(n, n);  // L^-T L^-1
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c <= r; ++c) {
      double v = 0.0;
      for (Index k = r; k < n; ++k) v += li(k, r) * li(k, c);
      s(r, c) = v;
      s(c, r) = v;
    }
  return s;
}

/// Solves (L L') x = b in place for a lower Cholesky factor `l`.
void solve_cholesky(const Matrix& l, std::vector<double>& b) {
  const Index n = l.rows();
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < i; ++k) b[i] -= l(i, k) * b[k];
    b[i] /= l(i, i);
  }
  for (Index i = n - 1; i >= 0; --i) {
    for (Index k = i + 1; k < n; ++k) b[i] -= l(k, i) * b[k];
    b[i] /= l(i, i);
  }
}

/// Frobenius inner product of two equally shaped matrices.
double inner(const Matrix& x, const Matrix& y) {
  double v = 0.0;
  for (std::size_t i = 0; i < x.data().size(); ++i)
    v += x.data()[i] * y.data()[i];
  return v;
}

/// One iterate (P, t) with the Cholesky factors of its three constraint
/// matrices.
struct Iterate {
  Matrix p;
  double t = 0.0;
  std::array<Matrix, 3> chol;
  double log_det = 0.0;  ///< sum of the three log-determinants
};

/// Derivatives of the barrier -sum log det at an iterate, over the
/// unknowns (x, t); the -s t term adds -s to the last gradient entry.
struct Derivatives {
  std::array<Matrix, 3> inverse;  ///< the constraint matrices' inverses
  std::vector<double> gradient;
  Matrix hessian;  ///< lower Cholesky factor
};

/// The LMI of one mode pair in the barrier method's coordinates.
class Lmi {
 public:
  Lmi(const Matrix& a1, const Matrix& a2)
      : a_{a1, a2}, at_{a1.transpose(), a2.transpose()}, n_(a1.rows()) {
    for (Index i = 0; i < n_; ++i)
      for (Index j = i + 1; j < n_; ++j) {
        Matrix b(n_, n_);
        b(i, j) = 1.0;
        b(j, i) = 1.0;
        basis_.push_back(std::move(b));
      }
    for (Index k = 0; k + 1 < n_; ++k) {
      Matrix b(n_, n_);
      b(k, k) = 1.0;
      b(n_ - 1, n_ - 1) = -1.0;
      basis_.push_back(std::move(b));
    }
    for (const Matrix& b : basis_) images_.push_back(constraints(b, 0.0));
    images_.push_back(constraints(Matrix(n_, n_), 1.0));
  }

  /// P, P - a1' P a1 - t I and P - a2' P a2 - t I; linear in (p, t).
  [[nodiscard]] std::array<Matrix, 3> constraints(const Matrix& p,
                                                  double t) const {
    std::array<Matrix, 3> f{p, p - at_[0] * p * a_[0], p - at_[1] * p * a_[1]};
    for (int i = 1; i < 3; ++i) {
      for (Index k = 0; k < n_; ++k) f[i](k, k) -= t;
      f[i].symmetrize();
    }
    return f;
  }

  /// The start, P = I/n with t below both decrements' Gershgorin bounds,
  /// into `x`; false only when the decrements overflow.
  bool start(Iterate& x) const {
    const Matrix p = Matrix::identity(n_) / static_cast<double>(n_);
    const std::array<Matrix, 3> f = constraints(p, 0.0);
    double t = 0.0;
    for (int i = 1; i < 3; ++i)
      for (Index r = 0; r < n_; ++r) {
        double bound = f[i](r, r);
        for (Index c = 0; c < n_; ++c)
          if (c != r) bound -= std::abs(f[i](r, c));
        t = std::min(t, bound);
      }
    return evaluate(p, t - (1.0 - t), x);
  }

  /// Factors the constraints at (p, t) into `out`; false when (p, t) is
  /// not strictly feasible.
  bool evaluate(Matrix p, double t, Iterate& out) const {
    const std::array<Matrix, 3> f = constraints(p, t);
    out.log_det = 0.0;
    for (int i = 0; i < 3; ++i) {
      if (!cholesky(f[i], 0.0, out.chol[i])) return false;
      for (Index k = 0; k < n_; ++k)
        out.log_det += 2.0 * std::log(out.chol[i](k, k));
    }
    out.p = std::move(p);
    out.t = t;
    return true;
  }

  /// False when the Hessian is not positive definite to working precision.
  bool derivatives(const Iterate& x, Derivatives& out) const {
    const std::size_t d = images_.size();
    for (int i = 0; i < 3; ++i)
      out.inverse[i] = inverse_from_cholesky(x.chol[i]);
    out.gradient.assign(d, 0.0);
    std::vector<std::array<Matrix, 3>> weighted(d);  // S U S per image
    Matrix h(static_cast<Index>(d), static_cast<Index>(d));
    for (std::size_t k = 0; k < d; ++k) {
      for (int i = 0; i < 3; ++i) {
        const Matrix& s = out.inverse[i];
        out.gradient[k] -= inner(s, images_[k][i]);
        weighted[k][i] = s * images_[k][i] * s;
      }
      for (std::size_t l = 0; l <= k; ++l) {
        double v = 0.0;
        for (int i = 0; i < 3; ++i) v += inner(weighted[k][i], images_[l][i]);
        h(static_cast<Index>(k), static_cast<Index>(l)) = v;
        h(static_cast<Index>(l), static_cast<Index>(k)) = v;
      }
    }
    return cholesky(h, 0.0, out.hessian);
  }

  /// The P part of a step in the unknowns (the last entry is t's).
  [[nodiscard]] Matrix p_step(const std::vector<double>& dx) const {
    Matrix dp(n_, n_);
    for (std::size_t k = 0; k < basis_.size(); ++k) dp += basis_[k] * dx[k];
    return dp;
  }

  /// `p` scaled to max |entry| = 1, when that passes the acceptance test.
  [[nodiscard]] std::optional<Matrix> certificate(const Matrix& p) const {
    Matrix scaled = p / p.max_abs();
    if (!is_positive_definite(scaled) || !certifies_decrease(a_[0], scaled) ||
        !certifies_decrease(a_[1], scaled))
      return std::nullopt;
    return scaled;
  }

 private:
  std::array<Matrix, 2> a_;
  std::array<Matrix, 2> at_;
  Index n_;
  std::vector<Matrix> basis_;
  std::vector<std::array<Matrix, 3>> images_;  ///< constraints() of each
                                               ///< unknown's unit step
};

}  // namespace

CommonLyapunov find_common_lyapunov(const Matrix& a1, const Matrix& a2) {
  TTDIM_EXPECTS(a1.is_square() && a2.is_square() && a1.rows() == a2.rows());
  // A CQLF requires each mode to be Schur stable on its own.
  if (!is_schur_stable(a1) || !is_schur_stable(a2)) return {};

  const Lmi lmi(a1, a2);
  Iterate x;
  if (!lmi.start(x)) return {};
  if (std::optional<Matrix> p = lmi.certificate(x.p)) return {true, std::move(*p)};
  Derivatives dv;
  if (!lmi.derivatives(x, dv)) return {};
  double s = 1.0;
  for (int rounds = 0, steps = 0;
       rounds < kMaxRounds && steps < kMaxNewtonSteps;) {
    std::vector<double> gradient = dv.gradient;
    gradient.back() -= s;
    std::vector<double> dx = gradient;
    solve_cholesky(dv.hessian, dx);
    double decrement = 0.0;  // squared Newton decrement
    for (std::size_t k = 0; k < dx.size(); ++k) {
      dx[k] = -dx[k];
      decrement -= gradient[k] * dx[k];
    }
    if (decrement / 2.0 <= kCentred) {
      // Centred: check the dual point, then tighten the barrier.
      const double trace = dv.inverse[1].trace() + dv.inverse[2].trace();
      CommonLyapunov out;
      out.z1 = dv.inverse[1] / trace;
      out.z2 = dv.inverse[2] / trace;
      if (refutes_common_lyapunov(a1, a2, out.z1, out.z2)) {
        out.refuted = true;
        return out;
      }
      s *= kGrowth;
      ++rounds;
      continue;
    }
    const Matrix dp = lmi.p_step(dx);
    const double value = -s * x.t - x.log_det;
    double alpha = 1.0;
    for (int halvings = 0;; ++halvings, alpha *= 0.5) {
      if (halvings == kMaxHalvings) return {};
      Iterate trial;
      if (lmi.evaluate(x.p + dp * alpha, x.t + alpha * dx.back(), trial) &&
          -s * trial.t - trial.log_det <= value - 0.25 * alpha * decrement) {
        x = std::move(trial);
        break;
      }
    }
    ++steps;
    if (std::optional<Matrix> p = lmi.certificate(x.p)) return {true, std::move(*p)};
    if (!lmi.derivatives(x, dv)) return {};
  }
  return {};
}

void append_canonical(std::string& out, const CommonLyapunov& c) {
  out += c.found ? "cqlf=1:" : "cqlf=0:";
  append_canonical_bits(out, c.p);
}

void encode(support::codec::Encoder& enc, const CommonLyapunov& c) {
  enc.u8(c.found ? 1 : 0);
  encode(enc, c.p);
}

bool decode(support::codec::Decoder& dec, CommonLyapunov& c) {
  c = CommonLyapunov{};
  std::uint8_t found = 0;
  if (!dec.u8(found) || found > 1) return false;
  if (!decode(dec, c.p)) return false;
  c.found = found != 0;
  return true;
}

}  // namespace ttdim::linalg

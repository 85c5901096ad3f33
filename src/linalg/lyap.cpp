#include "linalg/lyap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
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

bool is_positive_definite(const Matrix& p, double tol) {
  TTDIM_EXPECTS(p.is_square());
  if (!p.is_symmetric(1e-8 * std::max(1.0, p.max_abs()))) return false;
  // In-place Cholesky; failure of any pivot means not PD.
  const Index n = p.rows();
  Matrix l = p;
  for (Index k = 0; k < n; ++k) {
    double d = l(k, k);
    for (Index j = 0; j < k; ++j) d -= l(k, j) * l(k, j);
    if (d <= tol * std::max(1.0, p.max_abs())) return false;
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

bool certifies_decrease(const Matrix& a, const Matrix& p, double tol) {
  Matrix dec = p - a.transpose() * p * a;  // must be positive definite
  dec.symmetrize();
  return is_positive_definite(dec, tol);
}

namespace {

/// Largest system whose subgradient scratch lives on the stack. The
/// paper's augmented closed loops are 2x2 to 4x4.
constexpr Index kStackN = 6;

/// Scratch storage the subgradient phase below is written against, one
/// instantiation per shape (the PackedShape/HeapShape idiom of
/// verify/discrete.cpp): arrays with the compile-time row stride Cap on
/// the stack for n <= Cap, heap storage above. Both index as m[r][c] and
/// v[i], so every n runs the same arithmetic.
template <Index Cap>
struct StackScratch {
  using Vec = std::array<double, Cap>;
  using Mat = std::array<Vec, Cap>;
  static Vec vec(Index /*n*/) { return {}; }
  static Mat mat(Index /*n*/) { return {}; }
};

struct HeapScratch {
  using Vec = std::vector<double>;
  using Mat = std::vector<Vec>;
  static Vec vec(Index n) { return Vec(static_cast<size_t>(n)); }
  static Mat mat(Index n) { return Mat(static_cast<size_t>(n), vec(n)); }
};

/// Cyclic Jacobi eigendecomposition of the symmetric n x n block `m`,
/// which is diagonalized in place: the (unordered) eigenvalues go to
/// `values`, the orthonormal eigenvectors to the columns of `vectors`.
template <typename Mat, typename Vec>
void jacobi_eig(Mat& m, Index n, Vec& values, Mat& vectors) {
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) vectors[r][c] = (r == c) ? 1.0 : 0.0;
  for (int sweep = 0; sweep < 128; ++sweep) {
    double off = 0.0;
    for (Index i = 0; i < n; ++i)
      for (Index j = i + 1; j < n; ++j) off += m[i][j] * m[i][j];
    double ma = 0.0;
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) ma = std::max(ma, std::abs(m[r][c]));
    if (off < 1e-24 * std::max(1.0, ma * ma)) break;
    for (Index p = 0; p < n; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        if (std::abs(m[p][q]) < 1e-18) continue;
        const double theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (Index k = 0; k < n; ++k) {
          const double mkp = m[k][p];
          const double mkq = m[k][q];
          m[k][p] = c * mkp - s * mkq;
          m[k][q] = s * mkp + c * mkq;
        }
        for (Index k = 0; k < n; ++k) {
          const double mpk = m[p][k];
          const double mqk = m[q][k];
          m[p][k] = c * mpk - s * mqk;
          m[q][k] = s * mpk + c * mqk;
        }
        for (Index k = 0; k < n; ++k) {
          const double vkp = vectors[k][p];
          const double vkq = vectors[k][q];
          vectors[k][p] = c * vkp - s * vkq;
          vectors[k][q] = s * vkp + c * vkq;
        }
      }
    }
  }
  for (Index i = 0; i < n; ++i) values[i] = m[i][i];
}

/// Subgradient feasibility phase of find_common_lyapunov. Minimises the
/// worst constraint violation
///   f(P) = max_i  eps - lambda_min(F_i(P)),
///   F_0 = P,  F_1 = P - a1' P a1,  F_2 = P - a2' P a2,
/// moving P along the eigenvector subgradient of the active constraint.
/// This finds certificates that sit close to the boundary of the CQLF
/// cone (the paper's KsE/KT pair is such a case). Deterministic; returns
/// the best iterate found within a fixed iteration budget. The operation
/// order (left-associated products that skip exact-zero factors, as
/// Matrix operator* does) fixes the certificate bits, which linalg_test
/// pins for both storage shapes.
template <typename S>
Matrix subgradient_phase(const Matrix& a1m, const Matrix& a2m,
                         const Matrix& p0, double eps) {
  const Index n = a1m.rows();
  typename S::Mat a1 = S::mat(n), a2 = S::mat(n), p = S::mat(n),
                  best = S::mat(n), grad = S::mat(n), f = S::mat(n),
                  t1 = S::mat(n), vectors = S::mat(n);
  typename S::Vec values = S::vec(n), v = S::vec(n), av = S::vec(n);
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) {
      a1[r][c] = a1m(r, c);
      a2[r][c] = a2m(r, c);
      p[r][c] = p0(r, c);
      best[r][c] = p0(r, c);
    }
  double best_violation = 1e18;
  for (int it = 0; it < 40000; ++it) {
    double worst = -1e18;
    for (int m = 0; m < 3; ++m) {
      // f = p (m == 0) or p - a' p a, symmetrized.
      if (m == 0) {
        for (Index r = 0; r < n; ++r)
          for (Index c = 0; c < n; ++c) f[r][c] = p[r][c];
      } else {
        const auto& a = (m == 1) ? a1 : a2;
        for (Index r = 0; r < n; ++r) {  // t1 = a' * p
          for (Index c = 0; c < n; ++c) t1[r][c] = 0.0;
          for (Index k = 0; k < n; ++k) {
            const double x = a[k][r];  // a'(r, k)
            if (x == 0.0) continue;
            for (Index c = 0; c < n; ++c) t1[r][c] += x * p[k][c];
          }
        }
        for (Index r = 0; r < n; ++r) {
          for (Index c = 0; c < n; ++c) f[r][c] = 0.0;
          for (Index k = 0; k < n; ++k) {
            const double x = t1[r][k];
            if (x == 0.0) continue;
            for (Index c = 0; c < n; ++c) f[r][c] += x * a[k][c];
          }
          for (Index c = 0; c < n; ++c) f[r][c] = p[r][c] - f[r][c];
        }
      }
      for (Index r = 0; r < n; ++r)
        for (Index c = r + 1; c < n; ++c) {
          const double avg = 0.5 * (f[r][c] + f[c][r]);
          f[r][c] = avg;
          f[c][r] = avg;
        }
      jacobi_eig(f, n, values, vectors);
      Index mi = 0;
      for (Index i = 1; i < n; ++i)
        if (values[i] < values[mi]) mi = i;
      const double violation = eps - values[mi];
      if (violation > worst) {
        worst = violation;
        for (Index k = 0; k < n; ++k) v[k] = vectors[k][mi];
        // grad = v v' (- (a v)(a v)' for m > 0); rows whose factor is
        // exactly zero stay zero, as in operator*.
        for (Index r = 0; r < n; ++r)
          for (Index c = 0; c < n; ++c)
            grad[r][c] = (v[r] == 0.0) ? 0.0 : 0.0 + v[r] * v[c];
        if (m > 0) {
          const auto& a = (m == 1) ? a1 : a2;
          for (Index r = 0; r < n; ++r) {
            av[r] = 0.0;
            for (Index k = 0; k < n; ++k) {
              const double x = a[r][k];
              if (x == 0.0) continue;
              av[r] += x * v[k];
            }
          }
          for (Index r = 0; r < n; ++r)
            for (Index c = 0; c < n; ++c)
              grad[r][c] -= (av[r] == 0.0) ? 0.0 : 0.0 + av[r] * av[c];
        }
      }
    }
    if (worst < best_violation) {
      best_violation = worst;
      for (Index r = 0; r < n; ++r)
        for (Index c = 0; c < n; ++c) best[r][c] = p[r][c];
    }
    if (worst <= 0.0) break;
    double sq = 0.0;
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) sq += grad[r][c] * grad[r][c];
    const double nrm = std::sqrt(sq);
    const double g2 = nrm * nrm;
    const double step = 0.5 * worst / std::max(1.0, g2);
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) p[r][c] += grad[r][c] * step;
    for (Index r = 0; r < n; ++r)
      for (Index c = r + 1; c < n; ++c) {
        const double avg = 0.5 * (p[r][c] + p[c][r]);
        p[r][c] = avg;
        p[c][r] = avg;
      }
    double scale = 0.0;
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) scale = std::max(scale, std::abs(p[r][c]));
    if (scale > 0.0)
      for (Index r = 0; r < n; ++r)
        for (Index c = 0; c < n; ++c) p[r][c] /= scale;
  }
  Matrix out(n, n);
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) out(r, c) = best[r][c];
  return out;
}

}  // namespace

CommonLyapunov find_common_lyapunov(const Matrix& a1, const Matrix& a2) {
  TTDIM_EXPECTS(a1.is_square() && a2.is_square() && a1.rows() == a2.rows());
  const Index n = a1.rows();
  // A CQLF requires each mode to be Schur stable on its own.
  if (!is_schur_stable(a1) || !is_schur_stable(a2)) return {};

  const Matrix q = Matrix::identity(n);
  std::vector<Matrix> candidates;
  const Matrix p1 = dlyap(a1, q);
  const Matrix p2 = dlyap(a2, q);
  candidates.push_back(p1);
  candidates.push_back(p2);
  for (double w : {0.5, 0.25, 0.75, 0.1, 0.9})
    candidates.push_back(p1 * w + p2 * (1.0 - w));
  // Blended-operator candidates: solve
  //   t (a1' P a1 - P) + (1-t) (a2' P a2 - P) = -I
  // for a grid of t. The solution moves continuously between the two
  // single-mode Lyapunov solutions and frequently lands inside the CQLF
  // cone when it is non-empty (sufficient search; no full LMI solver).
  const Matrix at1 = a1.transpose();
  const Matrix at2 = a2.transpose();
  const Matrix op1 = kron(at1, at1) - Matrix::identity(n * n);
  const Matrix op2 = kron(at2, at2) - Matrix::identity(n * n);
  for (int i = 1; i < 20; ++i) {
    const double t = i / 20.0;
    try {
      Matrix cand = unvec(solve(op1 * t + op2 * (1.0 - t), -vec(q)), n, n);
      cand.symmetrize();
      candidates.push_back(std::move(cand));
    } catch (const std::domain_error&) {
      // Singular blend: skip this grid point.
    }
  }
  for (const Matrix& cand : candidates) {
    if (!is_positive_definite(cand)) continue;
    if (certifies_decrease(a1, cand) && certifies_decrease(a2, cand))
      return {true, cand};
  }

  // No candidate certifies: refine the second mode's Lyapunov solution by
  // subgradient descent on the constraint violation.
  const double eps = 1e-4;
  Matrix p = dlyap(a2, q);
  p /= p.max_abs();
  const Matrix best =
      n <= kStackN ? subgradient_phase<StackScratch<kStackN>>(a1, a2, p, eps)
                   : subgradient_phase<HeapScratch>(a1, a2, p, eps);
  if (is_positive_definite(best) && certifies_decrease(a1, best) &&
      certifies_decrease(a2, best))
    return {true, best};
  return {};
}

void append_canonical(std::string& out, const CommonLyapunov& c) {
  out += c.found ? "cqlf=1:" : "cqlf=0:";
  append_canonical_bits(out, c.p);
}

std::size_t byte_cost(const CommonLyapunov& c) {
  return sizeof(CommonLyapunov) - sizeof(Matrix) + byte_cost(c.p);
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

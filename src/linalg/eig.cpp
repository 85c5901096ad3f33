#include "linalg/eig.h"

#include <cmath>
#include <stdexcept>

#include "support/check.h"

namespace ttdim::linalg {

namespace {

using Cplx = std::complex<double>;

/// Minimal square complex matrix helper private to this translation unit.
class CMat {
 public:
  explicit CMat(Index n) : n_(n), d_(static_cast<size_t>(n * n)) {}

  [[nodiscard]] Cplx& at(Index r, Index c) {
    return d_[static_cast<size_t>(r * n_ + c)];
  }
  [[nodiscard]] const Cplx& at(Index r, Index c) const {
    return d_[static_cast<size_t>(r * n_ + c)];
  }
  [[nodiscard]] Index n() const { return n_; }

 private:
  Index n_;
  std::vector<Cplx> d_;
};

/// Reduce to upper Hessenberg form by similarity (Gaussian elimination with
/// pivoting — standard and stable enough at these sizes).
void hessenberg(CMat& h) {
  const Index n = h.n();
  for (Index k = 1; k < n - 1; ++k) {
    // Pivot: largest entry in column k-1 below row k-1.
    Index p = k;
    for (Index i = k + 1; i < n; ++i)
      if (std::abs(h.at(i, k - 1)) > std::abs(h.at(p, k - 1))) p = i;
    if (std::abs(h.at(p, k - 1)) == 0.0) continue;
    if (p != k) {
      for (Index c = 0; c < n; ++c) std::swap(h.at(p, c), h.at(k, c));
      for (Index r = 0; r < n; ++r) std::swap(h.at(r, p), h.at(r, k));
    }
    for (Index i = k + 1; i < n; ++i) {
      const Cplx m = h.at(i, k - 1) / h.at(k, k - 1);
      if (m == 0.0) continue;
      for (Index c = k - 1; c < n; ++c) h.at(i, c) -= m * h.at(k, c);
      for (Index r = 0; r < n; ++r) h.at(r, k) += m * h.at(r, i);
    }
  }
}

/// One shifted QR sweep on the active block h[0..m, 0..m] using Givens
/// rotations.
void qr_sweep(CMat& h, Index m, Cplx shift) {
  const Index n = h.n();
  std::vector<Cplx> cs(static_cast<size_t>(m));
  std::vector<Cplx> sn(static_cast<size_t>(m));
  for (Index i = 0; i <= m; ++i) h.at(i, i) -= shift;
  // QR: zero the subdiagonal with Givens rotations.
  for (Index k = 0; k < m; ++k) {
    const Cplx a = h.at(k, k);
    const Cplx b = h.at(k + 1, k);
    const double r = std::hypot(std::abs(a), std::abs(b));
    Cplx c{1.0, 0.0};
    Cplx s{0.0, 0.0};
    if (r > 0.0) {
      c = std::conj(a) / r;
      s = std::conj(b) / r;
    }
    cs[static_cast<size_t>(k)] = c;
    sn[static_cast<size_t>(k)] = s;
    for (Index col = k; col < n; ++col) {
      const Cplx t1 = h.at(k, col);
      const Cplx t2 = h.at(k + 1, col);
      h.at(k, col) = c * t1 + s * t2;
      h.at(k + 1, col) = -std::conj(s) * t1 + std::conj(c) * t2;
    }
  }
  // RQ: apply the conjugate rotations from the right.
  for (Index k = 0; k < m; ++k) {
    const Cplx c = cs[static_cast<size_t>(k)];
    const Cplx s = sn[static_cast<size_t>(k)];
    for (Index row = 0; row <= std::min(k + 2, m); ++row) {
      const Cplx t1 = h.at(row, k);
      const Cplx t2 = h.at(row, k + 1);
      h.at(row, k) = t1 * std::conj(c) + t2 * std::conj(s);
      h.at(row, k + 1) = -t1 * s + t2 * c;
    }
  }
  for (Index i = 0; i <= m; ++i) h.at(i, i) += shift;
}

/// Wilkinson shift for the trailing 2x2 of the active block.
Cplx wilkinson_shift(const CMat& h, Index m) {
  const Cplx a = h.at(m - 1, m - 1);
  const Cplx b = h.at(m - 1, m);
  const Cplx c = h.at(m, m - 1);
  const Cplx d = h.at(m, m);
  const Cplx tr = a + d;
  const Cplx det = a * d - b * c;
  const Cplx disc = std::sqrt(tr * tr - 4.0 * det);
  const Cplx l1 = 0.5 * (tr + disc);
  const Cplx l2 = 0.5 * (tr - disc);
  return std::abs(l1 - d) < std::abs(l2 - d) ? l1 : l2;
}

}  // namespace

std::vector<Cplx> eigenvalues(const Matrix& a) {
  TTDIM_EXPECTS(a.is_square());
  const Index n = a.rows();
  std::vector<Cplx> out;
  out.reserve(static_cast<size_t>(n));
  if (n == 0) return out;
  if (n == 1) return {Cplx{a(0, 0), 0.0}};

  CMat h(n);
  for (Index r = 0; r < n; ++r)
    for (Index c = 0; c < n; ++c) h.at(r, c) = a(r, c);
  hessenberg(h);

  const double scale = std::max(a.max_abs(), 1.0);
  const double eps = 1e-14 * scale;
  Index m = n - 1;  // active block is h[0..m, 0..m]
  int iter = 0;
  const int max_iter_per_eig = 200;
  int since_deflation = 0;
  while (m > 0) {
    // Deflate whenever a subdiagonal entry is negligible.
    bool deflated = false;
    for (Index k = m; k >= 1; --k) {
      if (std::abs(h.at(k, k - 1)) <=
          eps + 1e-13 * (std::abs(h.at(k, k)) + std::abs(h.at(k - 1, k - 1)))) {
        h.at(k, k - 1) = 0.0;
        if (k == m) {
          out.push_back(h.at(m, m));
          --m;
          deflated = true;
          since_deflation = 0;
          break;
        }
      }
    }
    if (deflated) continue;
    if (++iter > max_iter_per_eig * static_cast<int>(n))
      throw std::runtime_error("eigenvalues: QR iteration failed to converge");
    // Exceptional shift every 30 stalled sweeps, standard Wilkinson shift
    // otherwise.
    Cplx shift = wilkinson_shift(h, m);
    if (++since_deflation % 30 == 0)
      shift = Cplx{std::abs(h.at(m, m - 1)) + std::abs(h.at(m, m)), 0.0};
    qr_sweep(h, m, shift);
  }
  out.push_back(h.at(0, 0));
  TTDIM_ENSURES(static_cast<Index>(out.size()) == n);
  // A real matrix has conjugate-pair spectrum; scrub numerically tiny
  // imaginary parts so downstream real-coefficient expansions are clean.
  for (Cplx& v : out)
    if (std::abs(v.imag()) < 1e-9 * std::max(1.0, std::abs(v.real())))
      v = Cplx{v.real(), 0.0};
  return out;
}

double spectral_radius(const Matrix& a) {
  double r = 0.0;
  for (const Cplx& l : eigenvalues(a)) r = std::max(r, std::abs(l));
  return r;
}

bool is_schur_stable(const Matrix& a, double margin) {
  return spectral_radius(a) < 1.0 - margin;
}

std::vector<double> poly_from_roots(const std::vector<Cplx>& roots) {
  std::vector<Cplx> c{Cplx{1.0, 0.0}};
  for (const Cplx& r : roots) {
    std::vector<Cplx> next(c.size() + 1, Cplx{0.0, 0.0});
    for (size_t i = 0; i < c.size(); ++i) {
      next[i] += c[i];
      next[i + 1] -= r * c[i];
    }
    c = std::move(next);
  }
  std::vector<double> out;
  out.reserve(c.size() - 1);
  for (size_t i = 1; i < c.size(); ++i) {
    if (std::abs(c[i].imag()) > 1e-9)
      throw std::domain_error(
          "poly_from_roots: roots are not closed under conjugation");
    out.push_back(c[i].real());
  }
  return out;
}

Matrix polyvalm(const std::vector<double>& monic_coeffs, const Matrix& a) {
  TTDIM_EXPECTS(a.is_square());
  const Index n = a.rows();
  // Horner: p(A) = (...((A + c0 I) A + c1 I) A + ...)
  Matrix p = Matrix::identity(n);
  for (double c : monic_coeffs) {
    p = p * a;
    for (Index i = 0; i < n; ++i) p(i, i) += c;
  }
  return p;
}

}  // namespace ttdim::linalg

// Unit and property tests for the linalg substrate.
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "casestudy/apps.h"
#include "control/lti.h"
#include "gtest/gtest.h"
#include "linalg/eig.h"
#include "linalg/lyap.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "support/splitmix64.h"

namespace ttdim::linalg {
namespace {

Matrix random_matrix(Index rows, Index cols, unsigned seed, double scale = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-scale, scale);
  Matrix m(rows, cols);
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < cols; ++c) m(r, c) = dist(rng);
  return m;
}

/// Random matrix with spectral radius scaled below `rho`.
Matrix random_stable(Index n, unsigned seed, double rho = 0.9) {
  Matrix m = random_matrix(n, n, seed);
  const double sr = spectral_radius(m);
  if (sr > 0.0) m *= rho / sr;
  return m;
}

// ---------------------------------------------------------------- Matrix --

TEST(Matrix, ConstructionAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  m(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 1), 7.0);
}

TEST(Matrix, RaggedInitializerRejected) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::logic_error);
}

TEST(Matrix, OutOfRangeAccessRejected) {
  const Matrix m(2, 2);
  EXPECT_THROW(static_cast<void>(m(2, 0)), std::logic_error);
  EXPECT_THROW(static_cast<void>(m(0, -1)), std::logic_error);
}

TEST(Matrix, IdentityAndZero) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  EXPECT_TRUE(Matrix::zero(2, 3).approx_equal(Matrix(2, 3), 0.0));
}

TEST(Matrix, VectorAccessors) {
  const Matrix v = Matrix::column({1.0, 2.0, 3.0});
  EXPECT_EQ(v.rows(), 3);
  EXPECT_EQ(v.cols(), 1);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  const Matrix r = Matrix::row({4.0, 5.0});
  EXPECT_EQ(r.rows(), 1);
  EXPECT_DOUBLE_EQ(r[1], 5.0);
  EXPECT_THROW(static_cast<void>(Matrix(2, 2)[0]),
               std::logic_error);  // not a vector
}

TEST(Matrix, Arithmetic) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_TRUE((a + b).approx_equal(Matrix{{6.0, 8.0}, {10.0, 12.0}}, 1e-15));
  EXPECT_TRUE((b - a).approx_equal(Matrix{{4.0, 4.0}, {4.0, 4.0}}, 1e-15));
  EXPECT_TRUE((a * 2.0).approx_equal(Matrix{{2.0, 4.0}, {6.0, 8.0}}, 1e-15));
  EXPECT_TRUE((2.0 * a).approx_equal(a * 2.0, 1e-15));
  EXPECT_TRUE((a / 2.0).approx_equal(Matrix{{0.5, 1.0}, {1.5, 2.0}}, 1e-15));
  EXPECT_TRUE((-a).approx_equal(a * -1.0, 1e-15));
}

TEST(Matrix, Product) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_TRUE((a * b).approx_equal(Matrix{{19.0, 22.0}, {43.0, 50.0}}, 1e-12));
  const Matrix v = Matrix::column({1.0, 1.0});
  EXPECT_TRUE((a * v).approx_equal(Matrix::column({3.0, 7.0}), 1e-12));
}

TEST(Matrix, ProductShapeMismatchRejected) {
  EXPECT_THROW(Matrix(2, 3) * Matrix(2, 3), std::logic_error);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = random_matrix(3, 5, 1);
  EXPECT_TRUE(a.transpose().transpose().approx_equal(a, 0.0));
}

TEST(Matrix, BlockAndSetBlock) {
  Matrix a(3, 3);
  a.set_block(1, 1, Matrix{{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 4.0);
  EXPECT_TRUE(a.block(1, 1, 2, 2).approx_equal(Matrix{{1.0, 2.0}, {3.0, 4.0}},
                                               0.0));
  EXPECT_THROW(a.block(2, 2, 2, 2), std::logic_error);
}

TEST(Matrix, StackingRoundTrip) {
  const Matrix a = random_matrix(2, 3, 2);
  const Matrix b = random_matrix(2, 3, 3);
  const Matrix v = a.vstack(b);
  EXPECT_EQ(v.rows(), 4);
  EXPECT_TRUE(v.block(2, 0, 2, 3).approx_equal(b, 0.0));
  const Matrix h = a.hstack(b);
  EXPECT_EQ(h.cols(), 6);
  EXPECT_TRUE(h.block(0, 3, 2, 3).approx_equal(b, 0.0));
}

TEST(Matrix, NormTraceDot) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.trace(), 7.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(
      Matrix::column({1.0, 2.0}).dot(Matrix::column({3.0, 4.0})), 11.0);
}

TEST(Matrix, SymmetryHelpers) {
  Matrix a{{1.0, 2.0}, {4.0, 3.0}};
  EXPECT_FALSE(a.is_symmetric());
  a.symmetrize();
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
}

TEST(Matrix, KronSizesAndValues) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{0.0, 3.0}, {4.0, 5.0}};
  const Matrix k = kron(a, b);
  EXPECT_EQ(k.rows(), 2);
  EXPECT_EQ(k.cols(), 4);
  EXPECT_DOUBLE_EQ(k(1, 3), 2.0 * 5.0);
}

TEST(Matrix, VecUnvecRoundTrip) {
  const Matrix a = random_matrix(3, 4, 4);
  EXPECT_TRUE(unvec(vec(a), 3, 4).approx_equal(a, 0.0));
}

TEST(Matrix, KronVecIdentity) {
  // vec(A X B) == (B' (x) A) vec(X) — the identity dlyap relies on.
  const Matrix a = random_matrix(3, 3, 5);
  const Matrix x = random_matrix(3, 3, 6);
  const Matrix b = random_matrix(3, 3, 7);
  const Matrix lhs = vec(a * x * b);
  const Matrix rhs = kron(b.transpose(), a) * vec(x);
  EXPECT_TRUE(lhs.approx_equal(rhs, 1e-10));
}

// -------------------------------------------------------------------- Lu --

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Matrix b = Matrix::column({3.0, 5.0});
  const Matrix x = solve(a, b);
  EXPECT_TRUE((a * x).approx_equal(b, 1e-12));
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  for (unsigned seed : {10u, 11u, 12u, 13u}) {
    const Matrix a = random_matrix(4, 4, seed) + Matrix::identity(4) * 5.0;
    EXPECT_TRUE((a * inverse(a)).approx_equal(Matrix::identity(4), 1e-9))
        << "seed " << seed;
  }
}

TEST(Lu, SingularDetected) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const Lu f(a);
  EXPECT_TRUE(f.singular());
  EXPECT_THROW(f.solve(Matrix::column({1.0, 1.0})), std::domain_error);
  EXPECT_DOUBLE_EQ(determinant(a), 0.0);
}

TEST(Lu, DeterminantMatchesClosedForm) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(determinant(a), -2.0, 1e-12);
  const Matrix p{{0.0, 1.0}, {1.0, 0.0}};  // permutation, det -1
  EXPECT_NEAR(determinant(p), -1.0, 1e-12);
}

TEST(Lu, MultiColumnRhs) {
  const Matrix a = random_matrix(3, 3, 20) + Matrix::identity(3) * 4.0;
  const Matrix b = random_matrix(3, 2, 21);
  EXPECT_TRUE((a * solve(a, b)).approx_equal(b, 1e-10));
}

// -------------------------------------------------------------------- Qr --

TEST(Qr, Reconstructs) {
  const Matrix a = random_matrix(5, 3, 30);
  const Qr f = qr(a);
  EXPECT_TRUE((f.q * f.r).approx_equal(a, 1e-10));
  EXPECT_TRUE((f.q.transpose() * f.q).approx_equal(Matrix::identity(5), 1e-10));
}

TEST(Qr, UpperTriangular) {
  const Matrix a = random_matrix(4, 4, 31);
  const Qr f = qr(a);
  for (Index r = 1; r < 4; ++r)
    for (Index c = 0; c < r; ++c) EXPECT_DOUBLE_EQ(f.r(r, c), 0.0);
}

TEST(Qr, RankDetectsDeficiency) {
  Matrix a(3, 3);
  a.set_block(0, 0, Matrix{{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}, {1.0, 0.0, 1.0}});
  EXPECT_EQ(rank(a), 2);
  EXPECT_EQ(rank(Matrix::identity(3)), 3);
  EXPECT_EQ(rank(Matrix(3, 3)), 0);
}

TEST(Qr, RankOfWideMatrix) {
  const Matrix a{{1.0, 0.0, 2.0, 0.0}, {0.0, 1.0, 0.0, 3.0}};
  EXPECT_EQ(rank(a), 2);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  const Matrix a = random_matrix(6, 3, 32);
  const Matrix b = random_matrix(6, 1, 33);
  const Matrix x = lstsq(a, b);
  const Matrix xn = solve(a.transpose() * a, a.transpose() * b);
  EXPECT_TRUE(x.approx_equal(xn, 1e-8));
}

// ------------------------------------------------------------------- Eig --

TEST(Eig, DiagonalMatrix) {
  const Matrix a{{2.0, 0.0}, {0.0, -3.0}};
  auto ev = eigenvalues(a);
  std::sort(ev.begin(), ev.end(),
            [](auto l, auto r) { return l.real() < r.real(); });
  EXPECT_NEAR(ev[0].real(), -3.0, 1e-10);
  EXPECT_NEAR(ev[1].real(), 2.0, 1e-10);
}

TEST(Eig, ComplexPair) {
  // Rotation-scaling: eigenvalues 0.5 +- 0.5i.
  const Matrix a{{0.5, -0.5}, {0.5, 0.5}};
  auto ev = eigenvalues(a);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_NEAR(std::abs(ev[0]), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(ev[0].real(), 0.5, 1e-10);
  EXPECT_NEAR(std::abs(ev[0].imag()), 0.5, 1e-10);
}

TEST(Eig, TraceAndDeterminantConsistency) {
  for (unsigned seed : {40u, 41u, 42u, 43u, 44u}) {
    const Matrix a = random_matrix(4, 4, seed);
    const auto ev = eigenvalues(a);
    std::complex<double> sum{0.0, 0.0};
    std::complex<double> prod{1.0, 0.0};
    for (const auto& l : ev) {
      sum += l;
      prod *= l;
    }
    EXPECT_NEAR(sum.real(), a.trace(), 1e-8) << "seed " << seed;
    EXPECT_NEAR(sum.imag(), 0.0, 1e-8) << "seed " << seed;
    EXPECT_NEAR(prod.real(), determinant(a), 1e-8) << "seed " << seed;
  }
}

TEST(Eig, DefectiveJordanBlock) {
  const Matrix a{{1.0, 1.0}, {0.0, 1.0}};
  const auto ev = eigenvalues(a);
  for (const auto& l : ev) EXPECT_NEAR(std::abs(l - 1.0), 0.0, 1e-6);
}

TEST(Eig, SpectralRadiusAndStability) {
  const Matrix stable{{0.5, 0.2}, {0.0, 0.3}};
  EXPECT_NEAR(spectral_radius(stable), 0.5, 1e-10);
  EXPECT_TRUE(is_schur_stable(stable));
  const Matrix unstable{{1.1, 0.0}, {0.0, 0.2}};
  EXPECT_FALSE(is_schur_stable(unstable));
  EXPECT_FALSE(is_schur_stable(stable, 0.6));  // margin too demanding
}

TEST(Eig, PaperPlantC1OpenLoopPoles) {
  // Open-loop DC-motor plant of Eq. (6): one pole at exactly 1 (integrator).
  const Matrix phi{{1.0, 0.0182, 0.0068},
                   {0.0, 0.7664, 0.5186},
                   {0.0, -0.3260, 0.1011}};
  const auto ev = eigenvalues(phi);
  double closest_to_one = 1e9;
  for (const auto& l : ev)
    closest_to_one = std::min(closest_to_one, std::abs(l - 1.0));
  EXPECT_NEAR(closest_to_one, 0.0, 1e-9);
}

TEST(Eig, PolyFromRootsExpandsCorrectly) {
  // (s-1)(s-2) = s^2 - 3 s + 2
  const auto c = poly_from_roots({{1.0, 0.0}, {2.0, 0.0}});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], -3.0, 1e-12);
  EXPECT_NEAR(c[1], 2.0, 1e-12);
}

TEST(Eig, PolyFromConjugateRoots) {
  // (s-(1+i))(s-(1-i)) = s^2 - 2 s + 2
  const auto c = poly_from_roots({{1.0, 1.0}, {1.0, -1.0}});
  EXPECT_NEAR(c[0], -2.0, 1e-12);
  EXPECT_NEAR(c[1], 2.0, 1e-12);
}

TEST(Eig, PolyFromUnbalancedComplexRootsRejected) {
  EXPECT_THROW(poly_from_roots({{1.0, 1.0}}), std::domain_error);
}

TEST(Eig, CayleyHamilton) {
  // p(A) = 0 when p is A's characteristic polynomial.
  const Matrix a = random_matrix(3, 3, 50);
  const auto coeffs = poly_from_roots(eigenvalues(a));
  EXPECT_LT(polyvalm(coeffs, a).max_abs(), 1e-7);
}

// ------------------------------------------------------------------ Lyap --

TEST(Lyap, SolvesResidualToZero) {
  for (unsigned seed : {60u, 61u, 62u}) {
    const Matrix a = random_stable(3, seed);
    const Matrix q = Matrix::identity(3);
    const Matrix p = dlyap(a, q);
    const Matrix residual = a.transpose() * p * a - p + q;
    EXPECT_LT(residual.max_abs(), 1e-9) << "seed " << seed;
    EXPECT_TRUE(is_positive_definite(p)) << "seed " << seed;
  }
}

TEST(Lyap, RejectsSingularOperator) {
  // a with eigenvalue 1 makes A'(x)A' - I singular.
  const Matrix a = Matrix::identity(2);
  EXPECT_THROW(dlyap(a, Matrix::identity(2)), std::domain_error);
}

TEST(Lyap, PositiveDefiniteChecks) {
  EXPECT_TRUE(is_positive_definite(Matrix{{2.0, 0.0}, {0.0, 1.0}}));
  EXPECT_FALSE(is_positive_definite(Matrix{{1.0, 0.0}, {0.0, -1.0}}));
  EXPECT_FALSE(is_positive_definite(Matrix{{0.0, 0.0}, {0.0, 0.0}}));
  EXPECT_FALSE(is_positive_definite(Matrix{{1.0, 5.0}, {-5.0, 1.0}}));
}

TEST(Lyap, CommonLyapunovForCommutingStablePair) {
  // Two stable diagonal matrices always share a CQLF.
  const Matrix a1{{0.5, 0.0}, {0.0, 0.2}};
  const Matrix a2{{0.1, 0.0}, {0.0, 0.8}};
  const CommonLyapunov res = find_common_lyapunov(a1, a2);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(certifies_decrease(a1, res.p));
  EXPECT_TRUE(certifies_decrease(a2, res.p));
}

TEST(Lyap, CommonLyapunovRejectsUnstableMember) {
  const Matrix a1{{0.5, 0.0}, {0.0, 0.2}};
  const Matrix a2{{1.2, 0.0}, {0.0, 0.5}};
  EXPECT_FALSE(find_common_lyapunov(a1, a2).found);
}

// The certificates below are pinned bit for bit: the subgradient phase is
// one template over stack (n <= 6) and heap (n > 6) scratch storage, and
// neither shape may move a certificate.

/// FNV-1a digest, so the long n = 7, 8 certificates fit on one line.
std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Lyap, TableOneCertificatesAreBitExact) {
  const std::vector<casestudy::App> apps = casestudy::all_apps();
  ASSERT_EQ(apps.size(), 6u);
  const std::string none = "cqlf=0:0x0:;";
  const std::string expected[6] = {
      "cqlf=1:4x4:"
      "3ff00000000000003fa87a68c5d33e0b3fa66f833fe2bef63f8e07e3aca4f86c"
      "3fa87a68c5d33e0b3f653f9e64d3a6973f638da3c7026c133f48dee42cb8ab8d"
      "3fa66f833fe2bef63f638da3c7026c133f6493242ae131be3f4b0e4c4a216312"
      "3f8e07e3aca4f86c3f48dee42cb8ab8d3f4b0e4c4a2163123f4385a7b88a67ee;",
      none,
      none,
      none,
      "cqlf=1:3x3:"
      "3ff0000000000000bf91527afe9192ae3f6f28d2668b7fb8"
      "bf91527afe9192ae3f7432621b9652853f400c7331272547"
      "3f6f28d2668b7fb83f400c73312725473f4a95a7fca2214d;",
      none};
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const control::SwitchedModes modes =
        control::switched_modes(apps[i].plant, apps[i].kt, apps[i].ke);
    std::string bytes;
    append_canonical(bytes, find_common_lyapunov(modes.a_tt, modes.a_et));
    EXPECT_EQ(bytes, expected[i]) << apps[i].name;
  }
}

/// `a` block-diagonally padded to `to` x `to` with the decoupled stable
/// block diag(0.5, 0.45, 0.4, ...).
Matrix pad_with_stable_block(const Matrix& a, Index to) {
  Matrix out(to, to);
  out.set_block(0, 0, a);
  for (Index i = a.rows(); i < to; ++i)
    out(i, i) = 0.5 - 0.05 * static_cast<double>(i - a.rows());
  return out;
}

TEST(Lyap, HeapScratchCertificatesAreBitExact) {
  // C1 (4x4) and C5 (3x3) need the subgradient phase; padded to n = 7
  // and 8 they run it on heap scratch storage.
  const struct {
    casestudy::App app;
    Index n;
    std::uint64_t digest;
  } cases[] = {{casestudy::c1(), 7, 0xb0b1dfa0e52af2d6ull},
               {casestudy::c1(), 8, 0xe94c9b9c09701e02ull},
               {casestudy::c5(), 7, 0x3b694123bb4db2b7ull},
               {casestudy::c5(), 8, 0x67097ef4ec5f1a5dull}};
  for (const auto& c : cases) {
    const control::SwitchedModes modes =
        control::switched_modes(c.app.plant, c.app.kt, c.app.ke);
    const Matrix a1 = pad_with_stable_block(modes.a_tt, c.n);
    const Matrix a2 = pad_with_stable_block(modes.a_et, c.n);
    const CommonLyapunov res = find_common_lyapunov(a1, a2);
    ASSERT_TRUE(res.found) << c.app.name << " n=" << c.n;
    EXPECT_TRUE(is_positive_definite(res.p));
    EXPECT_TRUE(certifies_decrease(a1, res.p));
    EXPECT_TRUE(certifies_decrease(a2, res.p));
    std::string bytes;
    append_canonical(bytes, res);
    EXPECT_EQ(digest(bytes), c.digest) << c.app.name << " n=" << c.n;
  }
}

/// Seeded CQLF search input of size n. `family` picks the shape:
///   1: a2 mixes a1 with its transpose, at a1's spectral radius;
///   2: a2 is drawn independently of a1, at radius 0.3-0.6;
///   3: a2 is a1 plus a skew-symmetric perturbation, at a1's radius.
/// a1's spectral radius is drawn from [0.5, 0.99].
std::pair<Matrix, Matrix> seeded_pair(int family, Index n, int k) {
  support::SplitMix64 rng(support::splitmix64(
      0xC0FFEEull + 7919ull * static_cast<std::uint64_t>(n) +
      104729ull * static_cast<std::uint64_t>(k) +
      1000003ull * static_cast<std::uint64_t>(family)));
  const auto random = [&] {
    Matrix m(n, n);
    for (Index r = 0; r < n; ++r)
      for (Index c = 0; c < n; ++c) m(r, c) = rng.symmetric_unit();
    return m;
  };
  const auto with_radius = [](Matrix m, double rho) {
    const double sr = spectral_radius(m);
    if (sr > 0.0) m *= rho / sr;
    return m;
  };
  const double rho = 0.5 + 0.49 * (0.5 + 0.5 * rng.symmetric_unit());
  const Matrix a1 = with_radius(random(), rho);
  if (family == 1) {
    const double mu = 0.5 + 0.5 * rng.symmetric_unit();
    return {a1, with_radius(a1 * (1.0 - mu) + a1.transpose() * mu, rho)};
  }
  const Matrix b = random();
  if (family == 2) {
    const double rho2 = 0.3 + 0.3 * (0.5 + 0.5 * rng.symmetric_unit());
    return {a1, with_radius(b, rho2)};
  }
  return {a1, with_radius(a1 + (b - b.transpose()) * 0.2, rho)};
}

TEST(Lyap, SeededRandomPairsAreBitExact) {
  // The Table-1 pairs only reach n = 2..4, so these seeded pairs pin the
  // n = 5, 6 instantiations of the subgradient phase and its heap path
  // (n = 7, 8). Per n: pairs the candidate phase certifies, pairs the
  // subgradient phase certifies within a few hundred iterations and, for
  // n <= 4, one it certifies only with the final check after the whole
  // 40000-iteration budget. The seeds were picked for that mix and a
  // short run time. The digests pin each certificate's canonical bytes as
  // the one-matrix cyclic Jacobi method computes them, which the
  // three-lane kernel must reproduce exactly.
  const struct {
    int family;
    Index n;
    int seed;
    std::uint64_t digest;
  } cases[] = {
      {1, 2, 0, 0xf8c17ada5d74d2d3ull},
      {1, 2, 1, 0x576df084eec0a49bull},
      {1, 2, 2, 0x0dba00b20777f417ull},
      {1, 2, 18, 0x2e30937d8ff29e43ull},
      {1, 2, 148, 0x344b0df42ea0dde6ull},
      {1, 2, 28, 0x0be6608ff0f99054ull},
      {1, 3, 0, 0x135d339c7625fb4cull},
      {1, 3, 2, 0x3c87ab849dc44886ull},
      {3, 3, 15, 0x83eb83ec2eab79e9ull},
      {1, 3, 199, 0x4d303c85b134f41aull},
      {3, 3, 81, 0x2a57d06a5dd4d88aull},
      {1, 3, 15, 0x3f83b5618181ced5ull},
      {1, 4, 0, 0xf9624236a52d1c50ull},
      {1, 4, 1, 0x28905614f6f88d84ull},
      {2, 4, 78, 0x5e91545655ccee91ull},
      {2, 4, 64, 0xe38d45ae711c04a5ull},
      {3, 4, 33, 0xebcb279a0b24afa1ull},
      {2, 4, 2, 0xfc26fbf8153f92b7ull},
      {1, 5, 0, 0xa8f0427fa582cf8aull},
      {1, 5, 1, 0x74ed87176051a5faull},
      {1, 5, 158, 0xb42e587b21c9011cull},
      {1, 5, 19, 0x6d11c92eef40bdddull},
      {3, 5, 34, 0x883592cd6f5bfff4ull},
      {3, 5, 52, 0xd704d12dd8e2930eull},
      {1, 6, 0, 0x440ed542a54d1ab0ull},
      {1, 6, 1, 0xdcc91c10bb9e183bull},
      {3, 6, 85, 0xe14cbb377f43dc85ull},
      {1, 6, 179, 0x40dfe38c5e53d37aull},
      {2, 6, 97, 0x62cb1e7e311024f3ull},
      {2, 6, 139, 0x93d152b632fdcd1dull},
      {1, 7, 2, 0xdc7c587357038a38ull},
      {1, 7, 3, 0x5b744cd7a2b040bdull},
      {1, 7, 4, 0xc592a050c022a0b7ull},
      {2, 7, 30, 0xa0407002ef52fefeull},
      {2, 7, 183, 0x5c6bc230fb5f4401ull},
      {2, 7, 43, 0xc56c4645cc565708ull},
      {1, 8, 0, 0x23a248ae0cc75f88ull},
      {1, 8, 1, 0x474257944c2debc7ull},
      {3, 8, 185, 0xa33c1a952f52bee8ull},
      {3, 8, 10, 0xc977df0b9db5e189ull},
      {3, 8, 56, 0xbd980116084d8a6full},
      {3, 8, 181, 0x598dfc134b68942dull},
  };
  static_assert(sizeof(cases) / sizeof(cases[0]) == 42, "six pairs per n");
  for (const auto& c : cases) {
    const auto [a1, a2] = seeded_pair(c.family, c.n, c.seed);
    const CommonLyapunov res = find_common_lyapunov(a1, a2);
    EXPECT_TRUE(res.found) << c.family << "/" << c.n << "/" << c.seed;
    std::string bytes;
    append_canonical(bytes, res);
    EXPECT_EQ(digest(bytes), c.digest)
        << c.family << "/" << c.n << "/" << c.seed;
  }
}

class LyapProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LyapProperty, DlyapSolutionIsPsdAndCertifies) {
  const Matrix a = random_stable(4, GetParam(), 0.85);
  const Matrix p = dlyap(a, Matrix::identity(4));
  EXPECT_TRUE(is_positive_definite(p));
  EXPECT_TRUE(certifies_decrease(a, p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LyapProperty,
                         ::testing::Values(100u, 101u, 102u, 103u, 104u, 105u,
                                           106u, 107u));

class EigProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(EigProperty, SimilarityPreservesSpectrum) {
  const unsigned seed = GetParam();
  const Matrix a = random_matrix(4, 4, seed);
  const Matrix t = random_matrix(4, 4, seed + 1000) + Matrix::identity(4) * 3.0;
  const Matrix b = solve(t, a * t);  // T^{-1} A T
  auto ea = eigenvalues(a);
  auto eb = eigenvalues(b);
  // Greedy nearest matching (sorting complex conjugate pairs by (re, im)
  // is unstable when real parts agree only to machine precision).
  ASSERT_EQ(ea.size(), eb.size());
  for (const auto& la : ea) {
    double best = 1e18;
    size_t best_i = 0;
    for (size_t i = 0; i < eb.size(); ++i) {
      if (std::abs(la - eb[i]) < best) {
        best = std::abs(la - eb[i]);
        best_i = i;
      }
    }
    EXPECT_LT(best, 1e-6) << "seed " << seed;
    eb.erase(eb.begin() + static_cast<std::ptrdiff_t>(best_i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigProperty,
                         ::testing::Values(200u, 201u, 202u, 203u, 204u, 205u));

}  // namespace
}  // namespace ttdim::linalg

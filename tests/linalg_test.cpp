// Unit and property tests for the linalg substrate.
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
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
  // A NaN pivot is never positive.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(is_positive_definite(Matrix{{nan, 0.0}, {0.0, 1.0}}));
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

// The certificates below are pinned bit for bit: the barrier method's
// iterates, and so the first P that passes the acceptance test, are a
// deterministic function of the pair.

/// FNV-1a digest, so the long n = 7, 8 certificates fit on one line.
std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The acceptance test every certificate must pass.
void expect_certifies(const Matrix& a1, const Matrix& a2,
                      const CommonLyapunov& res, const std::string& what) {
  EXPECT_TRUE(is_positive_definite(res.p)) << what;
  EXPECT_TRUE(certifies_decrease(a1, res.p)) << what;
  EXPECT_TRUE(certifies_decrease(a2, res.p)) << what;
  EXPECT_FALSE(res.refuted) << what;
}

TEST(Lyap, TableOneCertificatesAreBitExact) {
  // All six pairs have a CQLF; C6's margin is the thinnest (best t about
  // 1e-9 at tr P = 1).
  const std::vector<casestudy::App> apps = casestudy::all_apps();
  ASSERT_EQ(apps.size(), 6u);
  const std::string expected[6] = {
      "cqlf=1:4x4:"
      "3ff00000000000003fa48251fd6ee73e3f9d61113b1bc71a3f84fcd165865c69"
      "3fa48251fd6ee73e3f67f5d9f423b3153f5858d7dc5eb5603f4274bd59eec1b1"
      "3f9d61113b1bc71a3f5858d7dc5eb5603f5d4f76414924073f4345025e077e80"
      "3f84fcd165865c693f4274bd59eec1b13f4345025e077e803f3e558ad9869d35;",
      "cqlf=1:4x4:"
      "3f814537578cb47f3f19600f1469445ebf41d88a9a991ec93f7bcca12b0ba23e"
      "3f19600f1469445e3f0322a4f06368c93f6dbac2f65a63c3bf4330a50ec67b1b"
      "bf41d88a9a991ec93f6dbac2f65a63c33ff0000000000000bfa9d908cbf12ab6"
      "3f7bcca12b0ba23ebf4330a50ec67b1bbfa9d908cbf12ab63fb40117a1d04846;",
      "cqlf=1:3x3:"
      "3f9d31b65414cb583f24141e1546bf7c3fb668e2dd45e138"
      "3f24141e1546bf7c3ed7565dc19b68b93f4a4e63385a09c2"
      "3fb668e2dd45e1383f4a4e63385a09c23ff0000000000000;",
      "cqlf=1:3x3:"
      "3ff00000000000003fa55124d338bac43f4a95de329b53e8"
      "3fa55124d338bac43f8db3a60f82ee9f3f34a19763ab6067"
      "3f4a95de329b53e83f34a19763ab60673eeb3f72ad1d6818;",
      "cqlf=1:3x3:"
      "3ff00000000000003facd34942e4eea13f947222528f3855"
      "3facd34942e4eea13f907ba2cf4f84d43f6c2bc9d9780595"
      "3f947222528f38553f6c2bc9d97805953f67baa52d30603d;",
      "cqlf=1:2x2:"
      "3ff00000000000003ef652ad6f7ee291"
      "3ef652ad6f7ee2913e2a859861c44e8a;"};
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const control::SwitchedModes modes =
        control::switched_modes(apps[i].plant, apps[i].kt, apps[i].ke);
    const CommonLyapunov res = find_common_lyapunov(modes.a_tt, modes.a_et);
    expect_certifies(modes.a_tt, modes.a_et, res, apps[i].name);
    std::string bytes;
    append_canonical(bytes, res);
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

TEST(Lyap, PaddedCertificatesAreBitExact) {
  // C1 (4x4) and C5 (3x3) padded to n = 7 and 8: 28 and 36 unknowns.
  const struct {
    casestudy::App app;
    Index n;
    std::uint64_t digest;
  } cases[] = {{casestudy::c1(), 7, 0x1e5f92fe8b3a0784ull},
               {casestudy::c1(), 8, 0x4fa678c632ae54dcull},
               {casestudy::c5(), 7, 0xbf9127473c70c231ull},
               {casestudy::c5(), 8, 0xd89f4118df1a0138ull}};
  for (const auto& c : cases) {
    const control::SwitchedModes modes =
        control::switched_modes(c.app.plant, c.app.kt, c.app.ke);
    const Matrix a1 = pad_with_stable_block(modes.a_tt, c.n);
    const Matrix a2 = pad_with_stable_block(modes.a_et, c.n);
    const CommonLyapunov res = find_common_lyapunov(a1, a2);
    ASSERT_TRUE(res.found) << c.app.name << " n=" << c.n;
    expect_certifies(a1, a2, res, c.app.name);
    std::string bytes;
    append_canonical(bytes, res);
    EXPECT_EQ(digest(bytes), c.digest) << c.app.name << " n=" << c.n;
  }
}

/// Seeded CQLF input of size n. `family` picks the shape:
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
  // The Table-1 pairs only reach n = 2..4, so these seeded pairs pin
  // certificates up to n = 8. Some are P = I, which passes the acceptance
  // test at the start point P = I/n; the others take 7-23 Newton steps.
  const struct {
    int family;
    Index n;
    int seed;
    std::uint64_t digest;
  } cases[] = {
      {1, 2, 0, 0xdf81f19b3bf03056ull},
      {1, 2, 1, 0x01b74a0b87856b4cull},
      {1, 2, 2, 0xdf81f19b3bf03056ull},
      {1, 2, 18, 0xdf81f19b3bf03056ull},
      {1, 2, 148, 0xdf81f19b3bf03056ull},
      {1, 2, 28, 0xf08af06e9c243304ull},
      {1, 3, 0, 0x8939316c441b0e87ull},
      {1, 3, 2, 0x8939316c441b0e87ull},
      {3, 3, 15, 0x602f3d88b02b889eull},
      {1, 3, 199, 0x87d9b113cc60fdadull},
      {3, 3, 81, 0xd09aa696f9c8800eull},
      {1, 3, 15, 0xc03d8e66f92bf788ull},
      {1, 4, 0, 0x9173a46d83d2b532ull},
      {1, 4, 1, 0x9173a46d83d2b532ull},
      {2, 4, 78, 0xac3f107318048e25ull},
      {2, 4, 64, 0xac2c6c703d301eefull},
      {3, 4, 33, 0xe5100bdee8c0fe8aull},
      {2, 4, 2, 0x9e924dbf61ca7fa0ull},
      {1, 5, 0, 0x028bddd2629f986eull},
      {1, 5, 1, 0xce4ad9bcd60fa813ull},
      {1, 5, 158, 0xf07028a8b72b0b6dull},
      {1, 5, 19, 0xce4ad9bcd60fa813ull},
      {3, 5, 34, 0x0dacb1139f34fbbeull},
      {3, 5, 52, 0xdca5b4fcf3432bffull},
      {1, 6, 0, 0xa3df261f407a84b9ull},
      {1, 6, 1, 0xb879b01854b4442eull},
      {3, 6, 85, 0x736f0d795756d4e3ull},
      {1, 6, 179, 0x165b3deed5ed4b5cull},
      {2, 6, 97, 0x3a4ca24a09dc48c0ull},
      {2, 6, 139, 0x4da0c15ba3b8e64dull},
      {1, 7, 2, 0x90c9f98f6848c7bfull},
      {1, 7, 3, 0x90c9f98f6848c7bfull},
      {1, 7, 4, 0x90c9f98f6848c7bfull},
      {2, 7, 30, 0xe5b5b44361b56d32ull},
      {2, 7, 183, 0x16aa1938ebba879full},
      {2, 7, 43, 0xaf6ccb9f335529f6ull},
      {1, 8, 0, 0x894aa3b90c8b3f53ull},
      {1, 8, 1, 0x2ecda270bd22d767ull},
      {3, 8, 185, 0x91c0abe5d22ed1e4ull},
      {3, 8, 10, 0x448635c73b04d2a5ull},
      {3, 8, 56, 0xb101750276fe503full},
      {3, 8, 181, 0x1221d4b5cb5cdb9dull},
  };
  static_assert(sizeof(cases) / sizeof(cases[0]) == 42, "six pairs per n");
  for (const auto& c : cases) {
    const auto [a1, a2] = seeded_pair(c.family, c.n, c.seed);
    const CommonLyapunov res = find_common_lyapunov(a1, a2);
    EXPECT_TRUE(res.found) << c.family << "/" << c.n << "/" << c.seed;
    expect_certifies(a1, a2, res, "seeded pair");
    std::string bytes;
    append_canonical(bytes, res);
    EXPECT_EQ(digest(bytes), c.digest)
        << c.family << "/" << c.n << "/" << c.seed;
  }
}

TEST(Lyap, SeededCampaignIsDecided) {
  // Every pair is decided: either a P that passes the acceptance test or a
  // dual certificate that refutes every CQLF, never both.
  int found = 0;
  int refuted = 0;
  for (int family = 1; family <= 3; ++family)
    for (Index n = 2; n <= 5; ++n)
      for (int seed = 0; seed < 60; ++seed) {
        const auto [a1, a2] = seeded_pair(family, n, seed);
        const CommonLyapunov res = find_common_lyapunov(a1, a2);
        const std::string what = std::to_string(family) + "/" +
                                 std::to_string(n) + "/" +
                                 std::to_string(seed);
        EXPECT_NE(res.found, res.refuted) << what;
        if (res.found) {
          ++found;
          expect_certifies(a1, a2, res, what);
        }
        if (res.refuted) {
          ++refuted;
          EXPECT_TRUE(res.p.empty()) << what;
          EXPECT_TRUE(refutes_common_lyapunov(a1, a2, res.z1, res.z2))
              << what;
        }
      }
  EXPECT_EQ(found, 618);
  EXPECT_EQ(refuted, 102);
}

TEST(Lyap, RefutationChecksTheDualInequality) {
  // Two stable diagonal modes share P = I, so no dual point refutes them.
  const Matrix d1{{0.5, 0.0}, {0.0, 0.2}};
  const Matrix d2{{0.1, 0.0}, {0.0, 0.8}};
  const Matrix half = Matrix::identity(2) * 0.5;
  EXPECT_FALSE(refutes_common_lyapunov(d1, d2, half, half));
  // Two nilpotent modes whose product has spectral radius 4: no CQLF.
  // With z1 = diag(0.1, 1) and z2 = diag(1, 0.1), W = 2.9 I / 2.2, whose
  // eigenvalues equal max |entry|: every relative margin below 1 passes.
  const Matrix n1{{0.0, 2.0}, {0.0, 0.0}};
  const Matrix n2{{0.0, 0.0}, {2.0, 0.0}};
  const Matrix z1{{0.1, 0.0}, {0.0, 1.0}};
  const Matrix z2{{1.0, 0.0}, {0.0, 0.1}};
  EXPECT_TRUE(refutes_common_lyapunov(n1, n2, z1, z2));
  EXPECT_TRUE(refutes_common_lyapunov(n1, n2, z1, z2, 0.99));
  EXPECT_FALSE(refutes_common_lyapunov(n1, n2, z1, z2, 1.01));
  // Each zi must be positive definite, not just semidefinite.
  EXPECT_FALSE(refutes_common_lyapunov(n1, n2, Matrix{{0.0, 0.0}, {0.0, 1.0}},
                                       z2));
  const CommonLyapunov res = find_common_lyapunov(n1, n2);
  EXPECT_FALSE(res.found);
  ASSERT_TRUE(res.refuted);
  EXPECT_TRUE(refutes_common_lyapunov(n1, n2, res.z1, res.z2));
  EXPECT_NEAR(res.z1.trace() + res.z2.trace(), 1.0, 1e-12);
}

TEST(Lyap, RefutationStaysOutOfTheBytes) {
  const control::SwitchedModes modes = control::switched_modes(
      casestudy::dc_motor_position_plant(), casestudy::c1().kt,
      casestudy::ke_unstable());
  const CommonLyapunov res = find_common_lyapunov(modes.a_tt, modes.a_et);
  ASSERT_TRUE(res.refuted);
  std::string bytes;
  append_canonical(bytes, res);
  EXPECT_EQ(bytes, "cqlf=0:0x0:;");
  std::string blob;
  support::codec::Encoder enc(blob);
  encode(enc, res);
  support::codec::Decoder dec(blob);
  CommonLyapunov back;
  ASSERT_TRUE(decode(dec, back));
  EXPECT_FALSE(back.found);
  EXPECT_FALSE(back.refuted);
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

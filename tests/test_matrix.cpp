#include "core/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "test_seed.hpp"

namespace naas::core {
namespace {

// ---- Reference oracles: the straightforward kernels the optimized ones
// must reproduce bit for bit.

/// Row-by-row Cholesky into a fresh row-major matrix per jitter attempt,
/// each entry's k-sum one serial chain.
Matrix reference_cholesky(const Matrix& a) {
  const int n = a.rows();
  double jitter = 0.0;
  double diag_max = 1e-12;
  for (int i = 0; i < n; ++i) diag_max = std::max(diag_max, std::abs(a(i, i)));
  for (int attempt = 0; attempt < 16; ++attempt) {
    Matrix l(n, n, 0.0);
    bool ok = true;
    for (int r = 0; r < n && ok; ++r) {
      for (int c = 0; c <= r; ++c) {
        double sum = a(r, c) + (r == c ? jitter : 0.0);
        for (int k = 0; k < c; ++k) sum -= l(r, k) * l(c, k);
        if (r == c) {
          if (sum <= 0.0) {
            ok = false;
            break;
          }
          l(r, r) = std::sqrt(sum);
        } else {
          l(r, c) = sum / l(c, c);
        }
      }
    }
    if (ok) return l;
    jitter = (jitter == 0.0) ? diag_max * 1e-10 : jitter * 10.0;
  }
  throw std::runtime_error("reference_cholesky: too far from PD");
}

/// Full row-major matrix-vector product, upper zeros included.
std::vector<double> reference_matvec(const Matrix& m,
                                     const std::vector<double>& v) {
  std::vector<double> out(static_cast<std::size_t>(m.rows()), 0.0);
  for (int r = 0; r < m.rows(); ++r) {
    double acc = 0.0;
    for (int c = 0; c < m.cols(); ++c)
      acc += m(r, c) * v[static_cast<std::size_t>(c)];
    out[static_cast<std::size_t>(r)] = acc;
  }
  return out;
}

/// Row-wise forward substitution L x = b.
std::vector<double> reference_solve(const Matrix& l,
                                    const std::vector<double>& b) {
  std::vector<double> x(b.size(), 0.0);
  for (int r = 0; r < l.rows(); ++r) {
    double acc = b[static_cast<std::size_t>(r)];
    for (int c = 0; c < r; ++c) acc -= l(r, c) * x[static_cast<std::size_t>(c)];
    x[static_cast<std::size_t>(r)] = acc / l(r, r);
  }
  return x;
}

// ---- Helpers.

/// Entry L(r, c) of a packed factor written by Matrix::cholesky (exact
/// zero above the diagonal).
double at(const std::vector<double>& l, int n, int r, int c) {
  if (r < c) return 0.0;
  return l[lower_column(static_cast<std::size_t>(n),
                        static_cast<std::size_t>(c)) +
           static_cast<std::size_t>(r - c)];
}

/// Packed factor as a row-major Matrix.
Matrix to_matrix(const std::vector<double>& l, int n) {
  Matrix m(n, n);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c) m(r, c) = at(l, n, r, c);
  return m;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

::testing::AssertionResult bit_identical(const Matrix& want, const Matrix& got) {
  for (int r = 0; r < want.rows(); ++r)
    for (int c = 0; c < want.cols(); ++c)
      if (!same_bits(want(r, c), got(r, c)))
        return ::testing::AssertionFailure()
               << "entry (" << r << ", " << c << "): want " << want(r, c)
               << ", got " << got(r, c);
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult bit_identical(const std::vector<double>& want,
                                         const std::vector<double>& got) {
  if (want.size() != got.size())
    return ::testing::AssertionFailure() << "size mismatch";
  if (!want.empty() &&
      std::memcmp(want.data(), got.data(), want.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "bytes differ";
  return ::testing::AssertionSuccess();
}

/// Random symmetric positive-definite matrix: sum of `rank` scaled outer
/// products of random vectors, plus `ridge` on the diagonal, then
/// symmetrized — the shape of a CMA-ES covariance update. With
/// rank < n and ridge 0 it is singular and takes the jitter path.
Matrix random_covariance(int n, int rank, double ridge, Rng& rng) {
  Matrix m(n, n, 0.0);
  std::vector<double> u(static_cast<std::size_t>(n));
  for (int i = 0; i < rank; ++i) {
    for (double& x : u) x = rng.normal();
    m.add_outer(u, rng.uniform(0.01, 1.0));
  }
  for (int i = 0; i < n; ++i) m(i, i) += ridge;
  m.symmetrize();
  return m;
}

/// Checks the factor, the product L z and the solve L x = z against the
/// oracles, bit for bit.
void expect_kernels_match_reference(const Matrix& a, Rng& rng) {
  const int n = a.rows();
  std::vector<double> l;
  a.cholesky(l);
  const Matrix want = reference_cholesky(a);
  ASSERT_TRUE(bit_identical(want, to_matrix(l, n))) << "n=" << n;

  std::vector<double> z(static_cast<std::size_t>(n));
  for (double& x : z) x = rng.normal();
  std::vector<double> y(z.size());
  lower_matvec(l, z, y);
  EXPECT_TRUE(bit_identical(reference_matvec(want, z), y)) << "n=" << n;

  std::vector<double> x = z;
  lower_solve(l, x);
  EXPECT_TRUE(bit_identical(reference_solve(want, z), x)) << "n=" << n;
}

// ---- Tests.

TEST(Matrix, IdentityShapeAndValues) {
  const Matrix id = Matrix::identity(3);
  EXPECT_EQ(id.rows(), 3);
  EXPECT_EQ(id.cols(), 3);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, FillConstructor) {
  const Matrix m(2, 4, 3.5);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m(r, c), 3.5);
}

TEST(Matrix, AddOuterRankOneUpdate) {
  Matrix m = Matrix::identity(2);
  m.add_outer(std::vector<double>{1.0, 2.0}, 0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 3.0);
}

TEST(Matrix, ScaleMultipliesEveryEntry) {
  Matrix m(2, 2, 2.0);
  m.scale(0.25);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(m(r, c), 0.5);
}

TEST(Matrix, CholeskyOfIdentityIsIdentity) {
  std::vector<double> l;
  Matrix::identity(4).cholesky(l);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_NEAR(at(l, 4, r, c), r == c ? 1.0 : 0.0, 1e-12);
}

TEST(Matrix, CholeskyReconstructsSpdMatrix) {
  Matrix m(3, 3, 0.0);
  // SPD matrix built as A^T A + I.
  m(0, 0) = 4; m(0, 1) = 2; m(0, 2) = 0.5;
  m(1, 0) = 2; m(1, 1) = 5; m(1, 2) = 1;
  m(2, 0) = 0.5; m(2, 1) = 1; m(2, 2) = 3;
  std::vector<double> l;
  m.cholesky(l);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) {
      double back = 0.0;  // (L L^T)(r, c)
      for (int k = 0; k < 3; ++k) back += at(l, 3, r, k) * at(l, 3, c, k);
      EXPECT_NEAR(back, m(r, c), 1e-9);
    }
}

TEST(Matrix, CholeskyLowerTriangular) {
  Matrix m = Matrix::identity(3);
  m(0, 1) = m(1, 0) = 0.5;
  std::vector<double> l;
  m.cholesky(l);
  EXPECT_NEAR(at(l, 3, 0, 1), 0.0, 1e-12);
  EXPECT_NEAR(at(l, 3, 0, 2), 0.0, 1e-12);
  EXPECT_NEAR(at(l, 3, 1, 2), 0.0, 1e-12);
}

TEST(Matrix, CholeskyJittersNearSingular) {
  // Rank-deficient covariance: jitter must make it factorizable.
  Matrix m(2, 2, 0.0);
  m.add_outer(std::vector<double>{1.0, 1.0}, 1.0);  // rank one
  std::vector<double> l;
  m.cholesky(l);
  EXPECT_GT(at(l, 2, 0, 0), 0.0);
  EXPECT_GT(at(l, 2, 1, 1), 0.0);
}

TEST(Matrix, PackedColumnOffsets) {
  // Column c starts after the n, n-1, ..., n-c+1 entries of columns < c.
  EXPECT_EQ(lower_column(4, 0), 0u);
  EXPECT_EQ(lower_column(4, 1), 4u);
  EXPECT_EQ(lower_column(4, 2), 7u);
  EXPECT_EQ(lower_column(4, 3), 9u);
  EXPECT_EQ(lower_column(4, 4), 10u);  // one past the end: n (n + 1) / 2
}

TEST(Matrix, CholeskyReusesBuffer) {
  // A buffer holding stale values (and the wrong size) is resized and
  // fully overwritten.
  std::vector<double> l(25, 7.0);
  Matrix m = Matrix::identity(3);
  m(2, 0) = m(0, 2) = 0.25;
  m.cholesky(l);
  ASSERT_EQ(l.size(), 6u);
  EXPECT_TRUE(bit_identical(reference_cholesky(m), to_matrix(l, 3)));
}

TEST(Matrix, KernelsMatchReferenceOnRandomSpd) {
  Rng rng(test::sweep_seed(20211));
  for (int n = 1; n <= 40; ++n) {
    const Matrix a = random_covariance(n, n + 2, 1e-3, rng);
    expect_kernels_match_reference(a, rng);
  }
}

TEST(Matrix, KernelsMatchReferenceOnJitterPath) {
  // Rank-deficient and all-zero inputs fail the first attempt(s) and
  // refactor with growing diagonal jitter.
  Rng rng(test::sweep_seed(20212));
  for (int n = 2; n <= 40; ++n) {
    expect_kernels_match_reference(random_covariance(n, 1, 0.0, rng), rng);
    expect_kernels_match_reference(random_covariance(n, n / 2, 0.0, rng), rng);
  }
  for (int n = 1; n <= 8; ++n)
    expect_kernels_match_reference(Matrix(n, n, 0.0), rng);
}

TEST(Matrix, KernelsMatchReferenceOnSignedZeros) {
  // -0.0 entries in the lower triangle start from a(r, c) + 0.0 == +0.0,
  // exactly as in the reference.
  Rng rng(test::sweep_seed(20213));
  for (int n = 1; n <= 12; ++n) {
    Matrix a = Matrix::identity(n);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < r; ++c) a(r, c) = a(c, r) = -0.0;
    expect_kernels_match_reference(a, rng);

    Matrix b = random_covariance(n, n, 0.5, rng);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < r; c += 2) b(r, c) = b(c, r) = -0.0;
    expect_kernels_match_reference(b, rng);
  }
}

TEST(Matrix, LowerMatvecMatchesFullProductWithSignedZeros) {
  // An arbitrary lower factor holding -0.0 and zero entries times a vector
  // of mixed-sign zeros: skipping the upper products must change no bit.
  Rng rng(test::sweep_seed(20214));
  for (int n = 1; n <= 24; ++n) {
    std::vector<double> l;
    Matrix full(n, n, 0.0);
    for (int c = 0; c < n; ++c)
      for (int r = c; r < n; ++r) {
        const int pick = rng.uniform_int(0, 3);
        const double v = pick == 0 ? -0.0 : pick == 1 ? 0.0 : rng.normal();
        l.push_back(v);  // packed column-major order
        full(r, c) = v;
      }
    std::vector<double> z(static_cast<std::size_t>(n));
    for (double& x : z) {
      const int pick = rng.uniform_int(0, 2);
      x = pick == 0 ? -0.0 : pick == 1 ? 0.0 : rng.normal();
    }
    std::vector<double> y(z.size());
    lower_matvec(l, z, y);
    EXPECT_TRUE(bit_identical(reference_matvec(full, z), y)) << "n=" << n;
  }
}

TEST(Matrix, SymmetrizeAveragesOffDiagonal) {
  Matrix m(2, 2, 0.0);
  m(0, 1) = 1.0;
  m(1, 0) = 3.0;
  m.symmetrize();
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 2.0);
}

}  // namespace
}  // namespace naas::core

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace naas::core {

/// Small dense row-major matrix of doubles: the CMA-ES covariance matrix.
///
/// Sized for optimizer internals (a few dozen dimensions), not for large
/// numerical workloads. The kernels keep one fixed floating-point operation
/// sequence per entry, so results are bit-reproducible, but arrange the
/// loops so independent entries update side by side instead of forming one
/// long dependency chain. Indices are checked in debug builds via assert.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, double fill = 0.0);

  /// Identity matrix of size n x n.
  static Matrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c);
  double operator()(int r, int c) const;

  /// Adds `scale * u * u^T` to this matrix (rank-one symmetric update):
  /// entry (r, c) += (scale * u[r]) * u[c]. Requires a square matrix with
  /// rows() == u.size().
  void add_outer(std::span<const double> u, double scale);

  /// Scales every entry by `s`.
  void scale(double s);

  /// Cholesky factorization of a symmetric positive-definite matrix into
  /// `l`: the lower-triangular L with L * L^T == *this, its lower triangle
  /// stored packed column-major (L(r, c), r >= c, at
  /// l[lower_column(n, c) + r - c]). Reads only the lower triangle of
  /// *this. If the matrix is not positive definite, a small diagonal
  /// jitter is added (repeatedly, up to a cap) until the factorization
  /// succeeds; this keeps optimizers running in the face of numerically
  /// degenerate covariance estimates. `l` is resized to n (n + 1) / 2 and
  /// reused across calls without reallocating.
  ///
  /// Left-looking, one column at a time: entry (r, c) starts from
  /// a(r, c) + 0 (the jitter on the diagonal), subtracts L(r, k) * L(c, k)
  /// for k = 0..c-1 in ascending order, then takes the square root
  /// (diagonal) or divides by L(c, c). That is the textbook row-by-row
  /// sequence, so the factor is bit-identical to it, but the rows of one
  /// column update independently.
  void cholesky(std::vector<double>& l) const;

  /// Enforces exact symmetry by averaging with the transpose.
  void symmetrize();

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// Offset of column c of an order-n lower triangle stored packed
/// column-major: columns 0..c-1 hold n + (n-1) + ... + (n-c+1) entries.
inline std::size_t lower_column(std::size_t n, std::size_t c) {
  return c * (2 * n - c + 1) / 2;
}

/// y = L z for a lower-triangular L stored as cholesky() writes it,
/// computed as axpys down its columns. Each y[r] sums L(r, c) * z[c] over
/// ascending c <= r from +0.0, exactly as a full row-major dot product
/// would: the skipped upper products are exact zeros and the running sum
/// is never -0.0, so skipping them changes no bit.
void lower_matvec(std::span<const double> l, std::span<const double> z,
                  std::span<double> y);

/// Solves L x = b by forward substitution, in place (`x` holds b on entry),
/// for L stored as cholesky() writes it. Each x[r] is
/// (b[r] - L(r, 0) x[0] - ... - L(r, r-1) x[r-1]) / L(r, r), subtracted in
/// ascending order.
void lower_solve(std::span<const double> l, std::span<double> x);

}  // namespace naas::core

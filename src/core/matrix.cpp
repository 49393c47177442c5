#include "core/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace naas::core {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            fill) {
  assert(rows >= 0 && cols >= 0);
}

Matrix Matrix::identity(int n) {
  Matrix m(n, n, 0.0);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(int r, int c) {
  assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

double Matrix::operator()(int r, int c) const {
  assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

void Matrix::add_outer(std::span<const double> u, double scale) {
  assert(rows_ == cols_ && u.size() == static_cast<std::size_t>(rows_));
  const std::size_t n = u.size();
  for (std::size_t r = 0; r < n; ++r) {
    const double su = scale * u[r];
    double* row = data_.data() + r * n;
    for (std::size_t c = 0; c < n; ++c) row[c] += su * u[c];
  }
}

void Matrix::scale(double s) {
  for (auto& x : data_) x *= s;
}

void Matrix::cholesky(std::vector<double>& l) const {
  assert(rows_ == cols_);
  const auto n = static_cast<std::size_t>(rows_);
  l.resize(n * (n + 1) / 2);
  double jitter = 0.0;
  // Scale-aware jitter base: proportional to the largest diagonal entry.
  double diag_max = 1e-12;
  for (std::size_t i = 0; i < n; ++i)
    diag_max = std::max(diag_max, std::abs(data_[i * n + i]));

  // column(k)[r] is L(r, k) for r >= k.
  const auto column = [&](std::size_t k) {
    return l.data() + lower_column(n, k) - k;
  };
  for (int attempt = 0; attempt < 16; ++attempt) {
    bool ok = true;
    for (std::size_t c = 0; c < n; ++c) {
      // Off-diagonal entries start from a(r, c) + 0.0, which turns -0.0
      // into +0.0 exactly as the row-by-row form's "+ jitter or 0" did.
      double* col = column(c);
      col[c] = data_[c * n + c] + jitter;
      for (std::size_t r = c + 1; r < n; ++r) col[r] = data_[r * n + c] + 0.0;
      // Four earlier columns per pass: each entry still subtracts in
      // ascending k, but stays in a register across the four.
      std::size_t k = 0;
      for (; k + 4 <= c; k += 4) {
        const double *l0 = column(k), *l1 = column(k + 1),
                     *l2 = column(k + 2), *l3 = column(k + 3);
        const double a0 = l0[c], a1 = l1[c], a2 = l2[c], a3 = l3[c];
        for (std::size_t r = c; r < n; ++r)
          col[r] = (((col[r] - l0[r] * a0) - l1[r] * a1) - l2[r] * a2) -
                   l3[r] * a3;
      }
      for (; k < c; ++k) {
        const double* lk = column(k);
        const double a = lk[c];
        for (std::size_t r = c; r < n; ++r) col[r] -= lk[r] * a;
      }
      // The first diagonal that is not positive fails the attempt, as in
      // the row-by-row order (diagonal c depends only on columns < c).
      if (col[c] <= 0.0) {
        ok = false;
        break;
      }
      const double d = std::sqrt(col[c]);
      col[c] = d;
      for (std::size_t r = c + 1; r < n; ++r) col[r] /= d;
    }
    if (ok) return;
    jitter = (jitter == 0.0) ? diag_max * 1e-10 : jitter * 10.0;
  }
  throw std::runtime_error("Matrix::cholesky: matrix is too far from PD");
}

void Matrix::symmetrize() {
  assert(rows_ == cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

void lower_matvec(std::span<const double> l, std::span<const double> z,
                  std::span<double> y) {
  const std::size_t n = z.size();
  assert(l.size() == n * (n + 1) / 2 && y.size() == n);
  const auto column = [&](std::size_t c) {
    return l.data() + lower_column(n, c) - c;
  };
  std::fill(y.begin(), y.end(), 0.0);
  // Four columns per pass, each entry adding them in ascending c. Column
  // c + j starts at row c + j, so the first three rows take a prefix.
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const double *l0 = column(c), *l1 = column(c + 1), *l2 = column(c + 2),
                 *l3 = column(c + 3);
    const double z0 = z[c], z1 = z[c + 1], z2 = z[c + 2], z3 = z[c + 3];
    y[c] += l0[c] * z0;
    y[c + 1] = (y[c + 1] + l0[c + 1] * z0) + l1[c + 1] * z1;
    y[c + 2] = ((y[c + 2] + l0[c + 2] * z0) + l1[c + 2] * z1) + l2[c + 2] * z2;
    for (std::size_t r = c + 3; r < n; ++r)
      y[r] = (((y[r] + l0[r] * z0) + l1[r] * z1) + l2[r] * z2) + l3[r] * z3;
  }
  for (; c < n; ++c) {
    const double* col = column(c);
    const double zc = z[c];
    for (std::size_t r = c; r < n; ++r) y[r] += col[r] * zc;
  }
}

void lower_solve(std::span<const double> l, std::span<double> x) {
  const std::size_t n = x.size();
  assert(l.size() == n * (n + 1) / 2);
  for (std::size_t c = 0; c < n; ++c) {
    const double* col = l.data() + lower_column(n, c) - c;
    const double xc = x[c] / col[c];
    x[c] = xc;
    for (std::size_t r = c + 1; r < n; ++r) x[r] -= col[r] * xc;
  }
}

}  // namespace naas::core

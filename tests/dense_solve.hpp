// Dense Gaussian elimination: the independent reference that
// test_linalg checks util::solve_toeplitz's Levinson recursion against.
// No library code solves dense systems, so it lives with the tests.

#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "cts/util/error.hpp"

namespace cts::test {

/// Minimal dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Matrix-vector product; `v.size()` must equal `cols()`.
  std::vector<double> multiply(const std::vector<double>& v) const {
    util::require(v.size() == cols_, "Matrix::multiply: dimension mismatch");
    std::vector<double> out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
      out[r] = acc;
    }
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.  Throws
/// NumericalError when A is singular to working precision, InvalidArgument
/// on shape mismatch.  A is taken by value (the elimination is in-place).
inline std::vector<double> solve_dense(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  util::require(a.cols() == n, "solve_dense: matrix must be square");
  util::require(b.size() == n, "solve_dense: rhs size mismatch");

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: find the largest magnitude entry in this column.
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      throw util::NumericalError("solve_dense: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) * inv;
      if (factor == 0.0) continue;
      a(r, col) = 0.0;
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }

  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

}  // namespace cts::test

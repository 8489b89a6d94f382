#include "cts/util/linalg.hpp"

#include <cmath>

#include "cts/util/error.hpp"

namespace cts::util {

std::vector<double> solve_toeplitz(const std::vector<double>& t,
                                   const std::vector<double>& b) {
  const std::size_t n = b.size();
  require(!t.empty() && t.size() >= n,
          "solve_toeplitz: need t[0..n-1] for an n-dimensional system");
  require(n >= 1, "solve_toeplitz: empty system");
  if (std::abs(t[0]) < 1e-300) {
    throw NumericalError("solve_toeplitz: t[0] is zero");
  }

  // Levinson recursion for symmetric Toeplitz T(i,j) = t[|i-j|].
  std::vector<double> x(n, 0.0);   // solution of the growing system
  std::vector<double> f(n, 0.0);   // forward vector
  x[0] = b[0] / t[0];
  f[0] = 1.0 / t[0];

  for (std::size_t k = 1; k < n; ++k) {
    // Error of the forward vector extended by zero.
    double ef = 0.0;
    for (std::size_t i = 0; i < k; ++i) ef += t[k - i] * f[i];
    const double denom = 1.0 - ef * ef;
    if (std::abs(denom) < 1e-300) {
      throw NumericalError("solve_toeplitz: singular leading minor");
    }
    // New forward vector (symmetric case: backward = reversed forward).
    std::vector<double> fnew(k + 1, 0.0);
    for (std::size_t i = 0; i <= k; ++i) {
      const double fi = i < k ? f[i] : 0.0;
      const double fbi = i >= 1 ? f[k - i] : 0.0;  // reversed, shifted
      fnew[i] = (fi - ef * fbi) / denom;
    }
    // Error of the current solution extended by zero.
    double ex = 0.0;
    for (std::size_t i = 0; i < k; ++i) ex += t[k - i] * x[i];
    const double scale = b[k] - ex;
    for (std::size_t i = 0; i <= k; ++i) {
      const double backward = fnew[k - i];  // reversal of fnew
      x[i] += scale * backward;
    }
    for (std::size_t i = 0; i <= k; ++i) f[i] = fnew[i];
  }
  return x;
}

}  // namespace cts::util

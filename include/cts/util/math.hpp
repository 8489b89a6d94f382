// Small numerical helpers shared across the library.
//
// Everything here is pure and deterministic: second central differences
// (used by exact-LRD autocorrelation formulas), bisection root bracketing,
// least-squares line fits, and the standard normal distribution functions
// used by quantisers and the Kolmogorov-Smirnov test.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace cts::util {

/// Machine-independent value of pi (std::numbers is used internally; this
/// constant exists so headers that predate C++20 adoption elsewhere can
/// still interoperate).
inline constexpr double kPi = 3.141592653589793238462643383279502884;

/// Second central difference of h(k) = k^e evaluated at integer lag k >= 1:
///   grad2(k, e) = (k+1)^e - 2 k^e + (k-1)^e.
/// This is the discrete operator the paper writes as (1/2) * nabla^2(k^{2H});
/// callers multiply by 1/2 themselves.  Exact-LRD autocorrelations are
/// expressed through it (paper eq. 2).
double second_central_difference_pow(std::size_t k, double exponent);

/// Standard normal probability density.
double normal_pdf(double x);

/// Standard normal cumulative distribution function (via std::erfc).
double normal_cdf(double x);

/// Finds a root of `f` in [lo, hi] by bisection.  Requires f(lo) and f(hi)
/// to have opposite signs (throws InvalidArgument otherwise).  Stops when
/// the bracket is narrower than `tol` or after `max_iter` halvings.
double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol = 1e-12, int max_iter = 200);

/// Least-squares fit of y = intercept + slope * x.  Returns {slope,
/// intercept}.  Throws InvalidArgument when fewer than two points are given
/// or all x are identical.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination (1 = perfect fit).
  double r_squared = 0.0;
};
LinearFit linear_least_squares(const std::vector<double>& x,
                               const std::vector<double>& y);

}  // namespace cts::util

#include "cts/util/math.hpp"

#include <cmath>

#include "cts/util/error.hpp"

namespace cts::util {

double second_central_difference_pow(std::size_t k, double exponent) {
  require(k >= 1, "second_central_difference_pow: k must be >= 1");
  const double kd = static_cast<double>(k);
  // For large k the three powers agree to many digits and the naive
  // difference loses precision; switch to the series expansion
  // e*(e-1)*k^(e-2) * (1 + (e-2)(e-3)/(12 k^2) + ...) once the naive form
  // would cancel below ~1e-10 relative accuracy.
  if (kd > 1e4) {
    const double e = exponent;
    const double lead = e * (e - 1.0) * std::pow(kd, e - 2.0);
    const double corr = 1.0 + (e - 2.0) * (e - 3.0) / (12.0 * kd * kd);
    return lead * corr;
  }
  return std::pow(kd + 1.0, exponent) - 2.0 * std::pow(kd, exponent) +
         std::pow(kd - 1.0, exponent);
}

double normal_pdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * kPi);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double bisect(const std::function<double(double)>& f, double lo, double hi,
              double tol, int max_iter) {
  require(lo < hi, "bisect: lo must be < hi");
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  require(std::signbit(flo) != std::signbit(fhi),
          "bisect: f(lo) and f(hi) must bracket a root");
  for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

LinearFit linear_least_squares(const std::vector<double>& x,
                               const std::vector<double>& y) {
  require(x.size() == y.size(), "linear_least_squares: size mismatch");
  require(x.size() >= 2, "linear_least_squares: need at least two points");
  const double n = static_cast<double>(x.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  require(sxx > 0.0, "linear_least_squares: all x identical");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace cts::util

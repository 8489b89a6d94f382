#include "cts/stats/hurst.hpp"

#include <algorithm>
#include <cmath>

#include "cts/stats/acf.hpp"
#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cts::stats {

namespace {

/// Geometrically spaced integer levels in [lo, hi], deduplicated.
std::vector<std::size_t> geometric_levels(std::size_t lo, std::size_t hi,
                                          double factor = 1.5) {
  std::vector<std::size_t> levels;
  double x = static_cast<double>(lo);
  while (x <= static_cast<double>(hi)) {
    const auto level = static_cast<std::size_t>(std::llround(x));
    if (levels.empty() || level > levels.back()) levels.push_back(level);
    x *= factor;
  }
  return levels;
}

}  // namespace

HurstEstimate hurst_variance_time(const std::vector<double>& series,
                                  std::size_t min_m, std::size_t min_blocks) {
  util::require(series.size() >= min_m * min_blocks,
                "hurst_variance_time: series too short");
  const std::size_t max_m = series.size() / min_blocks;
  std::vector<double> log_m;
  std::vector<double> log_var;
  for (const std::size_t m : geometric_levels(min_m, max_m)) {
    const std::vector<double> agg = aggregate_series(series, m);
    if (agg.size() < 2) break;
    const double v = sample_variance(agg);
    if (v <= 0.0) continue;
    log_m.push_back(std::log(static_cast<double>(m)));
    log_var.push_back(std::log(v));
  }
  const util::LinearFit fit = util::linear_least_squares(log_m, log_var);
  HurstEstimate est;
  est.slope = fit.slope;
  est.r_squared = fit.r_squared;
  est.points = log_m.size();
  // Var(X^{(m)}) ~ m^{2H-2}  =>  H = 1 + slope/2, clamped to (0, 1).
  est.hurst = std::clamp(1.0 + fit.slope / 2.0, 0.01, 0.99);
  return est;
}

HurstEstimate hurst_rescaled_range(const std::vector<double>& series,
                                   std::size_t min_n) {
  util::require(series.size() >= 2 * min_n,
                "hurst_rescaled_range: series too short");
  std::vector<double> log_n;
  std::vector<double> log_rs;
  for (const std::size_t n : geometric_levels(min_n, series.size() / 2)) {
    const std::size_t blocks = series.size() / n;
    if (blocks == 0) break;
    double rs_sum = 0.0;
    std::size_t rs_count = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * n;
      double mean = 0.0;
      for (std::size_t i = 0; i < n; ++i) mean += series[off + i];
      mean /= static_cast<double>(n);
      double cum = 0.0;
      double cmin = 0.0;
      double cmax = 0.0;
      double ss = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = series[off + i] - mean;
        cum += d;
        cmin = std::min(cmin, cum);
        cmax = std::max(cmax, cum);
        ss += d * d;
      }
      const double s = std::sqrt(ss / static_cast<double>(n));
      if (s <= 0.0) continue;
      rs_sum += (cmax - cmin) / s;
      ++rs_count;
    }
    if (rs_count == 0) continue;
    log_n.push_back(std::log(static_cast<double>(n)));
    log_rs.push_back(std::log(rs_sum / static_cast<double>(rs_count)));
  }
  const util::LinearFit fit = util::linear_least_squares(log_n, log_rs);
  HurstEstimate est;
  est.slope = fit.slope;
  est.r_squared = fit.r_squared;
  est.points = log_n.size();
  est.hurst = std::clamp(fit.slope, 0.01, 0.99);
  return est;
}

HurstEstimate hurst_gph(const std::vector<double>& series, double power) {
  util::require(power > 0.0 && power < 1.0, "hurst_gph: power must be in (0,1)");
  const std::size_t n = series.size();
  util::require(n >= 64, "hurst_gph: series too short");
  const auto m = static_cast<std::size_t>(
      std::floor(std::pow(static_cast<double>(n), power)));
  const double mean = sample_mean(series);
  std::vector<double> log_freq_term;
  std::vector<double> log_periodogram;
  for (std::size_t j = 1; j <= m; ++j) {
    const double w = 2.0 * util::kPi * static_cast<double>(j) /
                     static_cast<double>(n);
    // Direct DFT at the j-th Fourier frequency (m ~ sqrt(n) frequencies, so
    // O(n sqrt n) total -- cheap next to trace generation).
    double re = 0.0;
    double im = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double x = series[t] - mean;
      const double phase = w * static_cast<double>(t);
      re += x * std::cos(phase);
      im += x * std::sin(phase);
    }
    const double periodogram =
        (re * re + im * im) / (2.0 * util::kPi * static_cast<double>(n));
    if (periodogram <= 0.0) continue;
    // GPH regressor: log(4 sin^2(w/2)); slope is -d with H = d + 1/2.
    log_freq_term.push_back(std::log(4.0 * std::sin(w / 2.0) *
                                     std::sin(w / 2.0)));
    log_periodogram.push_back(std::log(periodogram));
  }
  const util::LinearFit fit =
      util::linear_least_squares(log_freq_term, log_periodogram);
  HurstEstimate est;
  est.slope = fit.slope;
  est.r_squared = fit.r_squared;
  est.points = log_freq_term.size();
  est.hurst = std::clamp(0.5 - fit.slope, 0.01, 0.99);
  return est;
}

}  // namespace cts::stats

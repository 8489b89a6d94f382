#include "cts/core/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cts::core {

Spectrum::Spectrum(std::shared_ptr<const AcfModel> acf, double variance,
                   std::size_t truncation)
    : variance_(variance) {
  util::require(acf != nullptr, "Spectrum: acf required");
  util::require(variance > 0.0, "Spectrum: variance must be > 0");
  util::require(truncation >= 16, "Spectrum: truncation too small");
  // Cesaro (Fejer) weighting suppresses the Gibbs ripple of the hard
  // truncation while preserving the w -> 0 divergence rate of LRD models.
  // The weighted lags are tabulated once: density() runs per grid point.
  weights_.resize(truncation);
  const double n = static_cast<double>(truncation);
  for (std::size_t k = 1; k <= truncation; ++k) {
    const double fejer = 1.0 - static_cast<double>(k) / (n + 1.0);
    weights_[k - 1] = 2.0 * fejer * acf->at(k);
  }
}

double Spectrum::density(double w) const {
  util::require(w > 0.0 && w <= util::kPi,
                "Spectrum::density: w must be in (0, pi]");
  // acc += (2 fejer_k r(k)) cos(w k): the product order of the untabulated
  // sum, so the density is bit for bit what it was.
  double acc = 1.0;
  for (std::size_t k = 1; k <= weights_.size(); ++k) {
    acc += weights_[k - 1] * std::cos(w * static_cast<double>(k));
  }
  return std::max(variance_ * acc, 0.0);
}

double Spectrum::cutoff_frequency(double fraction) const {
  util::require(fraction > 0.0 && fraction < 1.0,
                "Spectrum::cutoff_frequency: fraction must be in (0,1)");
  // One pass over a log grid builds the cumulative power curve; the cutoff
  // is then interpolated.  (Bisecting on the integral directly would
  // re-evaluate the O(truncation) density thousands of times.)
  constexpr std::size_t kGrid = 1024;
  const double w_min = 1e-6 * util::kPi;
  const double ratio =
      std::pow(util::kPi / w_min, 1.0 / static_cast<double>(kGrid));
  std::vector<double> ws(kGrid + 1);
  std::vector<double> cumulative(kGrid + 1, 0.0);
  ws[0] = w_min;
  double prev_s = density(w_min);
  for (std::size_t i = 1; i <= kGrid; ++i) {
    ws[i] = std::min(util::kPi, w_min * std::pow(ratio,
                                                 static_cast<double>(i)));
    const double cur_s = density(ws[i]);
    cumulative[i] =
        cumulative[i - 1] + 0.5 * (prev_s + cur_s) * (ws[i] - ws[i - 1]);
    prev_s = cur_s;
  }
  const double total = cumulative[kGrid];
  util::require(total > 0.0, "Spectrum::cutoff_frequency: zero total power");
  const double target = fraction * total;
  for (std::size_t i = 1; i <= kGrid; ++i) {
    if (cumulative[i] >= target) {
      const double span = cumulative[i] - cumulative[i - 1];
      const double alpha =
          span > 0.0 ? (target - cumulative[i - 1]) / span : 0.0;
      return ws[i - 1] + alpha * (ws[i] - ws[i - 1]);
    }
  }
  return util::kPi;
}

double cutoff_time_scale(double cutoff_frequency) {
  util::require(cutoff_frequency > 0.0,
                "cutoff_time_scale: frequency must be > 0");
  return 2.0 * util::kPi / cutoff_frequency;
}

}  // namespace cts::core

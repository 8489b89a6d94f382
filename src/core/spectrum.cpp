#include "cts/core/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cts::core {

Spectrum::Spectrum(std::shared_ptr<const AcfModel> acf, double variance,
                   std::size_t truncation)
    : acf_(std::move(acf)), variance_(variance), truncation_(truncation) {
  util::require(acf_ != nullptr, "Spectrum: acf required");
  util::require(variance > 0.0, "Spectrum: variance must be > 0");
  util::require(truncation >= 16, "Spectrum: truncation too small");
}

double Spectrum::density(double w) const {
  util::require(w > 0.0 && w <= util::kPi,
                "Spectrum::density: w must be in (0, pi]");
  // Cesaro (Fejer) weighting suppresses the Gibbs ripple of the hard
  // truncation while preserving the w -> 0 divergence rate of LRD models.
  double acc = 1.0;
  const double n = static_cast<double>(truncation_);
  for (std::size_t k = 1; k <= truncation_; ++k) {
    const double kd = static_cast<double>(k);
    const double fejer = 1.0 - kd / (n + 1.0);
    acc += 2.0 * fejer * acf_->at(k) * std::cos(w * kd);
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

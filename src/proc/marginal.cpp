#include "cts/proc/marginal.hpp"

#include <cmath>

#include "cts/util/error.hpp"

namespace cts::proc {

GaussianMarginal::GaussianMarginal(double mean, double variance)
    : mean_(mean), variance_(variance) {
  util::require(variance > 0.0, "GaussianMarginal: variance must be > 0");
}

double GaussianMarginal::sample(util::Xoshiro256pp& rng) const {
  // Box-Muller-free polar sampling without cached state (marginals are
  // shared across sources, so the sampler must be stateless).
  double u, v, s;
  do {
    u = 2.0 * rng.uniform01() - 1.0;
    v = 2.0 * rng.uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double z = u * std::sqrt(-2.0 * std::log(s) / s);
  return mean_ + std::sqrt(variance_) * z;
}

std::string GaussianMarginal::name() const {
  return "gaussian(" + std::to_string(mean_) + "," +
         std::to_string(variance_) + ")";
}

NegativeBinomialMarginal::NegativeBinomialMarginal(double mean,
                                                   double variance)
    : mean_(mean), variance_(variance) {
  util::require(mean > 0.0, "NegativeBinomialMarginal: mean must be > 0");
  util::require(variance > mean,
                "NegativeBinomialMarginal: variance must exceed mean "
                "(over-dispersion)");
  shape_ = mean * mean / (variance - mean);
}

double NegativeBinomialMarginal::sample(util::Xoshiro256pp& rng) const {
  const double lambda =
      util::gamma_sample(rng, shape_, mean_ / shape_);
  return static_cast<double>(util::poisson_sample(rng, lambda));
}

std::string NegativeBinomialMarginal::name() const {
  return "negbinom(" + std::to_string(mean_) + "," +
         std::to_string(variance_) + ")";
}

}  // namespace cts::proc

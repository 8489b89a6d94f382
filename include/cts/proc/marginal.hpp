// Pluggable marginal distributions for frame sizes.
//
// Section 6.1 of the paper discusses non-Gaussian marginals: Heyman &
// Lakshman reached the same conclusions with a NEGATIVE BINOMIAL frame-size
// marginal.  Because DAR(p)'s stationary marginal equals its innovation
// marginal for any distribution, swapping the innovation sampler suffices
// to rerun every experiment with a heavier-tailed marginal -- the ablation
// bench does exactly that.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cts/util/rng.hpp"

namespace cts::proc {

/// A frame-size marginal distribution (sampler + moments).
class MarginalDistribution {
 public:
  virtual ~MarginalDistribution() = default;

  virtual double sample(util::Xoshiro256pp& rng) const = 0;
  virtual double mean() const = 0;
  virtual double variance() const = 0;
  virtual std::string name() const = 0;
};

/// N(mean, variance).
class GaussianMarginal final : public MarginalDistribution {
 public:
  GaussianMarginal(double mean, double variance);
  double sample(util::Xoshiro256pp& rng) const override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  std::string name() const override;

 private:
  double mean_;
  double variance_;
};

/// Negative binomial with the given mean and variance (variance > mean),
/// realised as a gamma-Poisson mixture:
///   r = mean^2 / (variance - mean),  X | G ~ Poisson(G),
///   G ~ Gamma(shape = r, scale = mean / r).
/// Its tail is heavier than the Gaussian's at equal moments -- the paper's
/// Section 6.1 scenario.
class NegativeBinomialMarginal final : public MarginalDistribution {
 public:
  NegativeBinomialMarginal(double mean, double variance);
  double sample(util::Xoshiro256pp& rng) const override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  std::string name() const override;

  double shape() const noexcept { return shape_; }

 private:
  double mean_;
  double variance_;
  double shape_;
};

}  // namespace cts::proc

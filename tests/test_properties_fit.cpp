// Property sweeps over the fitting and asymptotic machinery.

#include <cmath>

#include <gtest/gtest.h>

#include "cts/core/acf_model.hpp"
#include "cts/core/br_asymptotic.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/core/weibull_lrd.hpp"
#include "cts/fit/dar_fit.hpp"
#include "cts/fit/model_zoo.hpp"

namespace cc = cts::core;
namespace cf = cts::fit;

class DarFitRoundTripTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(DarFitRoundTripTest, HigherOrderFitsStayExactAndFeasible) {
  // Fit DAR(p) to the Z^a ACF for p up to 8; each fit must reproduce its
  // targets exactly with a valid probability vector.
  const auto [a, p_int] = GetParam();
  const auto p = static_cast<std::size_t>(p_int);
  const cf::ModelSpec z = cf::make_za(a);
  std::vector<double> targets(p);
  for (std::size_t k = 1; k <= p; ++k) targets[k - 1] = z.acf->at(k);
  const cf::DarFit fit = cf::fit_dar(targets);
  EXPECT_LT(fit.residual, 1e-8) << "a=" << a << " p=" << p;
  EXPECT_GE(fit.rho, 0.0);
  EXPECT_LT(fit.rho, 1.0);
  double sum = 0.0;
  for (const double ai : fit.lag_probs) {
    EXPECT_GE(ai, 0.0);
    sum += ai;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    OrderAndModelGrid, DarFitRoundTripTest,
    ::testing::Combine(::testing::Values(0.7, 0.9, 0.975),
                       ::testing::Values(1, 2, 3, 5, 8)));

class BrMonotonicityTest : public ::testing::TestWithParam<const char*> {
 protected:
  cf::ModelSpec model() const {
    const std::string name = GetParam();
    if (name == "Z^0.9") return cf::make_za(0.9);
    if (name == "L") return cf::make_l();
    if (name == "FARIMA") return cf::make_farima(0.35);
    if (name == "MGinf") return cf::make_mginf(1.4);
    return cf::make_dar_matched_to_za(0.975, 2);
  }
};

TEST_P(BrMonotonicityTest, BopMonotoneInBufferBandwidthAndN) {
  const cf::ModelSpec spec = model();
  // In buffer.
  {
    cc::RateFunction rate(spec.acf, spec.mean, spec.variance, 530.0);
    double prev = 1.0;
    for (const double b : {0.0, 40.0, 160.0, 640.0}) {
      const double bop = cc::br_log10_bop(rate, b, 30).log10_bop;
      EXPECT_LE(bop, prev + 1e-12) << spec.name << " b=" << b;
      prev = bop;
    }
  }
  // In bandwidth.
  {
    double prev = 1.0;
    for (const double c : {515.0, 525.0, 540.0, 560.0}) {
      cc::RateFunction rate(spec.acf, spec.mean, spec.variance, c);
      const double bop = cc::br_log10_bop(rate, 100.0, 30).log10_bop;
      EXPECT_LT(bop, prev) << spec.name << " c=" << c;
      prev = bop;
    }
  }
  // In N (per-source b, c fixed: more multiplexing gain).
  {
    cc::RateFunction rate(spec.acf, spec.mean, spec.variance, 530.0);
    double prev = 1.0;
    for (const std::size_t n : {10u, 30u, 90u}) {
      const double bop = cc::br_log10_bop(rate, 100.0, n).log10_bop;
      EXPECT_LT(bop, prev) << spec.name << " n=" << n;
      prev = bop;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ModelGrid, BrMonotonicityTest,
                         ::testing::Values("Z^0.9", "L", "FARIMA", "MGinf",
                                           "DAR2"));

class WeibullAgreementTest : public ::testing::TestWithParam<double> {};

TEST_P(WeibullAgreementTest, TracksExactBrAtLargeBuffers) {
  // Eq. (6) vs the exact B-R rate across the Hurst range.
  const double h = GetParam();
  const double weight = 0.9;
  cc::WeibullLrdParams params;
  params.hurst = h;
  params.weight = weight;
  params.mean = 500.0;
  params.variance = 5000.0;
  params.bandwidth = 538.0;
  cc::RateFunction rate(std::make_shared<cc::ExactLrdAcf>(h, weight), 500.0,
                        5000.0, 538.0);
  const double b = 5000.0;
  const double br = cc::br_log10_bop(rate, b, 30).log10_bop;
  const double wb = cc::weibull_log10_bop(params, 30, 30.0 * b);
  EXPECT_NEAR(wb / br, 1.0, 0.06) << "H=" << h;
}

INSTANTIATE_TEST_SUITE_P(HurstGrid, WeibullAgreementTest,
                         ::testing::Values(0.6, 0.7, 0.8, 0.9));

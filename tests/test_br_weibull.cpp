// Unit tests for the Bahadur-Rao, Large-N and Weibull-LRD asymptotics.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "cts/core/br_asymptotic.hpp"
#include "cts/core/large_n.hpp"
#include "cts/core/weibull_lrd.hpp"
#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cc = cts::core;
namespace cu = cts::util;

namespace {

cc::RateFunction lrd_rate(double h, double w) {
  return cc::RateFunction(std::make_shared<cc::ExactLrdAcf>(h, w), 500.0,
                          5000.0, 538.0);
}

}  // namespace

TEST(BrAsymptotic, TighterThanLargeN) {
  // The g1 refinement is negative, so B-R <= large-N pointwise.
  const cc::RateFunction rate = lrd_rate(0.9, 0.9);
  for (const double b : {10.0, 100.0, 500.0}) {
    const double br = cc::br_log10_bop(rate, b, 30).log10_bop;
    const double ln =
        cc::large_n_log10_bop(rate.evaluate(b), b, 30).log10_bop;
    EXPECT_LT(br, ln) << "b=" << b;
  }
}

TEST(BrAsymptotic, RefinementIsAboutHalfLogTerm) {
  const cc::RateFunction rate = lrd_rate(0.9, 0.9);
  const double b = 200.0;
  const cc::BopPoint br = cc::br_log10_bop(rate, b, 30);
  const cc::BopPoint ln = cc::large_n_log10_bop(rate.evaluate(b), b, 30);
  const double expected_gap =
      0.5 * std::log(4.0 * cu::kPi * 30.0 * br.rate) / std::log(10.0);
  EXPECT_NEAR(ln.log10_bop - br.log10_bop, expected_gap, 1e-9);
}

TEST(BrAsymptotic, MonotoneInBufferAndN) {
  const cc::RateFunction rate = lrd_rate(0.9, 0.9);
  double prev = 1.0;
  for (const double b : {0.0, 50.0, 200.0, 800.0}) {
    const double log_bop = cc::br_log10_bop(rate, b, 30).log10_bop;
    EXPECT_LT(log_bop, prev) << "b=" << b;
    prev = log_bop;
  }
  EXPECT_LT(cc::br_log10_bop(rate, 100.0, 60).log10_bop,
            cc::br_log10_bop(rate, 100.0, 30).log10_bop);
}

TEST(BrAsymptotic, ClampsAtProbabilityOne) {
  // A pathological corner (tiny drift, b = 0, N = 1) must not produce a
  // positive log-probability.
  const cc::RateFunction rate(std::make_shared<cc::WhiteAcf>(), 500.0,
                              5000.0, 500.001);
  EXPECT_LE(cc::br_log10_bop(rate, 0.0, 1).log10_bop, 0.0);
}

TEST(BrAsymptotic, RejectsZeroSources) {
  const cc::RateFunction rate = lrd_rate(0.9, 0.9);
  EXPECT_THROW(cc::br_log10_bop(rate, 1.0, 0), cu::InvalidArgument);
}

TEST(WeibullLrd, KappaValues) {
  EXPECT_DOUBLE_EQ(cc::kappa(0.5), 0.5);
  EXPECT_NEAR(cc::kappa(0.9),
              std::pow(0.9, 0.9) * std::pow(0.1, 0.1), 1e-15);
  EXPECT_THROW(cc::kappa(0.0), cu::InvalidArgument);
}

TEST(WeibullLrd, ParamsValidation) {
  cc::WeibullLrdParams p;
  EXPECT_NO_THROW(p.validate());
  p.hurst = 0.5;
  EXPECT_THROW(p.validate(), cu::InvalidArgument);
  p = cc::WeibullLrdParams{};
  p.bandwidth = p.mean;
  EXPECT_THROW(p.validate(), cu::InvalidArgument);
}

TEST(WeibullLrd, MatchesBrAsymptoticOnExactLrdModel) {
  // Eq. (6) is derived from the B-R asymptotic via the V(m) ~ sigma^2 g
  // m^{2H} approximation; on a pure exact-LRD model with a large buffer the
  // two must agree closely (in log10 terms).
  cc::WeibullLrdParams p;
  p.hurst = 0.9;
  p.weight = 0.9;
  p.mean = 500.0;
  p.variance = 5000.0;
  p.bandwidth = 538.0;
  const std::size_t n = 30;
  const cc::RateFunction rate = lrd_rate(p.hurst, p.weight);
  for (const double b : {2000.0, 8000.0}) {
    const double total_buffer = b * static_cast<double>(n);
    const double weibull = cc::weibull_log10_bop(p, n, total_buffer);
    const double br = cc::br_log10_bop(rate, b, n).log10_bop;
    EXPECT_NEAR(weibull / br, 1.0, 0.05) << "b=" << b;
  }
}

TEST(WeibullLrd, ExponentScalesAsBufferPower) {
  cc::WeibullLrdParams p;
  p.hurst = 0.9;
  const double j1 = cc::weibull_exponent(p, 30, 1000.0);
  const double j4 = cc::weibull_exponent(p, 30, 4000.0);
  // J ~ B^{2-2H} = B^{0.2}.
  EXPECT_NEAR(j4 / j1, std::pow(4.0, 0.2), 1e-9);
}

TEST(WeibullLrd, SubexponentialDecayIsVisible) {
  // Log-BOP vs buffer flattens (Weibull), unlike a Markov log-linear decay.
  cc::WeibullLrdParams p;
  p.hurst = 0.9;
  const double d1 = cc::weibull_log10_bop(p, 30, 2000.0) -
                    cc::weibull_log10_bop(p, 30, 1000.0);
  const double d2 = cc::weibull_log10_bop(p, 30, 4000.0) -
                    cc::weibull_log10_bop(p, 30, 3000.0);
  EXPECT_LT(std::abs(d2), std::abs(d1));
}

TEST(WeibullLrd, CriticalMClosedForm) {
  cc::WeibullLrdParams p;
  p.hurst = 0.9;
  p.mean = 500.0;
  p.bandwidth = 538.0;
  EXPECT_NEAR(cc::weibull_critical_m(p, 380.0), 9.0 * 10.0, 1e-9);
}

TEST(WeibullLrd, RejectsBadArguments) {
  cc::WeibullLrdParams p;
  EXPECT_THROW(cc::weibull_exponent(p, 0, 100.0), cu::InvalidArgument);
  EXPECT_THROW(cc::weibull_exponent(p, 30, 0.0), cu::InvalidArgument);
}

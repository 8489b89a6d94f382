// Unit tests for the aggregate variance V(m).

#include "cts/core/variance_growth.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"

namespace cc = cts::core;
namespace cu = cts::util;

TEST(VarianceGrowth, WhiteNoiseIsLinear) {
  auto acf = std::make_shared<cc::WhiteAcf>();
  const cc::VarianceGrowth v(acf, 2.0);
  for (const std::size_t m : {std::size_t{1}, std::size_t{10},
                              std::size_t{100}}) {
    EXPECT_DOUBLE_EQ(v.at(m), 2.0 * static_cast<double>(m));
  }
}

TEST(VarianceGrowth, GeometricClosedForm) {
  // For r(k) = a^k:
  //   V(m) = sigma^2 [ m + 2 sum_{i<m} (m - i) a^i ]
  // with the closed form sum = a[(m)(1-a) - (1-a^m)]/(1-a)^2.
  const double a = 0.7;
  const double sigma2 = 3.0;
  auto acf = std::make_shared<cc::GeometricAcf>(a);
  const cc::VarianceGrowth v(acf, sigma2);
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              std::size_t{50}}) {
    const double md = static_cast<double>(m);
    const double geo_sum =
        a * (md * (1 - a) - (1 - std::pow(a, md))) / ((1 - a) * (1 - a));
    const double expected = sigma2 * (md + 2.0 * geo_sum);
    EXPECT_NEAR(v.at(m), expected, 1e-9 * expected) << "m=" << m;
  }
}

TEST(VarianceGrowth, AtOneIsMarginalVariance) {
  auto acf = std::make_shared<cc::GeometricAcf>(0.95);
  const cc::VarianceGrowth v(acf, 5000.0);
  EXPECT_DOUBLE_EQ(v.at(1), 5000.0);
}

TEST(VarianceGrowth, LrdGrowsLikePowerLaw) {
  const double h = 0.9;
  const double w = 0.9;
  auto acf = std::make_shared<cc::ExactLrdAcf>(h, w);
  const cc::VarianceGrowth v(acf, 1.0);
  // Appendix eq. (11): V(m) ~ sigma^2 w m^{2H} for large m.
  for (const std::size_t m : {std::size_t{200}, std::size_t{1000},
                              std::size_t{5000}}) {
    const double approx = w * std::pow(static_cast<double>(m), 2.0 * h);
    EXPECT_NEAR(v.at(m) / approx, 1.0, 0.08) << "m=" << m;
  }
}

TEST(VarianceGrowth, LrdGrowthIsSuperlinearButSubquadratic) {
  auto acf = std::make_shared<cc::ExactLrdAcf>(0.9, 0.9);
  const cc::VarianceGrowth v(acf, 1.0);
  const double ratio = v.at(4000) / v.at(1000);
  EXPECT_GT(ratio, 4.0);    // superlinear (4^1 = 4)
  EXPECT_LT(ratio, 16.0);   // subquadratic (4^2 = 16)
  EXPECT_NEAR(ratio, std::pow(4.0, 1.8), 0.5);  // ~ 4^{2H}
}

TEST(VarianceGrowth, SrdNormalizedGrowthConverges) {
  auto acf = std::make_shared<cc::GeometricAcf>(0.8);
  const cc::VarianceGrowth v(acf, 1.0);
  // V(m)/(sigma^2 m) -> 1 + 2 a/(1-a) = 9 for a = 0.8.
  EXPECT_NEAR(v.at(100000) / 100000.0, 9.0, 0.01);
}

TEST(VarianceGrowth, RejectsBadInput) {
  auto acf = std::make_shared<cc::WhiteAcf>();
  EXPECT_THROW(cc::VarianceGrowth(nullptr, 1.0), cu::InvalidArgument);
  EXPECT_THROW(cc::VarianceGrowth(acf, 0.0), cu::InvalidArgument);
  const cc::VarianceGrowth v(acf, 1.0);
  EXPECT_THROW(v.at(0), cu::InvalidArgument);
}

// Unit tests for analytic ACF models.

#include "cts/core/acf_model.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/proc/dar.hpp"
#include "cts/util/error.hpp"

namespace cc = cts::core;
namespace cu = cts::util;

TEST(GeometricAcf, PowersOfA) {
  const cc::GeometricAcf acf(0.8);
  EXPECT_DOUBLE_EQ(acf.at(0), 1.0);
  EXPECT_DOUBLE_EQ(acf.at(1), 0.8);
  EXPECT_NEAR(acf.at(10), std::pow(0.8, 10), 1e-15);
}

TEST(GeometricAcf, RejectsOutOfRange) {
  EXPECT_THROW(cc::GeometricAcf(1.0), cu::InvalidArgument);
  EXPECT_THROW(cc::GeometricAcf(-0.1), cu::InvalidArgument);
}

TEST(DarAcf, MatchesDarParamsRecursion) {
  cts::proc::DarParams params;
  params.rho = 0.87;
  params.lag_probs = {0.7, 0.3};
  params.mean = 0.0;
  params.variance = 1.0;
  const std::vector<double> expected = params.acf(30);
  const cc::DarAcf acf(0.87, {0.7, 0.3});
  for (std::size_t k = 0; k <= 30; ++k) {
    EXPECT_NEAR(acf.at(k), expected[k], 1e-10) << "lag " << k;
  }
}

TEST(DarAcf, OrderOneIsGeometric) {
  const cc::DarAcf acf(0.9, {1.0});
  for (std::size_t k = 0; k <= 20; ++k) {
    EXPECT_NEAR(acf.at(k), std::pow(0.9, static_cast<double>(k)), 1e-12);
  }
}

TEST(DarAcf, RandomAccessOrderIndependent) {
  // Querying a large lag first must not corrupt the cache.
  const cc::DarAcf a(0.8, {0.6, 0.4});
  const cc::DarAcf b(0.8, {0.6, 0.4});
  const double big_first = a.at(100);
  (void)b.at(1);
  const double big_second = b.at(100);
  EXPECT_DOUBLE_EQ(big_first, big_second);
}

TEST(ExactLrdAcf, MatchesFgnForUnitWeight) {
  // FGN's closed form r(k) = 1/2 [(k+1)^{2H} - 2k^{2H} + (k-1)^{2H}].
  const cc::ExactLrdAcf acf(0.8, 1.0);
  for (std::size_t k = 1; k <= 50; ++k) {
    const double kd = static_cast<double>(k);
    const double fgn = 0.5 * (std::pow(kd + 1.0, 1.6) - 2.0 * std::pow(kd, 1.6) +
                              std::pow(kd - 1.0, 1.6));
    EXPECT_NEAR(acf.at(k), fgn, 1e-14) << "lag " << k;
  }
}

TEST(ExactLrdAcf, WeightScalesAllLags) {
  const cc::ExactLrdAcf full(0.85, 1.0);
  const cc::ExactLrdAcf scaled(0.85, 0.4);
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(scaled.at(k), 0.4 * full.at(k), 1e-14);
  }
  EXPECT_DOUBLE_EQ(scaled.at(0), 1.0);  // r(0) stays 1 by definition
}

TEST(ExactLrdAcf, RejectsBadParameters) {
  EXPECT_THROW(cc::ExactLrdAcf(0.5, 1.0), cu::InvalidArgument);
  EXPECT_THROW(cc::ExactLrdAcf(1.0, 1.0), cu::InvalidArgument);
  EXPECT_THROW(cc::ExactLrdAcf(0.8, 0.0), cu::InvalidArgument);
  EXPECT_THROW(cc::ExactLrdAcf(0.8, 1.5), cu::InvalidArgument);
}

TEST(MixtureAcf, WeightedSum) {
  auto geo = std::make_shared<cc::GeometricAcf>(0.5);
  auto lrd = std::make_shared<cc::ExactLrdAcf>(0.9, 0.9);
  const cc::MixtureAcf mix({lrd, geo}, {0.5, 0.5});
  for (std::size_t k = 1; k <= 20; ++k) {
    EXPECT_NEAR(mix.at(k), 0.5 * lrd->at(k) + 0.5 * geo->at(k), 1e-14);
  }
  EXPECT_DOUBLE_EQ(mix.at(0), 1.0);
}

TEST(MixtureAcf, ValidatesWeights) {
  auto geo = std::make_shared<cc::GeometricAcf>(0.5);
  EXPECT_THROW(cc::MixtureAcf({geo}, {0.9}), cu::InvalidArgument);
  EXPECT_THROW(cc::MixtureAcf({geo}, {0.5, 0.5}), cu::InvalidArgument);
  EXPECT_THROW(cc::MixtureAcf({}, {}), cu::InvalidArgument);
  EXPECT_THROW(cc::MixtureAcf({nullptr}, {1.0}), cu::InvalidArgument);
}

TEST(WhiteAcf, ZeroBeyondLagZero) {
  const cc::WhiteAcf acf;
  EXPECT_DOUBLE_EQ(acf.at(0), 1.0);
  EXPECT_DOUBLE_EQ(acf.at(1), 0.0);
  EXPECT_DOUBLE_EQ(acf.at(1000), 0.0);
}

TEST(TabulatedAcf, TableWithZeroTail) {
  const cc::TabulatedAcf acf({1.0, 0.5, 0.2});
  EXPECT_DOUBLE_EQ(acf.at(0), 1.0);
  EXPECT_DOUBLE_EQ(acf.at(1), 0.5);
  EXPECT_DOUBLE_EQ(acf.at(2), 0.2);
  EXPECT_DOUBLE_EQ(acf.at(3), 0.0);
}

TEST(TabulatedAcf, RequiresUnitLagZero) {
  EXPECT_THROW(cc::TabulatedAcf({0.9, 0.5}), cu::InvalidArgument);
  EXPECT_THROW(cc::TabulatedAcf({}), cu::InvalidArgument);
}

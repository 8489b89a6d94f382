// Unit tests for fractional Gaussian noise: the exact-LRD ACF at unit
// weight, core::ExactLrdAcf(H, 1), and the generic exact-Gaussian sources
// driven by it.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "cts/core/acf_model.hpp"
#include "cts/proc/gaussian_acf_source.hpp"
#include "cts/stats/acf.hpp"
#include "cts/util/accumulator.hpp"
#include "cts/util/error.hpp"

namespace cc = cts::core;
namespace cp = cts::proc;
namespace cs = cts::stats;
namespace cu = cts::util;

namespace {

/// FGN's closed form r(k) = 1/2 [(k+1)^{2H} - 2k^{2H} + (k-1)^{2H}], r(0) = 1.
double fgn_acf(std::size_t k, double hurst) {
  if (k == 0) return 1.0;
  const double kd = static_cast<double>(k);
  const double e = 2.0 * hurst;
  return 0.5 * (std::pow(kd + 1.0, e) - 2.0 * std::pow(kd, e) +
                std::pow(kd - 1.0, e));
}

std::shared_ptr<const cc::AcfModel> fgn(double hurst) {
  return std::make_shared<cc::ExactLrdAcf>(hurst, 1.0);
}

}  // namespace

TEST(FgnAcf, HalfHurstIsWhite) {
  // The closed form is white at H = 1/2; ExactLrdAcf, defined for H > 1/2,
  // tends to it.
  const cc::ExactLrdAcf near_half(0.5 + 1e-13, 1.0);
  for (std::size_t k = 1; k <= 20; ++k) {
    EXPECT_NEAR(fgn_acf(k, 0.5), 0.0, 1e-12) << "lag " << k;
    EXPECT_NEAR(near_half.at(k), 0.0, 1e-12) << "lag " << k;
  }
  EXPECT_DOUBLE_EQ(near_half.at(0), 1.0);
}

TEST(FgnAcf, PositiveAndDecreasingForLrd) {
  const cc::ExactLrdAcf acf(0.8, 1.0);
  double prev = 1.0;
  for (std::size_t k = 1; k <= 100; ++k) {
    const double r = acf.at(k);
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(FgnAcf, TailScalesAsPowerLaw) {
  const double h = 0.85;
  const cc::ExactLrdAcf acf(h, 1.0);
  const double r100 = acf.at(100);
  const double r800 = acf.at(800);
  EXPECT_NEAR(r800 / r100, std::pow(8.0, 2.0 * h - 2.0), 1e-3);
}

TEST(FgnParams, Validation) {
  EXPECT_THROW(cc::ExactLrdAcf(0.0, 1.0), cu::InvalidArgument);
  EXPECT_THROW(cp::GaussianAcfHosking(fgn(0.8), 0.0, -1.0, 1),
               cu::InvalidArgument);
  EXPECT_THROW(cp::GaussianAcfDaviesHarte(fgn(0.8), 0.0, -1.0, 64, 1),
               cu::InvalidArgument);
}

TEST(FgnHosking, MomentsAndAcf) {
  cp::GaussianAcfHosking source(fgn(0.8), 0.0, 1.0, 123);
  std::vector<double> trace(8192);
  for (auto& x : trace) x = source.next_frame();
  cu::MomentAccumulator acc;
  for (const double x : trace) acc.add(x);
  // LRD sample mean has sd ~ n^{H-1} = 8192^{-0.2} ~ 0.165: 3-sigma bound.
  EXPECT_NEAR(acc.mean(), 0.0, 0.5);
  EXPECT_NEAR(acc.variance(), 1.0, 0.25);
  const std::vector<double> r = cs::autocorrelation(trace, 5);
  for (std::size_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(r[k], fgn_acf(k, 0.8), 0.08) << "lag " << k;
  }
}

TEST(FgnDaviesHarte, MomentsAndAcf) {
  cp::GaussianAcfDaviesHarte source(fgn(0.8), 0.0, 1.0, 4096, 321);
  std::vector<double> trace(65536);
  for (auto& x : trace) x = source.next_frame();
  cu::MomentAccumulator acc;
  for (const double x : trace) acc.add(x);
  EXPECT_NEAR(acc.mean(), 0.0, 0.1);
  EXPECT_NEAR(acc.variance(), 1.0, 0.1);
  const std::vector<double> r = cs::autocorrelation(trace, 10);
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(r[k], fgn_acf(k, 0.8), 0.05) << "lag " << k;
  }
}

TEST(FgnDaviesHarte, WhiteCaseHasNoCorrelation) {
  cp::GaussianAcfDaviesHarte source(fgn(0.5001), 0.0, 1.0, 1024, 5);
  std::vector<double> trace(32768);
  for (auto& x : trace) x = source.next_frame();
  const std::vector<double> r = cs::autocorrelation(trace, 3);
  for (std::size_t k = 1; k <= 3; ++k) {
    EXPECT_NEAR(r[k], 0.0, 0.03);
  }
}

TEST(FgnDaviesHarte, BlockLengthRoundsToPow2) {
  cp::GaussianAcfDaviesHarte source(fgn(0.7), 0.0, 1.0, 1000, 1);
  EXPECT_EQ(source.block_length(), 1024u);
}

TEST(FgnGenerators, MarginalScaling) {
  cp::GaussianAcfDaviesHarte source(fgn(0.75), 500.0, 5000.0, 2048, 9);
  cu::MomentAccumulator acc;
  for (int i = 0; i < 32768; ++i) acc.add(source.next_frame());
  EXPECT_NEAR(acc.mean(), 500.0, 10.0);
  EXPECT_NEAR(acc.variance(), 5000.0, 800.0);
}

TEST(FgnGenerators, CloneDeterminism) {
  cp::GaussianAcfDaviesHarte dh(fgn(0.8), 0.0, 1.0, 256, 1);
  auto a = dh.clone(55);
  auto b = dh.clone(55);
  for (int i = 0; i < 600; ++i) {  // spans multiple blocks
    EXPECT_DOUBLE_EQ(a->next_frame(), b->next_frame());
  }
  cp::GaussianAcfHosking hos(fgn(0.8), 0.0, 1.0, 1);
  auto c = hos.clone(55);
  auto d = hos.clone(55);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(c->next_frame(), d->next_frame());
  }
}

// Unit tests for the Hurst estimators -- validated against generators with
// known H, the same methodology Beran et al. applied to video traces.

#include "cts/stats/hurst.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "cts/core/acf_model.hpp"
#include "cts/proc/gaussian_acf_source.hpp"
#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace cp = cts::proc;
namespace cs = cts::stats;
namespace cu = cts::util;

namespace {

std::vector<double> white_noise(std::size_t n, std::uint64_t seed) {
  cu::Xoshiro256pp rng(seed);
  cu::NormalSampler normal;
  std::vector<double> x(n);
  for (auto& v : x) v = normal(rng);
  return x;
}

std::vector<double> fgn_trace(double h, std::size_t n, std::uint64_t seed,
                              std::size_t block = 1 << 15) {
  cp::GaussianAcfDaviesHarte source(
      std::make_shared<cts::core::ExactLrdAcf>(h, 1.0), 0.0, 1.0, block, seed);
  std::vector<double> x(n);
  for (auto& v : x) v = source.next_frame();
  return x;
}

}  // namespace

TEST(VarianceTime, WhiteNoiseGivesHalf) {
  const auto x = white_noise(1 << 16, 101);
  const cs::HurstEstimate est = cs::hurst_variance_time(x);
  EXPECT_NEAR(est.hurst, 0.5, 0.06);
  EXPECT_GT(est.points, 5u);
}

TEST(VarianceTime, RecoversFgnHurst) {
  const auto x = fgn_trace(0.8, 1 << 17, 55);
  const cs::HurstEstimate est = cs::hurst_variance_time(x);
  EXPECT_NEAR(est.hurst, 0.8, 0.07);
  EXPECT_GT(est.r_squared, 0.95);
}

TEST(VarianceTime, RejectsShortSeries) {
  EXPECT_THROW(cs::hurst_variance_time(std::vector<double>(8, 1.0)),
               cu::InvalidArgument);
}

TEST(RescaledRange, WhiteNoiseNearHalf) {
  const auto x = white_noise(1 << 16, 202);
  const cs::HurstEstimate est = cs::hurst_rescaled_range(x);
  // R/S is biased upward on short ranges; the classical tolerance is wide.
  EXPECT_NEAR(est.hurst, 0.55, 0.08);
}

TEST(RescaledRange, DetectsStrongLrd) {
  const auto x = fgn_trace(0.85, 1 << 17, 77);
  const cs::HurstEstimate est = cs::hurst_rescaled_range(x);
  EXPECT_GT(est.hurst, 0.7);
}

TEST(Gph, WhiteNoiseGivesHalf) {
  const auto x = white_noise(1 << 14, 303);
  const cs::HurstEstimate est = cs::hurst_gph(x);
  EXPECT_NEAR(est.hurst, 0.5, 0.12);
}

TEST(Gph, RecoversFgnHurst) {
  const auto x = fgn_trace(0.8, 1 << 15, 99);
  const cs::HurstEstimate est = cs::hurst_gph(x);
  EXPECT_NEAR(est.hurst, 0.8, 0.12);
}

TEST(Gph, RejectsBadPower) {
  const auto x = white_noise(1024, 1);
  EXPECT_THROW(cs::hurst_gph(x, 0.0), cu::InvalidArgument);
  EXPECT_THROW(cs::hurst_gph(x, 1.0), cu::InvalidArgument);
}

class HurstSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(HurstSweepTest, VarianceTimeTracksTrueH) {
  const double h = GetParam();
  const auto x = fgn_trace(h, 1 << 17, static_cast<std::uint64_t>(h * 1000));
  const cs::HurstEstimate est = cs::hurst_variance_time(x);
  EXPECT_NEAR(est.hurst, h, 0.08) << "true H = " << h;
}

INSTANTIATE_TEST_SUITE_P(HurstGrid, HurstSweepTest,
                         ::testing::Values(0.6, 0.7, 0.8, 0.9));

class EstimatorAgreementTest : public ::testing::TestWithParam<double> {};

TEST_P(EstimatorAgreementTest, AllThreeEstimatorsAgreeOnFgn) {
  // The estimator battery of Beran et al.'s LRD analysis must agree on
  // synthetic FGN.
  const double h = GetParam();
  const auto x =
      fgn_trace(h, 1 << 16, static_cast<std::uint64_t>(h * 1e4), 1 << 14);
  EXPECT_NEAR(cs::hurst_variance_time(x).hurst, h, 0.09) << "vt";
  EXPECT_NEAR(cs::hurst_gph(x).hurst, h, 0.13) << "gph";
  // R/S is biased but must point the same direction.
  const double rs = cs::hurst_rescaled_range(x).hurst;
  EXPECT_GT(rs, h - 0.15);
  EXPECT_LT(rs, h + 0.15);
}

INSTANTIATE_TEST_SUITE_P(HurstGrid, EstimatorAgreementTest,
                         ::testing::Values(0.6, 0.75, 0.9));

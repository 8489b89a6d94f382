// Unit tests for the Kolmogorov-Smirnov normality check.

#include <cmath>

#include <gtest/gtest.h>

#include "cts/stats/ks.hpp"
#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace cs = cts::stats;
namespace cu = cts::util;

TEST(KolmogorovQ, KnownValues) {
  EXPECT_DOUBLE_EQ(cs::kolmogorov_q(0.0), 1.0);
  // Q(1.36) ~ 0.049 (the classic 5% critical value).
  EXPECT_NEAR(cs::kolmogorov_q(1.36), 0.049, 0.002);
  EXPECT_LT(cs::kolmogorov_q(2.0), 0.001);
}

TEST(KsTest, AcceptsTrueNormalSample) {
  cu::Xoshiro256pp rng(41);
  cu::NormalSampler normal;
  std::vector<double> sample(20000);
  for (auto& x : sample) x = 500.0 + std::sqrt(5000.0) * normal(rng);
  const cs::KsResult result = cs::ks_test_normal(sample, 500.0, 5000.0);
  EXPECT_GT(result.p_value, 0.01);
  EXPECT_LT(result.statistic, 0.02);
}

TEST(KsTest, RejectsShiftedSample) {
  cu::Xoshiro256pp rng(43);
  cu::NormalSampler normal;
  std::vector<double> sample(20000);
  for (auto& x : sample) x = 520.0 + std::sqrt(5000.0) * normal(rng);
  const cs::KsResult result = cs::ks_test_normal(sample, 500.0, 5000.0);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KsTest, RejectsWrongVarianceSample) {
  cu::Xoshiro256pp rng(47);
  cu::NormalSampler normal;
  std::vector<double> sample(20000);
  for (auto& x : sample) x = 500.0 + std::sqrt(20000.0) * normal(rng);
  const cs::KsResult result = cs::ks_test_normal(sample, 500.0, 5000.0);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KsTest, RejectsDegenerateInput) {
  EXPECT_THROW(cs::ks_test_normal({}, 0.0, 1.0), cu::InvalidArgument);
  EXPECT_THROW(cs::ks_test_normal({1.0}, 0.0, 0.0), cu::InvalidArgument);
}

// Unit tests for the random-number substrate.

#include "cts/util/rng.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"

namespace cu = cts::util;

TEST(Xoshiro, DeterministicForFixedSeed) {
  cu::Xoshiro256pp a(42);
  cu::Xoshiro256pp b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  cu::Xoshiro256pp a(1);
  cu::Xoshiro256pp b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, Uniform01InRangeAndCentered) {
  cu::Xoshiro256pp rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, SplitStreamsAreDecorrelated) {
  cu::Xoshiro256pp parent(99);
  cu::Xoshiro256pp child = parent.split();
  // Crude cross-correlation check on uniform draws.
  const int n = 50000;
  double sum_xy = 0.0, sum_x = 0.0, sum_y = 0.0, sum_x2 = 0.0, sum_y2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = parent.uniform01();
    const double y = child.uniform01();
    sum_xy += x * y;
    sum_x += x;
    sum_y += y;
    sum_x2 += x * x;
    sum_y2 += y * y;
  }
  const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
  const double vx = sum_x2 / n - (sum_x / n) * (sum_x / n);
  const double vy = sum_y2 / n - (sum_y / n) * (sum_y / n);
  const double corr = cov / std::sqrt(vx * vy);
  EXPECT_LT(std::abs(corr), 0.02);
}

TEST(NormalSampler, MomentsMatchStandardNormal) {
  cu::Xoshiro256pp rng(2024);
  cu::NormalSampler normal;
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0, sum4 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = normal(rng);
    sum += x;
    sum2 += x * x;
    sum3 += x * x * x;
    sum4 += x * x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
  EXPECT_NEAR(sum3 / n, 0.0, 0.05);
  EXPECT_NEAR(sum4 / n, 3.0, 0.1);  // Gaussian kurtosis
}

TEST(PoissonSample, ZeroMeanGivesZero) {
  cu::Xoshiro256pp rng(1);
  EXPECT_EQ(cu::poisson_sample(rng, 0.0), 0u);
}

TEST(PoissonSample, RejectsInvalidMean) {
  cu::Xoshiro256pp rng(1);
  EXPECT_THROW(cu::poisson_sample(rng, -1.0), cu::InvalidArgument);
  EXPECT_THROW(cu::poisson_sample(rng, std::nan("")), cu::InvalidArgument);
}

class PoissonMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMomentsTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  cu::Xoshiro256pp rng(static_cast<std::uint64_t>(mean * 1000) + 17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(cu::poisson_sample(rng, mean));
    sum += x;
    sum2 += x * x;
  }
  const double m = sum / n;
  const double v = sum2 / n - m * m;
  // Standard error of the mean ~ sqrt(mean/n); 6-sigma tolerance.
  const double tol = 6.0 * std::sqrt(mean / n) + 1e-3;
  EXPECT_NEAR(m, mean, tol) << "mean=" << mean;
  // Variance estimate is noisier; allow 3%-relative plus absolute floor.
  EXPECT_NEAR(v, mean, 0.03 * mean + 0.01) << "mean=" << mean;
}

// Covers both the inversion branch (< 30) and the PTRS branch (>= 30),
// including the FBNDP operating range (hundreds).
INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMomentsTest,
                         ::testing::Values(0.1, 1.0, 5.0, 12.0, 29.5, 30.5,
                                           80.0, 250.0, 1000.0));

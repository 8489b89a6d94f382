// Unit tests for cts/util/math.hpp.

#include "cts/util/math.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"

namespace cu = cts::util;

TEST(SecondCentralDifference, MatchesDirectEvaluationSmallK) {
  for (const double e : {1.5, 1.72, 1.8, 1.9}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{10}, std::size_t{100}}) {
      const double kd = static_cast<double>(k);
      const double direct = std::pow(kd + 1, e) - 2 * std::pow(kd, e) +
                            std::pow(kd - 1, e);
      EXPECT_NEAR(cu::second_central_difference_pow(k, e), direct,
                  1e-12 * std::abs(direct) + 1e-15)
          << "e=" << e << " k=" << k;
    }
  }
}

TEST(SecondCentralDifference, SeriesBranchContinuousAtSwitch) {
  // The implementation switches to a series expansion above k = 1e4; the
  // two branches must agree to high relative accuracy near the boundary.
  const double e = 1.8;
  const double below = cu::second_central_difference_pow(9999, e);
  const double above = cu::second_central_difference_pow(10001, e);
  // Interpolate the expected smooth behaviour: ratio of consecutive values
  // ~ (k2/k1)^(e-2).
  const double expected_ratio = std::pow(10001.0 / 9999.0, e - 2.0);
  EXPECT_NEAR(above / below, expected_ratio, 1e-6);
}

TEST(SecondCentralDifference, AtLagOneEqualsTwoToTheEMinusTwo) {
  const double e = 1.8;
  EXPECT_NEAR(cu::second_central_difference_pow(1, e),
              std::pow(2.0, e) - 2.0, 1e-12);
}

TEST(SecondCentralDifference, RejectsLagZero) {
  EXPECT_THROW(cu::second_central_difference_pow(0, 1.8),
               cu::InvalidArgument);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(cu::normal_cdf(0.0), 0.5, 1e-14);
  EXPECT_NEAR(cu::normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(cu::normal_cdf(-1.959963984540054), 0.025, 1e-12);
}

TEST(NormalPdf, PeakValue) {
  EXPECT_NEAR(cu::normal_pdf(0.0), 0.3989422804014327, 1e-14);
}

TEST(Bisect, FindsKnownRoot) {
  const double root = cu::bisect(
      [](double x) { return x * x - 2.0; }, 0.0, 2.0, 1e-13);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-11);
}

TEST(Bisect, RejectsNonBracketingInterval) {
  EXPECT_THROW(
      cu::bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      cu::InvalidArgument);
}

TEST(Bisect, AcceptsRootAtEndpoint) {
  EXPECT_DOUBLE_EQ(cu::bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
}

TEST(LinearLeastSquares, ExactLine) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {3, 5, 7, 9, 11};  // y = 2x + 1
  const cu::LinearFit fit = cu::linear_least_squares(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearLeastSquares, NoisyLineRSquaredBelowOne) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {1.0, 2.2, 2.8, 4.1};
  const cu::LinearFit fit = cu::linear_least_squares(x, y);
  EXPECT_GT(fit.r_squared, 0.9);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(LinearLeastSquares, RejectsDegenerateInput) {
  EXPECT_THROW(cu::linear_least_squares({1.0}, {1.0}), cu::InvalidArgument);
  EXPECT_THROW(cu::linear_least_squares({1.0, 1.0}, {1.0, 2.0}),
               cu::InvalidArgument);
  EXPECT_THROW(cu::linear_least_squares({1.0, 2.0}, {1.0}),
               cu::InvalidArgument);
}

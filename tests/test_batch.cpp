// Unit tests for replication / batch-means confidence intervals.

#include "cts/stats/batch.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace cs = cts::stats;
namespace cu = cts::util;

TEST(ReplicationInterval, MeanAndWidth) {
  const std::vector<double> estimates = {1.0, 1.2, 0.8, 1.1, 0.9};
  const cs::IntervalEstimate est = cs::replication_interval(estimates);
  EXPECT_NEAR(est.mean, 1.0, 1e-12);
  EXPECT_GT(est.half_width, 0.0);
  EXPECT_EQ(est.samples, 5u);
  EXPECT_LT(est.low(), est.mean);
  EXPECT_GT(est.high(), est.mean);
}

TEST(ReplicationInterval, SingleSampleHasZeroWidth) {
  const cs::IntervalEstimate est = cs::replication_interval({2.5});
  EXPECT_DOUBLE_EQ(est.mean, 2.5);
  EXPECT_DOUBLE_EQ(est.half_width, 0.0);
}

TEST(ReplicationInterval, RejectsEmpty) {
  EXPECT_THROW(cs::replication_interval({}), cu::InvalidArgument);
}

TEST(ReplicationInterval, CoversTrueMeanAtNominalRate) {
  // Frequentist sanity: 95% intervals built from N(0,1) replication means
  // should cover 0 about 95% of the time.
  cu::Xoshiro256pp rng(7);
  cu::NormalSampler normal;
  int covered = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> reps(10);
    for (auto& r : reps) r = normal(rng);
    const cs::IntervalEstimate est = cs::replication_interval(reps, 0.95);
    if (est.low() <= 0.0 && 0.0 <= est.high()) ++covered;
  }
  EXPECT_NEAR(static_cast<double>(covered) / trials, 0.95, 0.02);
}

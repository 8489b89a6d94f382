// Unit tests for the online statistics accumulators.

#include "cts/util/accumulator.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace cu = cts::util;

TEST(MomentAccumulator, BasicMoments) {
  cu::MomentAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Population variance is 4; unbiased sample variance = 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(MomentAccumulator, EmptyIsSafe) {
  cu::MomentAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.standard_error(), 0.0);
}

TEST(MomentAccumulator, MergeMatchesSequential) {
  std::vector<double> data;
  for (int i = 0; i < 1000; ++i) data.push_back(std::sin(i) * 10 + i % 7);

  cu::MomentAccumulator sequential;
  for (const double x : data) sequential.add(x);

  cu::MomentAccumulator left, right;
  for (std::size_t i = 0; i < data.size(); ++i) {
    (i < 300 ? left : right).add(data[i]);
  }
  left.merge(right);

  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), sequential.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), sequential.min());
  EXPECT_DOUBLE_EQ(left.max(), sequential.max());
}

TEST(MomentAccumulator, MergeWithEmptySides) {
  cu::MomentAccumulator a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  cu::MomentAccumulator c;
  c.merge(a);  // empty lhs: copy
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(MomentAccumulator, StandardErrorShrinksWithN) {
  cu::MomentAccumulator small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : -1.0);
  for (int i = 0; i < 1000; ++i) large.add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(small.standard_error(), large.standard_error());
}

TEST(CompensatedSum, RecoversSmallAddends) {
  cu::CompensatedSum sum;
  sum.add(1e16);
  for (int i = 0; i < 10; ++i) sum.add(1.0);
  sum.add(-1e16);
  EXPECT_DOUBLE_EQ(sum.value(), 10.0);
}

TEST(StableSum, CancellingMagnitudes) {
  // Naive summation loses the small terms entirely; the compensated sum
  // keeps them, in one pass and across two merged partial sums.
  const std::vector<double> values = {1e16, 1.0, 1.0, 1.0, 1.0, -1e16};
  double naive = 0.0;
  cu::CompensatedSum whole;
  for (const double v : values) {
    naive += v;
    whole.add(v);
  }
  EXPECT_NE(naive, 4.0);
  EXPECT_DOUBLE_EQ(whole.value(), 4.0);

  cu::CompensatedSum head, tail;
  for (std::size_t i = 0; i < 3; ++i) head.add(values[i]);
  for (std::size_t i = 3; i < values.size(); ++i) tail.add(values[i]);
  head.merge(tail);
  EXPECT_DOUBLE_EQ(head.value(), 4.0);
}

TEST(CompensatedSum, MergePreservesTotal) {
  cu::CompensatedSum a, b;
  for (int i = 0; i < 100; ++i) a.add(0.1);
  for (int i = 0; i < 100; ++i) b.add(0.2);
  a.merge(b);
  EXPECT_NEAR(a.value(), 30.0, 1e-12);
}

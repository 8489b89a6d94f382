// Unit tests for trace replay.

#include "cts/proc/trace.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"

namespace cp = cts::proc;
namespace cu = cts::util;

TEST(TraceSource, ReplaysCyclically) {
  cp::TraceSource source({1.0, 2.0, 3.0}, 0, /*randomize_phase=*/false);
  EXPECT_DOUBLE_EQ(source.next_frame(), 1.0);
  EXPECT_DOUBLE_EQ(source.next_frame(), 2.0);
  EXPECT_DOUBLE_EQ(source.next_frame(), 3.0);
  EXPECT_DOUBLE_EQ(source.next_frame(), 1.0);  // wraps
  EXPECT_EQ(source.length(), 3u);
}

TEST(TraceSource, ReportsEmpiricalMoments) {
  cp::TraceSource source({1.0, 2.0, 3.0, 4.0}, 0, false);
  EXPECT_DOUBLE_EQ(source.mean(), 2.5);
  EXPECT_DOUBLE_EQ(source.variance(), 1.25);  // biased 1/n
}

TEST(TraceSource, ClonesGetIndependentPhases) {
  std::vector<double> trace(1000);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i] = static_cast<double>(i);
  }
  cp::TraceSource source(std::move(trace), 1, true);
  auto a = source.clone(100);
  auto b = source.clone(200);
  // Different seeds -> almost surely different phases.
  EXPECT_NE(a->next_frame(), b->next_frame());
  // Same seed -> identical replay.
  auto c = source.clone(100);
  auto d = source.clone(100);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(c->next_frame(), d->next_frame());
  }
}

TEST(TraceSource, RejectsEmptyTrace) {
  EXPECT_THROW(cp::TraceSource({}, 0), cu::InvalidArgument);
}

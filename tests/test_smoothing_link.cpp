// Unit tests for deterministic smoothing and the link model.

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "cts/atm/gcra.hpp"
#include "cts/atm/link.hpp"
#include "cts/atm/smoothing.hpp"
#include "cts/util/error.hpp"

namespace ca = cts::atm;
namespace cu = cts::util;

TEST(Smoothing, EmptyFrameHasEmptySchedule) {
  // No cells, no spacing: an empty frame schedules nothing.
  EXPECT_DOUBLE_EQ(ca::smoothing_gap(0, 0.04), 0.0);
}

TEST(Smoothing, ScheduleIsEquispacedWithinFrame) {
  // FramePolicer replays a frame's cells at the smoothing schedule: 4
  // cells in a Ts = 1/16 s frame depart at (j + 1/2)/64 s (all times
  // exact in binary).  A zero-tolerance GCRA at exactly one cell per
  // 1/64 s passes them all, frame after frame, so the gap is a constant
  // Ts/cells, also across the frame boundary.
  const double Ts = 0.0625;
  ca::FramePolicer exact(64.0, 0.0, Ts);
  exact.police(0, 4.0);
  // The last cell departs at 3.5/64 s, half a gap before the frame ends.
  EXPECT_EQ(exact.bucket(0).tat(), 3.5 / 64.0 + 1.0 / 64.0);
  for (std::uint64_t n = 1; n < 5; ++n) {
    EXPECT_DOUBLE_EQ(exact.police(n, 4.0), 4.0) << "frame " << n;
  }
  EXPECT_EQ(exact.tally().nonconforming, 0u);
  // A contract a hair slower than the gap rejects every other cell.
  ca::FramePolicer slower(64.0 * (1.0 - 1e-9), 0.0, Ts);
  EXPECT_DOUBLE_EQ(slower.police(0, 4.0), 2.0);
}

TEST(Smoothing, GapMatchesScheduleSpacing) {
  EXPECT_DOUBLE_EQ(ca::smoothing_gap(500, 0.04), 0.04 / 500.0);
  EXPECT_THROW(ca::smoothing_gap(1, 0.0), cu::InvalidArgument);
}

TEST(Link, Oc3CellRate) {
  const ca::Link link(ca::kOc3PayloadBitsPerSecond);
  // 149.76 Mb/s / (53*8 bits) ~ 353208 cells/s.
  EXPECT_NEAR(link.cells_per_second(), 149.76e6 / 424.0, 1e-6);
  EXPECT_NEAR(link.cells_per_frame(0.04), 149.76e6 / 424.0 * 0.04, 1e-6);
}

TEST(Link, BufferDelayRoundTrip) {
  const ca::Link link(ca::kOc3PayloadBitsPerSecond);
  for (const double ms : {1.0, 20.0, 30.0}) {
    const double cells = link.buffer_cells_for_delay_ms(ms);
    EXPECT_NEAR(link.buffer_delay_ms(cells), ms, 1e-9);
  }
}

TEST(Link, PaperOperatingPointDelay) {
  // The paper's multiplexer: C = 16140 cells / 40 ms = 403,500 cells/s.
  // Back out the implied bit rate and check a 12105-cell buffer = 30 ms.
  const double cells_per_second = 16140.0 / 0.04;
  const ca::Link link(cells_per_second * 53 * 8);
  EXPECT_NEAR(link.buffer_delay_ms(12105.0), 30.0, 1e-9);
}

TEST(Link, CellTimeIsInverseRate) {
  const ca::Link link(424.0e6);  // 1M cells/s
  EXPECT_NEAR(link.cell_time(), 1e-6, 1e-15);
}

TEST(Link, RejectsNonPositiveRate) {
  EXPECT_THROW(ca::Link(0.0), cu::InvalidArgument);
  const ca::Link link(ca::kOc3BitsPerSecond);
  EXPECT_THROW(link.buffer_delay_ms(-1.0), cu::InvalidArgument);
  EXPECT_THROW(link.cells_per_frame(0.0), cu::InvalidArgument);
}

// Unit tests for GCRA policing and the dual leaky bucket.

#include "cts/atm/gcra.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace ca = cts::atm;
namespace cu = cts::util;

TEST(Gcra, ConformingStreamPasses) {
  // Cells exactly at the contract rate conform with zero tolerance.
  ca::Gcra gcra(1.0, 0.0);  // 1 cell/second
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(gcra.conforms(static_cast<double>(i))) << "cell " << i;
  }
}

TEST(Gcra, TooFastStreamIsPoliced) {
  // Cells at twice the rate: with zero tolerance, every second cell fails.
  ca::Gcra gcra(1.0, 0.0);
  int nonconforming = 0;
  for (int i = 0; i < 100; ++i) {
    if (!gcra.conforms(0.5 * static_cast<double>(i))) ++nonconforming;
  }
  EXPECT_NEAR(nonconforming, 50, 2);
}

TEST(Gcra, ToleranceAdmitsJitter) {
  // A stream at the contract rate but with +-0.3 s jitter: a LATE cell
  // pushes TAT to its own arrival + T, so the next early cell sits 0.6 s
  // ahead of schedule -- tau = 0.8 admits it, tau = 0.1 polices it.
  ca::Gcra loose(1.0, 0.8);
  ca::Gcra tight(1.0, 0.1);
  int loose_fail = 0;
  int tight_fail = 0;
  for (int i = 0; i < 200; ++i) {
    const double jitter = (i % 2 == 0) ? -0.3 : 0.3;
    const double t = static_cast<double>(i) + jitter;
    if (!loose.conforms(t)) ++loose_fail;
    if (!tight.conforms(t)) ++tight_fail;
  }
  EXPECT_EQ(loose_fail, 0);
  EXPECT_GT(tight_fail, 50);
}

TEST(Gcra, NonConformingCellsDoNotAdvanceState) {
  ca::Gcra gcra(1.0, 0.0);
  EXPECT_TRUE(gcra.conforms(0.0));
  // A burst of early cells all fail without pushing TAT further out...
  EXPECT_FALSE(gcra.conforms(0.1));
  EXPECT_FALSE(gcra.conforms(0.2));
  // ...so the next on-schedule cell still conforms.
  EXPECT_TRUE(gcra.conforms(1.0));
}

TEST(Gcra, ResetRestoresInitialState) {
  ca::Gcra gcra(10.0, 0.0);
  EXPECT_TRUE(gcra.conforms(0.0));
  EXPECT_FALSE(gcra.conforms(1.0));
  gcra.reset();
  EXPECT_TRUE(gcra.conforms(1.0));
}

TEST(Gcra, RejectsBadParameters) {
  EXPECT_THROW(ca::Gcra(0.0, 1.0), cu::InvalidArgument);
  EXPECT_THROW(ca::Gcra(1.0, -1.0), cu::InvalidArgument);
}

TEST(DualLeakyBucket, AdmitsContractBurstsOnly) {
  // PCR 10 c/s, SCR 2 c/s, BT sized for MBS = 5 cells.
  const double t_pcr = 0.1;
  const double t_scr = 0.5;
  const double bt = (5.0 - 1.0) * (t_scr - t_pcr);  // MBS = 5
  ca::DualLeakyBucket bucket(10.0, 0.0, 2.0, bt);
  EXPECT_NEAR(bucket.max_burst_size(), 5.0, 1e-9);

  // A 5-cell burst at peak rate conforms...
  int fails = 0;
  for (int i = 0; i < 5; ++i) {
    if (!bucket.conforms(0.1 * static_cast<double>(i))) ++fails;
  }
  EXPECT_EQ(fails, 0);
  // ...the 6th back-to-back cell does not.
  EXPECT_FALSE(bucket.conforms(0.5));
  // After idling one SCR period, service resumes.
  EXPECT_TRUE(bucket.conforms(5.0));
}

TEST(DualLeakyBucket, PeakRateEnforcedIndependently) {
  ca::DualLeakyBucket bucket(10.0, 0.0, 2.0, 10.0);
  EXPECT_TRUE(bucket.conforms(0.0));
  // Above PCR even with huge burst tolerance: policed.
  EXPECT_FALSE(bucket.conforms(0.05));
}

TEST(DualLeakyBucket, RejectsPcrBelowScr) {
  EXPECT_THROW(ca::DualLeakyBucket(1.0, 0.0, 2.0, 0.0), cu::InvalidArgument);
}

// ---- FramePolicer against the per-cell rule --------------------------------
//
// FramePolicer applies a frame as closed-form runs of cells.  These seeded
// property tests replay every frame cell by cell through Gcra /
// DualLeakyBucket at the same schedule and require the conforming count and
// every bucket's TAT to match bit for bit after each frame: a TAT a few ulps
// off would almost never show in the counts.

namespace {

struct Contract {
  double pcr = 0.0;  // 0: single-bucket GCRA on the SCR
  double cdvt = 0.0;
  double scr = 0.0;
  double bt = 0.0;
  double Ts = 0.04;
};

struct Frame {
  std::uint64_t index;
  std::uint64_t cells;
};

ca::FramePolicer make_policer(const Contract& c) {
  return c.pcr > 0.0 ? ca::FramePolicer(c.pcr, c.cdvt, c.scr, c.bt, c.Ts)
                     : ca::FramePolicer(c.scr, c.bt, c.Ts);
}

// The reference: every cell j of frame n tested at
// t_j = n Ts + (j + 1/2) (Ts / cells).
class PerCellPolicer {
 public:
  explicit PerCellPolicer(const Contract& c) : Ts_(c.Ts) {
    if (c.pcr > 0.0) {
      dual_.emplace(c.pcr, c.cdvt, c.scr, c.bt);
    } else {
      single_.emplace(1.0 / c.scr, c.bt);
    }
  }

  std::uint64_t police(const Frame& f) {
    if (f.cells == 0) return 0;
    const double t0 = static_cast<double>(f.index) * Ts_;
    const double gap = Ts_ / static_cast<double>(f.cells);
    std::uint64_t conforming = 0;
    for (std::uint64_t j = 0; j < f.cells; ++j) {
      const double t = t0 + (static_cast<double>(j) + 0.5) * gap;
      if (single_ ? single_->conforms(t) : dual_->conforms(t)) ++conforming;
    }
    return conforming;
  }

  double tat(std::size_t i) const {
    if (single_) return single_->tat();
    return i == 0 ? dual_->peak().tat() : dual_->sustainable().tat();
  }

 private:
  std::optional<ca::Gcra> single_;
  std::optional<ca::DualLeakyBucket> dual_;
  double Ts_;
};

::testing::AssertionResult matches_per_cell(const Contract& c,
                                            const std::vector<Frame>& frames) {
  ca::FramePolicer fast = make_policer(c);
  PerCellPolicer slow(c);
  std::uint64_t cells = 0;
  for (const Frame& f : frames) {
    const double got = fast.police(f.index, static_cast<double>(f.cells));
    const std::uint64_t want = slow.police(f);
    cells += f.cells;
    if (got != static_cast<double>(want)) {
      return ::testing::AssertionFailure()
             << "frame " << f.index << " (" << f.cells << " cells): "
             << got << " conforming, per-cell " << want;
    }
    for (std::size_t b = 0; b < fast.bucket_count(); ++b) {
      if (fast.bucket(b).tat() != slow.tat(b)) {
        return ::testing::AssertionFailure()
               << "frame " << f.index << " (" << f.cells << " cells): bucket "
               << b << " TAT " << std::hexfloat << fast.bucket(b).tat()
               << ", per-cell " << slow.tat(b);
      }
    }
  }
  if (fast.tally().cells != cells) {
    return ::testing::AssertionFailure() << "tally.cells " << fast.tally().cells
                                         << " != " << cells;
  }
  return ::testing::AssertionSuccess();
}

std::string describe(const Contract& c) {
  std::ostringstream out;
  out << std::setprecision(17) << "pcr " << c.pcr << " cdvt " << c.cdvt
      << " scr " << c.scr << " bt " << c.bt << " Ts " << c.Ts;
  return out.str();
}

}  // namespace

TEST(FramePolicer, RandomContractsMatchPerCellRule) {
  cu::Xoshiro256pp rng(20261017);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * rng.uniform01();
  };
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  for (int trial = 0; trial < 1500; ++trial) {
    Contract c;
    c.Ts = pick(2) == 0 ? 0.04 : uniform(0.001, 0.1);
    const double k0 = std::floor(std::pow(10.0, uniform(0.0, 3.2))) + 1.0;
    const double gap0 = c.Ts / k0;
    const std::uint64_t start = pick(3) == 0 ? 0 : pick(13000);
    const bool exact_frames = pick(4) == 0;
    double I = gap0 * std::exp(uniform(-0.7, 0.7));
    if (exact_frames) {
      // gap within a few ulps of t of I: the margin decides these.
      const double t_ulp = std::ldexp(
          1.0, std::ilogb(static_cast<double>(start + 1) * c.Ts) - 52);
      I = gap0 + t_ulp * uniform(-16.0, 16.0);
    }
    c.scr = 1.0 / I;
    switch (pick(3)) {
      case 0: c.bt = 0.0; break;
      case 1: c.bt = uniform(0.0, 20.0) * I; break;
      default: c.bt = uniform(0.0, 0.2); break;
    }
    if (pick(2) == 0) {
      c.pcr = c.scr * uniform(1.0, 4.0);
      c.cdvt = pick(2) == 0 ? 0.0 : uniform(0.0, 5.0) / c.pcr;
    }
    std::vector<Frame> frames;
    std::uint64_t n = start;
    for (int f = 0; f < 30; ++f) {
      std::uint64_t cells = static_cast<std::uint64_t>(k0);
      if (!exact_frames || pick(8) == 0) {
        cells = pick(10) == 0 ? pick(3)
                              : static_cast<std::uint64_t>(
                                    std::llround(k0 * uniform(0.3, 1.7)));
      }
      frames.push_back({n, cells});
      n += pick(6) == 0 ? 1 + pick(4) : 1;
    }
    ASSERT_TRUE(matches_per_cell(c, frames))
        << "trial " << trial << ": " << describe(c) << ", frames from "
        << start;
  }
}

TEST(FramePolicer, GapEqualToIncrementMatchesPerCellRule) {
  // I = 2^-13 exactly and Ts = k I, so gap == I bit for bit; t near 500 s.
  for (const double bt : {0.0, 0.0004, 0.05}) {
    for (const bool dual : {false, true}) {
      Contract c;
      c.Ts = 320.0 * 0x1p-13;
      c.scr = dual ? 0x1p13 / 1.25 : 0x1p13;
      c.bt = bt;
      if (dual) c.pcr = 0x1p13;  // the PCR bucket sits on the gap
      std::vector<Frame> frames;
      for (std::uint64_t n = 12490; n < 12530; ++n) {
        frames.push_back({n, n % 7 == 0 ? 321u : 320u});
      }
      EXPECT_TRUE(matches_per_cell(c, frames)) << describe(c);
    }
  }
}

TEST(FramePolicer, TinyFramesMatchPerCellRule) {
  cu::Xoshiro256pp rng(7);
  for (const double bt : {0.0, 0.01}) {
    for (const double pcr : {0.0, 400.0}) {
      Contract c;
      c.scr = 60.0;
      c.pcr = pcr;
      c.cdvt = pcr > 0.0 ? 0.001 : 0.0;
      c.bt = bt;
      std::vector<Frame> frames;
      for (std::uint64_t n = 12480; n < 12680; ++n) {
        frames.push_back({n, rng() % 3});
      }
      EXPECT_TRUE(matches_per_cell(c, frames)) << describe(c);
    }
  }
}

TEST(FramePolicer, HalfUlpTieAcrossBinadeMatchesPerCellRule) {
  // From t = 256 s on, TATs live in [256, 512) where the ulp is 2^-44, and
  // I = (m + 1/2) 2^-44 makes every fl(tat + I) a rounding tie, decided by
  // the parity of tat.  Alternating 700- and 500-cell frames keep the
  // bucket ahead of the schedule (filling, then draining) across t = 256 s.
  // Ties round to even, so only the cell that crosses 256 s can leave an
  // odd TAT; several m and frame orders make sure some crossing does.
  int contracts = 0;
  for (double m = std::floor(7e-5 * 0x1p44); contracts < 4; m += 1.0) {
    const double I = (m + 0.5) * 0x1p-44;
    const double scr = 1.0 / I;
    if (1.0 / scr != I) continue;  // the contract rate must round-trip to I
    ++contracts;
    for (const std::uint64_t phase : {0u, 1u}) {
      for (const bool dual : {false, true}) {
        Contract c;
        c.scr = scr;
        c.bt = 0.5;
        if (dual) {
          c.pcr = 2.0 * scr;
          c.cdvt = 0.001;
        }
        std::vector<Frame> frames;
        for (std::uint64_t n = 6300; n < 6500; ++n) {
          frames.push_back({n, (n + phase) % 2 == 0 ? 700u : 500u});
        }
        EXPECT_TRUE(matches_per_cell(c, frames)) << describe(c);
      }
    }
  }
}

TEST(FramePolicer, BucketsAndQuantisation) {
  ca::FramePolicer single(100.0, 0.0, 0.04);
  ca::FramePolicer dual(200.0, 0.0, 100.0, 0.0, 0.04);
  EXPECT_EQ(single.bucket_count(), 1u);
  EXPECT_EQ(dual.bucket_count(), 2u);
  EXPECT_EQ(dual.bucket(0).increment(), 1.0 / 200.0);
  EXPECT_EQ(dual.bucket(1).increment(), 1.0 / 100.0);
  EXPECT_THROW(single.bucket(1), cu::InvalidArgument);

  EXPECT_EQ(ca::whole_cells(-3.0), 0u);
  EXPECT_EQ(ca::whole_cells(2.5), 3u);
  EXPECT_EQ(ca::whole_cells(0x1p53 - 1.0), (std::uint64_t{1} << 53) - 1);
  EXPECT_THROW(ca::whole_cells(0x1p53), cu::InvalidArgument);
  EXPECT_THROW(ca::whole_cells(1e20), cu::InvalidArgument);
  EXPECT_THROW(ca::whole_cells(std::nan("")), cu::InvalidArgument);
  EXPECT_THROW(ca::whole_cells(-HUGE_VAL), cu::InvalidArgument);
  EXPECT_THROW(single.police(0, HUGE_VAL), cu::InvalidArgument);
}

TEST(FramePolicer, FlushReportsSteppedCells) {
  // Cells at exactly the contract rate (gap == I): no closed-form run
  // applies, so every cell takes a per-cell step.
  ca::FramePolicer on_rate(0x1p13, 0.0, 320.0 * 0x1p-13);
  // One cell per 40 ms frame on a 100 cells/s contract: always caught up.
  ca::FramePolicer slow(100.0, 0.0, 0.04);
  for (std::uint64_t n = 0; n < 10; ++n) {
    on_rate.police(n, 320.0);
    slow.police(n, 1.0);
  }
  EXPECT_EQ(on_rate.tally().stepped, 3200u);
  EXPECT_EQ(on_rate.tally().nonconforming, 0u);
  EXPECT_EQ(slow.tally().stepped, 1u);  // only the first cell ever

  cts::obs::MetricsShard shard;
  on_rate.flush(shard);
  EXPECT_EQ(shard.counters().at("atm.gcra.cells"), 3200u);
  EXPECT_EQ(shard.counters().at("atm.gcra.stepped_cells"), 3200u);
  EXPECT_EQ(on_rate.tally().cells, 0u);
}

// Unit tests for the fluid frame-level multiplexer.

#include "cts/sim/fluid_mux.hpp"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "cts/proc/ar1.hpp"
#include "cts/proc/mginf.hpp"
#include "cts/sim/replication.hpp"
#include "cts/util/error.hpp"

namespace cp = cts::proc;
namespace cm = cts::sim;
namespace cu = cts::util;

namespace {

/// Deterministic source emitting a fixed frame size.
class ConstantSource final : public cp::FrameSource {
 public:
  explicit ConstantSource(double value) : value_(value) {}
  double next_frame() override { return value_; }
  double mean() const override { return value_; }
  double variance() const override { return 0.0; }
  std::unique_ptr<cp::FrameSource> clone(std::uint64_t) const override {
    return std::make_unique<ConstantSource>(value_);
  }
  std::string name() const override { return "constant"; }

 private:
  double value_;
};

/// Source cycling through a fixed pattern of frame sizes.
class PatternSource final : public cp::FrameSource {
 public:
  explicit PatternSource(std::vector<double> pattern)
      : pattern_(std::move(pattern)) {}
  double next_frame() override {
    const double x = pattern_[pos_];
    pos_ = (pos_ + 1) % pattern_.size();
    return x;
  }
  double mean() const override { return 0.0; }
  double variance() const override { return 0.0; }
  std::unique_ptr<cp::FrameSource> clone(std::uint64_t) const override {
    return std::make_unique<PatternSource>(pattern_);
  }
  std::string name() const override { return "pattern"; }

 private:
  std::vector<double> pattern_;
  std::size_t pos_ = 0;
};

/// Replays a recorded frame sequence.
class ReplaySource final : public cp::FrameSource {
 public:
  explicit ReplaySource(std::vector<double> frames)
      : frames_(std::move(frames)) {}
  double next_frame() override { return frames_.at(pos_++); }
  double mean() const override { return 0.0; }
  double variance() const override { return 0.0; }
  std::unique_ptr<cp::FrameSource> clone(std::uint64_t) const override {
    return std::make_unique<ReplaySource>(frames_);
  }
  std::string name() const override { return "replay"; }

 private:
  std::vector<double> frames_;
  std::size_t pos_ = 0;
};

std::vector<std::unique_ptr<cp::FrameSource>> one_source(
    std::unique_ptr<cp::FrameSource> s) {
  std::vector<std::unique_ptr<cp::FrameSource>> v;
  v.push_back(std::move(s));
  return v;
}

}  // namespace

TEST(FluidMux, UnderloadedConstantTrafficLosesNothing) {
  auto sources = one_source(std::make_unique<ConstantSource>(400.0));
  cm::FluidRunConfig config;
  config.frames = 1000;
  config.warmup_frames = 0;
  config.capacity_cells = 500.0;
  config.buffer_sizes_cells = {0.0, 100.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  EXPECT_DOUBLE_EQ(result.arrived_cells, 400.0 * 1000);
  for (const auto& tally : result.clr) {
    EXPECT_DOUBLE_EQ(tally.lost_cells, 0.0);
    EXPECT_EQ(tally.loss_frames, 0u);
  }
}

TEST(FluidMux, OverloadedTrafficLosesExactExcess) {
  // 600 cells/frame into a 500-capacity, zero-buffer queue: lose 100/frame.
  auto sources = one_source(std::make_unique<ConstantSource>(600.0));
  cm::FluidRunConfig config;
  config.frames = 100;
  config.warmup_frames = 0;
  config.capacity_cells = 500.0;
  config.buffer_sizes_cells = {0.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  EXPECT_DOUBLE_EQ(result.clr[0].lost_cells, 100.0 * 100);
  EXPECT_NEAR(result.clr[0].clr(result.arrived_cells), 1.0 / 6.0, 1e-12);
}

TEST(FluidMux, BufferAbsorbsBurstsExactly) {
  // Alternating 600/400 at capacity 500: a 100-cell buffer absorbs the
  // burst fully, a 50-cell buffer loses 50 on every burst frame.
  auto sources = one_source(
      std::make_unique<PatternSource>(std::vector<double>{600.0, 400.0}));
  cm::FluidRunConfig config;
  config.frames = 1000;
  config.warmup_frames = 0;
  config.capacity_cells = 500.0;
  config.buffer_sizes_cells = {50.0, 100.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  EXPECT_DOUBLE_EQ(result.clr[1].lost_cells, 0.0);
  EXPECT_DOUBLE_EQ(result.clr[0].lost_cells, 50.0 * 500);
  EXPECT_EQ(result.clr[0].loss_frames, 500u);
}

TEST(FluidMux, ClrIsNonIncreasingInBufferSize) {
  cp::Ar1Params p;
  p.phi = 0.9;
  p.mean = 500.0;
  p.variance = 5000.0;
  std::vector<std::unique_ptr<cp::FrameSource>> sources;
  for (int i = 0; i < 10; ++i) {
    sources.push_back(std::make_unique<cp::Ar1Source>(p, 100 + i));
  }
  cm::FluidRunConfig config;
  config.frames = 50000;
  config.warmup_frames = 100;
  config.capacity_cells = 10 * 530.0;
  config.buffer_sizes_cells = {0.0, 200.0, 1000.0, 4000.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  for (std::size_t i = 1; i < result.clr.size(); ++i) {
    EXPECT_LE(result.clr[i].lost_cells, result.clr[i - 1].lost_cells);
  }
  EXPECT_GT(result.clr[0].lost_cells, 0.0);  // zero buffer must lose
}

TEST(FluidMux, BopIsNonIncreasingInThreshold) {
  cp::Ar1Params p;
  p.phi = 0.9;
  p.mean = 500.0;
  p.variance = 5000.0;
  std::vector<std::unique_ptr<cp::FrameSource>> sources;
  for (int i = 0; i < 10; ++i) {
    sources.push_back(std::make_unique<cp::Ar1Source>(p, 200 + i));
  }
  cm::FluidRunConfig config;
  config.frames = 50000;
  config.warmup_frames = 100;
  config.capacity_cells = 10 * 530.0;
  config.bop_thresholds_cells = {0.0, 100.0, 500.0, 2000.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  for (std::size_t i = 1; i < result.bop.size(); ++i) {
    EXPECT_LE(result.bop[i].exceed_frames, result.bop[i - 1].exceed_frames);
  }
}

TEST(FluidMux, InfiniteBufferSeesMoreLossOpportunityThanFinite) {
  // Workload conservation: with a finite buffer, queue <= B always; the
  // infinite-buffer workload dominates the finite one pointwise, so
  // P(W_inf > B) >= CLR events.  Spot-check via loss_frames <= exceed.
  auto sources = one_source(
      std::make_unique<PatternSource>(std::vector<double>{700.0, 300.0}));
  cm::FluidRunConfig config;
  config.frames = 100;
  config.warmup_frames = 0;
  config.capacity_cells = 500.0;
  config.buffer_sizes_cells = {150.0};
  config.bop_thresholds_cells = {150.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  EXPECT_GE(result.bop[0].exceed_frames, result.clr[0].loss_frames);
}

TEST(FluidMux, UnsortedAndDuplicateThresholdsKeepTheirOrder) {
  // W_inf cycles 100, 200, 0 (capacity 500 against 600, 600, 300).
  auto sources = one_source(std::make_unique<PatternSource>(
      std::vector<double>{600.0, 600.0, 300.0}));
  cm::FluidRunConfig config;
  config.frames = 300;
  config.warmup_frames = 0;
  config.capacity_cells = 500.0;
  config.bop_thresholds_cells = {150.0, 0.0, 50.0, 50.0, 1e9, 0.0, 120.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  const std::uint64_t want[] = {100, 200, 200, 200, 0, 200, 100};
  ASSERT_EQ(result.bop.size(), std::size(want));
  for (std::size_t i = 0; i < result.bop.size(); ++i) {
    EXPECT_EQ(result.bop[i].threshold_cells,
              config.bop_thresholds_cells[i]);
    EXPECT_EQ(result.bop[i].exceed_frames, want[i]) << "threshold " << i;
  }
  EXPECT_EQ(result.peak_workload_cells, 200.0);
}

TEST(FluidMux, ThresholdEqualToTheWorkloadIsNotExceeded) {
  // BOP counts W > x strictly: with W_inf cycling 100, 200, 0, the
  // thresholds 100 and 200 are met exactly but exceeded by 1 and 0 frames
  // per cycle, and one ulp below 100 by 2.
  auto sources = one_source(std::make_unique<PatternSource>(
      std::vector<double>{600.0, 600.0, 300.0}));
  cm::FluidRunConfig config;
  config.frames = 30;
  config.warmup_frames = 0;
  config.capacity_cells = 500.0;
  config.bop_thresholds_cells = {200.0, 100.0, std::nextafter(100.0, 0.0),
                                 200.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  EXPECT_EQ(result.bop[0].exceed_frames, 0u);
  EXPECT_EQ(result.bop[1].exceed_frames, 10u);
  EXPECT_EQ(result.bop[2].exceed_frames, 20u);
  EXPECT_EQ(result.bop[3].exceed_frames, 0u);
}

TEST(FluidMux, WarmupFramesAreExcludedFromTallies) {
  auto sources = one_source(std::make_unique<ConstantSource>(600.0));
  cm::FluidRunConfig config;
  config.frames = 10;
  config.warmup_frames = 5;
  config.capacity_cells = 500.0;
  config.buffer_sizes_cells = {0.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
  EXPECT_DOUBLE_EQ(result.arrived_cells, 600.0 * 10);
  EXPECT_DOUBLE_EQ(result.clr[0].lost_cells, 100.0 * 10);
}

TEST(FluidMux, RejectsBadConfig) {
  auto sources = one_source(std::make_unique<ConstantSource>(1.0));
  cm::FluidRunConfig config;
  config.capacity_cells = 0.0;
  EXPECT_THROW(cm::FluidMux::run(sources, config), cu::InvalidArgument);
  config.capacity_cells = 10.0;
  config.buffer_sizes_cells = {-1.0};
  EXPECT_THROW(cm::FluidMux::run(sources, config), cu::InvalidArgument);
  std::vector<std::unique_ptr<cp::FrameSource>> empty;
  cm::FluidRunConfig ok;
  EXPECT_THROW(cm::FluidMux::run(empty, ok), cu::InvalidArgument);
}

namespace {

/// Seven sources of two kinds; `seed` selects the streams.
std::vector<std::unique_ptr<cp::FrameSource>> mixed_sources(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<cp::FrameSource>> v;
  for (std::uint64_t s = 0; s < 7; ++s) {
    if (s % 3 == 2) {
      v.push_back(std::make_unique<cp::MgInfSource>(cp::MgInfParams{},
                                                    seed + s));
    } else {
      v.push_back(std::make_unique<cp::Ar1Source>(cp::Ar1Params{}, seed + s));
    }
  }
  return v;
}

/// Each frame's arrivals as one next_frame() call per source per frame,
/// added in source order from 0.0: the recursion's input before sources
/// were read in chunks.
std::vector<double> interleaved_arrivals(std::uint64_t seed,
                                         std::uint64_t frames) {
  auto sources = mixed_sources(seed);
  std::vector<double> out(frames);
  for (double& a : out) {
    a = 0.0;
    for (auto& source : sources) a += source->next_frame();
  }
  return out;
}

cm::FluidRunConfig chunk_config(std::uint64_t frames, std::uint64_t warmup) {
  cm::FluidRunConfig config;
  config.frames = frames;
  config.warmup_frames = warmup;
  config.capacity_cells = 7 * 510.0;
  config.buffer_sizes_cells = {0.0, 30.0, 300.0, 3000.0};
  config.bop_thresholds_cells = {0.0, 50.0, 500.0};
  return config;
}

void expect_same_run(const cm::FluidRunResult& got,
                     const cm::FluidRunResult& want, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.frames, want.frames);
  EXPECT_EQ(std::memcmp(&got.arrived_cells, &want.arrived_cells,
                        sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.peak_workload_cells, &want.peak_workload_cells,
                        sizeof(double)), 0);
  ASSERT_EQ(got.clr.size(), want.clr.size());
  for (std::size_t i = 0; i < got.clr.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.clr[i].lost_cells, &want.clr[i].lost_cells,
                          sizeof(double)), 0) << i;
    EXPECT_EQ(got.clr[i].loss_frames, want.clr[i].loss_frames) << i;
  }
  ASSERT_EQ(got.bop.size(), want.bop.size());
  for (std::size_t i = 0; i < got.bop.size(); ++i) {
    EXPECT_EQ(got.bop[i].exceed_frames, want.bop[i].exceed_frames) << i;
  }
}

/// Frame counts around the 256-frame chunk; warm-ups ending at and inside
/// a chunk.
const std::pair<std::uint64_t, std::uint64_t> kFramesAndWarmup[] = {
    {1, 0}, {255, 0}, {256, 0}, {257, 0}, {1, 255}, {300, 100},
    {1000, 256}, {1000, 300}};

}  // namespace

// The chunked read (one row per source, summed source by source) gives
// the tallies of one source replaying the frame-interleaved sums.
TEST(FluidMux, ChunkedSourcesMatchFrameInterleavedArrivals) {
  for (const auto& [frames, warmup] : kFramesAndWarmup) {
    const cm::FluidRunConfig config = chunk_config(frames, warmup);
    auto sources = mixed_sources(11);
    const cm::FluidRunResult got = cm::FluidMux::run(sources, config);
    auto replay = one_source(std::make_unique<ReplaySource>(
        interleaved_arrivals(11, frames + warmup)));
    expect_same_run(got, cm::FluidMux::run(replay, config),
                    std::to_string(frames) + "+" + std::to_string(warmup));
  }
}

// The same through a replication pool's task board: rows filled on any
// thread, tallies unchanged, at every thread count.
TEST(FluidMux, BoardSharedFillsMatchFrameInterleavedArrivals) {
  for (const auto& [frames, warmup] : kFramesAndWarmup) {
    const cm::FluidRunConfig config = chunk_config(frames, warmup);
    std::vector<cm::FluidRunResult> want;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      auto replay = one_source(std::make_unique<ReplaySource>(
          interleaved_arrivals(100 * rep, frames + warmup)));
      want.push_back(cm::FluidMux::run(replay, config));
    }
    for (const unsigned threads : {1u, 2u, 5u}) {
      cm::SliceDriverConfig driver;
      driver.replications = 3;
      driver.threads = threads;
      driver.progress = false;
      std::vector<cm::FluidRunResult> got(3);
      cm::run_replication_slice(
          driver, [&](std::size_t rep, std::size_t local,
                      cts::obs::ProgressReporter&, cm::FillBoard& board) {
            auto sources = mixed_sources(100 * rep);
            cm::FluidRunConfig run = config;
            run.fills = &board;
            got[local] = cm::FluidMux::run(sources, run);
          });
      for (std::size_t rep = 0; rep < 3; ++rep) {
        expect_same_run(got[rep], want[rep],
                        std::to_string(frames) + "+" + std::to_string(warmup) +
                            " threads " + std::to_string(threads) + " rep " +
                            std::to_string(rep));
      }
    }
  }
}

// Property tests on the queueing recursion: conservation and monotonicity
// across the model zoo under randomised workloads.

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "cts/fit/model_zoo.hpp"
#include "cts/sim/fluid_mux.hpp"

namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cp = cts::proc;

namespace {

/// Wraps a FrameSource to record the total cells emitted.
class MeteredSource final : public cp::FrameSource {
 public:
  MeteredSource(std::unique_ptr<cp::FrameSource> inner, double* total)
      : inner_(std::move(inner)), total_(total) {}
  double next_frame() override {
    const double x = inner_->next_frame();
    *total_ += x;
    return x;
  }
  double mean() const override { return inner_->mean(); }
  double variance() const override { return inner_->variance(); }
  std::unique_ptr<cp::FrameSource> clone(std::uint64_t seed) const override {
    return inner_->clone(seed);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cp::FrameSource> inner_;
  double* total_;
};

}  // namespace

// The model is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would put a per-process address into
// the discovered ctest names.
class QueuePropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  cf::ModelSpec model() const {
    const std::string name = std::get<0>(GetParam());
    if (name == "Z^0.9") return cf::make_za(0.9);
    if (name == "V^1") return cf::make_vv(1.0);
    if (name == "L") return cf::make_l();
    return cf::make_dar_matched_to_za(0.975, 2);
  }
  std::uint64_t seed() const {
    return 1000 + static_cast<std::uint64_t>(std::get<1>(GetParam()));
  }
};

TEST_P(QueuePropertyTest, ArrivalsAreConservedAcrossBufferSizes) {
  // arrivals = lost + served + final queue for every tracked buffer, where
  // served is implied; we verify the invariant lost <= arrivals and that
  // losses decrease monotonically with buffer on the SAME sample path.
  const cf::ModelSpec spec = model();
  double emitted = 0.0;
  std::vector<std::unique_ptr<cp::FrameSource>> sources;
  for (int i = 0; i < 10; ++i) {
    sources.push_back(std::make_unique<MeteredSource>(
        spec.make_source(seed() + static_cast<std::uint64_t>(i)), &emitted));
  }
  cm::FluidRunConfig config;
  config.frames = 12000;
  config.warmup_frames = 0;
  config.capacity_cells = 10 * 515.0;
  config.buffer_sizes_cells = {0.0, 100.0, 500.0, 2000.0, 8000.0};
  const cm::FluidRunResult result = cm::FluidMux::run(sources, config);

  EXPECT_NEAR(result.arrived_cells, emitted, 1e-6 * emitted);
  for (std::size_t i = 0; i < result.clr.size(); ++i) {
    EXPECT_GE(result.clr[i].lost_cells, 0.0);
    EXPECT_LE(result.clr[i].lost_cells, result.arrived_cells);
    if (i > 0) {
      EXPECT_LE(result.clr[i].lost_cells, result.clr[i - 1].lost_cells)
          << spec.name << " buffer index " << i;
    }
  }
}

TEST_P(QueuePropertyTest, MoreCapacityNeverIncreasesLoss) {
  const cf::ModelSpec spec = model();
  double prev_loss = -1.0;
  for (const double c_per_source : {530.0, 520.0, 510.0}) {
    std::vector<std::unique_ptr<cp::FrameSource>> sources;
    for (int i = 0; i < 10; ++i) {
      sources.push_back(
          spec.make_source(seed() + static_cast<std::uint64_t>(i)));
    }
    cm::FluidRunConfig config;
    config.frames = 12000;
    config.warmup_frames = 0;
    config.capacity_cells = 10 * c_per_source;
    config.buffer_sizes_cells = {500.0};
    const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
    // Iterating capacity downward: loss must not decrease (same seeds =>
    // identical sample paths).
    EXPECT_GE(result.clr[0].lost_cells, prev_loss) << spec.name;
    prev_loss = result.clr[0].lost_cells;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, QueuePropertyTest,
    ::testing::Combine(::testing::Values("Z^0.9", "V^1", "L", "DAR2"),
                       ::testing::Values(0, 1)));

TEST(QueueScaling, MoreSourcesSmoothTraffic) {
  // Statistical multiplexing: at equal per-source bandwidth and buffer,
  // doubling N reduces the CLR (the large-deviations rate is ~N I).
  const cf::ModelSpec spec = cf::make_za(0.9);
  auto run_for = [&](int n) {
    std::vector<std::unique_ptr<cp::FrameSource>> sources;
    for (int i = 0; i < n; ++i) {
      sources.push_back(spec.make_source(77 + static_cast<std::uint64_t>(i)));
    }
    cm::FluidRunConfig config;
    config.frames = 25000;
    config.warmup_frames = 500;
    config.capacity_cells = n * 525.0;
    config.buffer_sizes_cells = {n * 50.0};
    const cm::FluidRunResult result = cm::FluidMux::run(sources, config);
    return result.clr[0].clr(result.arrived_cells);
  };
  const double clr_small = run_for(5);
  const double clr_large = run_for(30);
  EXPECT_GT(clr_small, clr_large);
}

// Unit tests for the multithreaded replication harness.

#include "cts/sim/replication.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include <gtest/gtest.h>

#include "cts/obs/metrics.hpp"
#include "cts/proc/ar1.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cu = cts::util;

namespace {

cm::ReplicationConfig small_config() {
  cm::ReplicationConfig config;
  config.replications = 4;
  config.frames_per_replication = 4000;
  config.warmup_frames = 200;
  config.n_sources = 10;
  config.capacity_cells = 10 * 520.0;
  config.buffer_sizes_cells = {0.0, 500.0};
  config.bop_thresholds_cells = {200.0};
  return config;
}

/// An AR(1) source whose `fail_at`-th frame throws.
class FailingSource final : public cts::proc::FrameSource {
 public:
  FailingSource(std::uint64_t seed, std::uint64_t fail_at)
      : inner_(cts::proc::Ar1Params{}, seed), fail_at_(fail_at) {}
  double next_frame() override {
    if (frames_++ == fail_at_) throw std::runtime_error("source failed");
    return inner_.next_frame();
  }
  double mean() const override { return inner_.mean(); }
  double variance() const override { return inner_.variance(); }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override {
    return std::make_unique<FailingSource>(seed, fail_at_);
  }
  std::string name() const override { return "failing"; }

 private:
  cts::proc::Ar1Source inner_;
  std::uint64_t fail_at_;
  std::uint64_t frames_ = 0;
};

/// Ten AR(1) sources, the one at `failing` (if any) throwing at frame 300.
std::vector<std::unique_ptr<cts::proc::FrameSource>> failing_row(
    std::uint64_t seed, std::size_t failing) {
  std::vector<std::unique_ptr<cts::proc::FrameSource>> sources;
  for (std::size_t s = 0; s < 10; ++s) {
    if (s == failing) {
      sources.push_back(std::make_unique<FailingSource>(seed + s, 300));
    } else {
      sources.push_back(std::make_unique<cts::proc::Ar1Source>(
          cts::proc::Ar1Params{}, seed + s));
    }
  }
  return sources;
}

}  // namespace

TEST(Replication, ResultsIndependentOfThreadCount) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.threads = 1;
  const cm::ReplicationResult serial = cm::run_replicated(model, config);
  config.threads = 4;
  const cm::ReplicationResult parallel = cm::run_replicated(model, config);
  ASSERT_EQ(serial.clr.size(), parallel.clr.size());
  for (std::size_t i = 0; i < serial.clr.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.clr[i].pooled_clr, parallel.clr[i].pooled_clr);
    EXPECT_DOUBLE_EQ(serial.clr[i].clr.mean, parallel.clr[i].clr.mean);
  }
  EXPECT_DOUBLE_EQ(serial.total_arrived_cells, parallel.total_arrived_cells);
}

TEST(Replication, MasterSeedChangesResults) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  const cm::ReplicationResult a = cm::run_replicated(model, config);
  config.master_seed = 999;
  const cm::ReplicationResult b = cm::run_replicated(model, config);
  EXPECT_NE(a.total_arrived_cells, b.total_arrived_cells);
}

TEST(Replication, TalliesAreConsistent) {
  const cf::ModelSpec model = cf::make_ar1(0.9);
  const cm::ReplicationConfig config = small_config();
  const cm::ReplicationResult result = cm::run_replicated(model, config);
  EXPECT_EQ(result.total_frames,
            config.replications * config.frames_per_replication);
  // Zero buffer loses at least as much as the 500-cell buffer.
  EXPECT_GE(result.clr[0].pooled_clr, result.clr[1].pooled_clr);
  // Pooled and replication-mean estimates agree (equal-sized reps).
  for (const auto& est : result.clr) {
    EXPECT_NEAR(est.pooled_clr, est.clr.mean,
                1e-9 + 0.01 * std::max(est.pooled_clr, est.clr.mean));
  }
  // Mean arrived cells per frame ~ N * mu.
  EXPECT_NEAR(result.total_arrived_cells /
                  static_cast<double>(result.total_frames),
              10 * 500.0, 25.0);
}

TEST(Replication, ConfidenceIntervalsArePopulated) {
  const cf::ModelSpec model = cf::make_ar1(0.9);
  const cm::ReplicationResult result =
      cm::run_replicated(model, small_config());
  EXPECT_EQ(result.clr[0].clr.samples, 4u);
  EXPECT_GT(result.clr[0].clr.half_width, 0.0);
  EXPECT_GT(result.bop[0].bop.mean, 0.0);
}

TEST(Replication, RejectsBadConfig) {
  const cf::ModelSpec model = cf::make_ar1(0.5);
  cm::ReplicationConfig config = small_config();
  config.replications = 0;
  EXPECT_THROW(cm::run_replicated(model, config), cu::InvalidArgument);
  config = small_config();
  config.n_sources = 0;
  EXPECT_THROW(cm::run_replicated(model, config), cu::InvalidArgument);
}

TEST(ReplicationScales, PresetsAndEnvOverrides) {
  EXPECT_EQ(cm::paper_scale().replications, 60u);
  EXPECT_EQ(cm::paper_scale().frames_per_replication, 500000u);
  EXPECT_LT(cm::default_scale().replications,
            cm::paper_scale().replications);

  ::setenv("REPRO_REPS", "3", 1);
  ::setenv("REPRO_FRAMES", "777", 1);
  const cm::ReplicationConfig config =
      cm::apply_env_overrides(cm::default_scale());
  EXPECT_EQ(config.replications, 3u);
  EXPECT_EQ(config.frames_per_replication, 777u);
  ::unsetenv("REPRO_REPS");
  ::unsetenv("REPRO_FRAMES");

  ::setenv("REPRO_FULL", "1", 1);
  const cm::ReplicationConfig full =
      cm::apply_env_overrides(cm::default_scale());
  EXPECT_EQ(full.replications, 60u);
  ::unsetenv("REPRO_FULL");
}

// The pool is not clamped to the slice: threads with no replication left
// share the others' source fills, and sim.threads reports the real pool.
TEST(Replication, PoolLargerThanTheSliceIsReportedAndInvariant) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.replications = 2;
  config.progress = false;
  config.threads = 1;
  const cm::ReplicationResult serial = cm::run_replicated(model, config);
  config.threads = 5;
  const cm::ReplicationResult pooled = cm::run_replicated(model, config);
  EXPECT_EQ(cts::obs::MetricsRegistry::global()
                .snapshot()
                .gauges()
                .at("sim.threads")
                .value,
            5.0);
  ASSERT_EQ(pooled.samples.size(), serial.samples.size());
  for (std::size_t r = 0; r < serial.samples.size(); ++r) {
    EXPECT_EQ(std::memcmp(&pooled.samples[r].run.arrived_cells,
                          &serial.samples[r].run.arrived_cells,
                          sizeof(double)),
              0);
    for (std::size_t i = 0; i < serial.clr.size(); ++i) {
      EXPECT_EQ(std::memcmp(&pooled.samples[r].run.clr[i].lost_cells,
                            &serial.samples[r].run.clr[i].lost_cells,
                            sizeof(double)),
                0);
    }
  }
}

// Many tiny replications on 8 threads, again and again: chunks open and
// close constantly, so a helper that touched a chunk after its owner
// returned would show here (and under ThreadSanitizer).
TEST(Replication, ManyTinyReplicationsOnEightThreadsStress) {
  const cf::ModelSpec model = cf::make_ar1(0.7);
  cm::ReplicationConfig config = small_config();
  config.replications = 40;
  config.frames_per_replication = 300;
  config.warmup_frames = 7;
  config.n_sources = 12;
  config.capacity_cells = 12 * 515.0;
  config.progress = false;
  config.threads = 1;
  const cm::ReplicationResult reference = cm::run_replicated(model, config);
  config.threads = 8;
  for (int round = 0; round < 15; ++round) {
    const cm::ReplicationResult got = cm::run_replicated(model, config);
    ASSERT_EQ(got.samples.size(), reference.samples.size());
    for (std::size_t r = 0; r < got.samples.size(); ++r) {
      ASSERT_EQ(std::memcmp(&got.samples[r].run.arrived_cells,
                            &reference.samples[r].run.arrived_cells,
                            sizeof(double)),
                0)
          << "round " << round << " rep " << r;
      ASSERT_EQ(got.samples[r].run.clr[0].loss_frames,
                reference.samples[r].run.clr[0].loss_frames);
    }
  }
}

// A fill that throws on a helper thread is rethrown by the chunk's owner,
// and a body that throws releases the helpers: the pool always joins and
// run_replication_slice rethrows the first failure.
TEST(Replication, FailuresReleaseThePool) {
  for (int round = 0; round < 10; ++round) {
    cm::SliceDriverConfig driver;
    driver.replications = 6;
    driver.threads = 4;
    driver.progress = false;
    EXPECT_THROW(
        cm::run_replication_slice(
            driver,
            [&](std::size_t rep, std::size_t, cts::obs::ProgressReporter&,
                cm::FillBoard& board) {
              auto sources = failing_row(rep * 100, rep == 2 ? 7 : 99);
              cm::FluidRunConfig run;
              run.frames = 1000;
              run.warmup_frames = 0;
              run.capacity_cells = 10 * 520.0;
              run.buffer_sizes_cells = {100.0};
              run.fills = &board;
              (void)cm::FluidMux::run(sources, run);
            }),
        std::runtime_error);
    EXPECT_THROW(
        cm::run_replication_slice(
            driver,
            [&](std::size_t rep, std::size_t, cts::obs::ProgressReporter&,
                cm::FillBoard& board) {
              auto sources = failing_row(rep * 100, 99);
              cm::FluidRunConfig run;
              run.frames = 600;
              run.warmup_frames = 0;
              run.capacity_cells = 10 * 520.0;
              run.fills = &board;
              (void)cm::FluidMux::run(sources, run);
              if (rep == 1) throw cu::InvalidArgument("body failed");
            }),
        cu::InvalidArgument);
  }
}

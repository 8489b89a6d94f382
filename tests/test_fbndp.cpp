// Unit tests for the FBNDP frame source.

#include "cts/proc/fbndp.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "cts/fit/fbndp_calibration.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/stats/acf.hpp"
#include "cts/util/accumulator.hpp"
#include "cts/util/error.hpp"

namespace cp = cts::proc;
namespace cf = cts::fit;
namespace cu = cts::util;

namespace {

/// The Z^a FBNDP component of the paper (Table 1): mu = 250, sigma^2 = 2500,
/// alpha = 0.8, M = 15, Ts = 40 ms.
cp::FbndpParams paper_component() {
  cf::FbndpTarget target;
  target.mean = 250.0;
  target.variance = 2500.0;
  target.alpha = 0.8;
  target.M = 15;
  target.Ts = 0.04;
  return cf::calibrate_fbndp(target);
}

}  // namespace

TEST(FbndpParams, ValidatesRanges) {
  cp::FbndpParams p = paper_component();
  EXPECT_NO_THROW(p.validate());
  p.alpha = 1.5;
  EXPECT_THROW(p.validate(), cu::InvalidArgument);
  p = paper_component();
  p.M = 0;
  EXPECT_THROW(p.validate(), cu::InvalidArgument);
  p = paper_component();
  p.R = -1.0;
  EXPECT_THROW(p.validate(), cu::InvalidArgument);
}

TEST(FbndpParams, RejectsNonFiniteScales) {
  // An infinite frame window would never finish advancing the ON/OFF
  // processes, so next_frame would never return.
  const double inf = std::numeric_limits<double>::infinity();
  for (double cp::FbndpParams::*field :
       {&cp::FbndpParams::Ts, &cp::FbndpParams::R, &cp::FbndpParams::A}) {
    for (const double bad : {inf, std::numeric_limits<double>::quiet_NaN()}) {
      cp::FbndpParams p = paper_component();
      p.*field = bad;
      EXPECT_THROW(p.validate(), cu::InvalidArgument) << bad;
      EXPECT_THROW(cp::FbndpSource(p, 1), cu::InvalidArgument) << bad;
    }
  }
}

TEST(FbndpSource, FlushesSojournCountOnDestruction) {
  // The source's ON/OFF processes take their stream from the first split of
  // the seed's generator; a bare FractalBinomialNoise on the same split
  // makes the same transitions over the same frame windows.
  const cp::FbndpParams p = paper_component();
  const std::uint64_t seed = 11;
  auto& registry = cts::obs::MetricsRegistry::global();
  const std::uint64_t frames_before = registry.counter("proc.fbndp.frames");
  const std::uint64_t before = registry.counter("proc.fbndp.sojourns");
  const int frames = 300;
  {
    cp::FbndpSource source(p, seed);
    for (int i = 0; i < frames; ++i) source.next_frame();
  }
  cu::Xoshiro256pp rng(seed);
  cp::FractalBinomialNoise fbn(cp::OnOffParams{p.alpha, p.A}, p.M,
                               rng.split());
  for (int i = 0; i < frames; ++i) fbn.aggregate_on_time(p.Ts);
  EXPECT_GT(fbn.sojourns_drawn(), 0u);
  EXPECT_EQ(registry.counter("proc.fbndp.sojourns") - before,
            fbn.sojourns_drawn());
  EXPECT_EQ(registry.counter("proc.fbndp.frames") - frames_before,
            static_cast<std::uint64_t>(frames));
}

TEST(FbndpParams, DerivedStatisticsMatchPaper) {
  const cp::FbndpParams p = paper_component();
  EXPECT_NEAR(p.hurst(), 0.9, 1e-12);
  EXPECT_NEAR(p.lambda(), 6250.0, 1e-6);            // Table 1 row Z^a
  EXPECT_NEAR(p.fractal_onset_time() * 1000.0, 2.57, 0.01);  // T0 ~ 2.57 ms
  EXPECT_NEAR(p.frame_mean(), 250.0, 1e-9);
  EXPECT_NEAR(p.frame_variance(), 2500.0, 1e-6);
}

TEST(FbndpParams, AcfWeightIsOneMinusMeanOverVariance) {
  // w = Ts^a/(Ts^a + T0^a) with T0 from the moment calibration collapses
  // to 1 - mu/sigma^2 -- a nontrivial identity worth pinning down.
  const cp::FbndpParams p = paper_component();
  EXPECT_NEAR(p.acf_weight(), 1.0 - 250.0 / 2500.0, 1e-9);
}

TEST(FbndpParams, AcfDecaysAsPowerLaw) {
  const cp::FbndpParams p = paper_component();
  // r(k) ~ w H(2H-1) k^{2H-2}; ratio test at large lags.
  const double r100 = p.acf(100);
  const double r400 = p.acf(400);
  EXPECT_NEAR(r400 / r100, std::pow(4.0, 2.0 * p.hurst() - 2.0), 1e-3);
  EXPECT_DOUBLE_EQ(p.acf(0), 1.0);
  EXPECT_GT(p.acf(1), p.acf(2));
  EXPECT_GT(p.acf(2), p.acf(10));
}

TEST(FbndpSource, FrameMomentsMatchAnalytic) {
  // LRD sample means converge at rate n^{H-1} (n^{-0.1} here!), so one long
  // run cannot pin the mean: pool 32 independent sources instead, which
  // divides the standard error by sqrt(32).  Expected sd of the pooled mean
  // ~ sqrt(w sigma^2) * frames^{H-1} / sqrt(sources) ~ 2.7 cells.
  const cp::FbndpParams p = paper_component();
  cu::MomentAccumulator acc;
  const int frames = 40000;
  for (int s = 0; s < 24; ++s) {
    cp::FbndpSource source(p, 42 + static_cast<std::uint64_t>(s));
    for (int i = 0; i < frames; ++i) acc.add(source.next_frame());
  }
  EXPECT_NEAR(acc.mean(), p.frame_mean(), 14.0);  // ~4 sigma
  EXPECT_NEAR(acc.variance(), p.frame_variance(),
              0.25 * p.frame_variance());
}

TEST(FbndpSource, EmpiricalAcfMatchesAnalytic) {
  // The deepest link in the model chain: the simulated FBNDP frame counts
  // must carry the analytic ACF r(k) = w * (1/2) grad^2(k^{alpha+1}).
  // Average the ACF estimate over independent sources (single-path LRD
  // estimates are biased low by the unknown-mean correction).
  const cp::FbndpParams p = paper_component();
  const int sources = 12;
  const int frames = 30000;
  std::vector<double> mean_acf(9, 0.0);
  for (int s = 0; s < sources; ++s) {
    cp::FbndpSource source(p, 900 + static_cast<std::uint64_t>(s));
    std::vector<double> trace(frames);
    for (auto& x : trace) x = source.next_frame();
    const std::vector<double> r = cts::stats::autocorrelation(trace, 8);
    for (std::size_t k = 0; k <= 8; ++k) mean_acf[k] += r[k];
  }
  for (auto& r : mean_acf) r /= sources;
  // The unknown-mean ACF estimator carries a common negative bias of order
  // n^{2H-2} (~0.05-0.1 at this length for H = 0.9) at every lag; allow it
  // in the absolute check and verify the lag-to-lag SHAPE tightly.
  for (std::size_t k = 1; k <= 8; ++k) {
    EXPECT_NEAR(mean_acf[k], p.acf(k), 0.09) << "lag " << k;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    const double shape = mean_acf[k] - mean_acf[k + 1];
    const double expected = p.acf(k) - p.acf(k + 1);
    EXPECT_NEAR(shape, expected, 0.02) << "lag step " << k;
  }
}

TEST(FbndpSource, FramesAreNonNegativeCounts) {
  cp::FbndpSource source(paper_component(), 7);
  for (int i = 0; i < 10000; ++i) {
    const double x = source.next_frame();
    ASSERT_GE(x, 0.0);
    ASSERT_DOUBLE_EQ(x, std::floor(x));  // integer counts
  }
}

TEST(FbndpSource, CloneIsIndependentAndDeterministic) {
  const cp::FbndpParams p = paper_component();
  cp::FbndpSource source(p, 1);
  auto clone_a = source.clone(99);
  auto clone_b = source.clone(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(clone_a->next_frame(), clone_b->next_frame());
  }
}

TEST(FbndpSource, ReportsAnalyticMoments) {
  const cp::FbndpParams p = paper_component();
  cp::FbndpSource source(p, 3);
  EXPECT_DOUBLE_EQ(source.mean(), p.frame_mean());
  EXPECT_DOUBLE_EQ(source.variance(), p.frame_variance());
  EXPECT_NE(source.name().find("FBNDP"), std::string::npos);
}

// Unit tests for the fractal ON/OFF renewal process.

#include "cts/proc/on_off.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cts/core/simd.hpp"
#include "cts/util/error.hpp"

namespace cp = cts::proc;
namespace cu = cts::util;

namespace {

cp::OnOffParams params(double alpha = 0.8, double a = 0.01) {
  cp::OnOffParams p;
  p.alpha = alpha;
  p.A = a;
  return p;
}

}  // namespace

TEST(OnOffParams, ValidatesRanges) {
  EXPECT_THROW(params(0.0).validate(), cu::InvalidArgument);
  EXPECT_THROW(params(1.0).validate(), cu::InvalidArgument);
  EXPECT_THROW(params(0.8, 0.0).validate(), cu::InvalidArgument);
  EXPECT_NO_THROW(params().validate());
}

TEST(OnOffParams, SurvivalIsContinuousAtCrossover) {
  const cp::OnOffParams p = params();
  const double eps = 1e-9;
  const double left = p.sojourn_survival(p.A - eps);
  const double right = p.sojourn_survival(p.A + eps);
  EXPECT_NEAR(left, right, 1e-6);
  // And matches the closed forms on each side.
  EXPECT_NEAR(p.sojourn_survival(p.A / 2),
              std::exp(-p.gamma() * 0.5), 1e-12);
  EXPECT_NEAR(p.sojourn_survival(2 * p.A),
              std::exp(-p.gamma()) * std::pow(0.5, p.gamma()), 1e-12);
}

TEST(OnOffParams, SurvivalBoundaries) {
  const cp::OnOffParams p = params();
  EXPECT_DOUBLE_EQ(p.sojourn_survival(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.sojourn_survival(-1.0), 1.0);
  EXPECT_LT(p.sojourn_survival(1000.0 * p.A), 1e-3);
}

TEST(OnOffParams, SampledSojournsMatchSurvival) {
  // Empirical survival at a few quantiles vs the closed form.
  const cp::OnOffParams p = params();
  cu::Xoshiro256pp rng(123);
  const int n = 200000;
  const double probes[] = {p.A / 2, p.A, 3 * p.A, 10 * p.A};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < n; ++i) {
    const double t = p.sample_sojourn(rng);
    ASSERT_GT(t, 0.0);
    for (int j = 0; j < 4; ++j) {
      if (t > probes[j]) ++counts[j];
    }
  }
  for (int j = 0; j < 4; ++j) {
    const double expected = p.sojourn_survival(probes[j]);
    const double observed = static_cast<double>(counts[j]) / n;
    EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected / n) + 1e-3)
        << "probe " << j;
  }
}

TEST(OnOffParams, KernelSojournsMatchSurvival) {
  // The same quantile check on the path the simulator runs: batched
  // uniforms through core::simd::fractal_sojourns on the dispatched tier,
  // at the V^v law (alpha = 0.9, V^1.5's A ~ 1.5e-5 s) and the Z^a law
  // (alpha = 0.8, calibrated A ~ 1.8e-3 s).
  for (const cp::OnOffParams& p : {params(0.9, 1.5e-5), params(0.8, 1.8e-3)}) {
    cu::Xoshiro256pp rng(123);
    const std::size_t n = 200000;
    std::vector<double> u(n), t(n);
    for (auto& x : u) x = rng.uniform01();
    cts::core::simd::fractal_sojourns(cts::core::simd::active(), u.data(),
                                      t.data(), n, p.sojourn_consts());
    const double probes[] = {p.A / 2, p.A, 3 * p.A, 10 * p.A, 100 * p.A};
    int counts[5] = {0, 0, 0, 0, 0};
    for (const double x : t) {
      ASSERT_GE(x, 0.0);
      for (int j = 0; j < 5; ++j) {
        if (x > probes[j]) ++counts[j];
      }
    }
    for (int j = 0; j < 5; ++j) {
      const double expected = p.sojourn_survival(probes[j]);
      const double observed = static_cast<double>(counts[j]) / n;
      EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected / n) + 1e-3)
          << "alpha " << p.alpha << " probe " << j;
    }
  }
}

TEST(OnOffParams, KernelSojournMeanMatchesClosedForm) {
  const cp::OnOffParams p = params();
  cu::Xoshiro256pp rng(77);
  const std::size_t n = 2000000;
  std::vector<double> u(n), t(n);
  for (auto& x : u) x = rng.uniform01();
  cts::core::simd::fractal_sojourns(cts::core::simd::active(), u.data(),
                                    t.data(), n, p.sojourn_consts());
  double sum = 0.0;
  for (const double x : t) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(n), p.mean_sojourn(),
              0.15 * p.mean_sojourn());
}

TEST(OnOffParams, SampledSojournMeanMatchesClosedForm) {
  const cp::OnOffParams p = params();
  cu::Xoshiro256pp rng(77);
  // gamma = 1.2: the mean converges slowly (infinite variance), so use a
  // large sample and a loose tolerance.
  const int n = 2000000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += p.sample_sojourn(rng);
  EXPECT_NEAR(sum / n, p.mean_sojourn(), 0.15 * p.mean_sojourn());
}

TEST(OnOffParams, EquilibriumResidualIsPositiveAndHeavy) {
  const cp::OnOffParams p = params();
  cu::Xoshiro256pp rng(5);
  double max_seen = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double t = p.sample_equilibrium_residual(rng);
    ASSERT_GT(t, 0.0);
    max_seen = std::max(max_seen, t);
  }
  // The equilibrium residual of a gamma<2 sojourn is very heavy-tailed;
  // 1e5 draws should produce excursions far above the mean sojourn.
  EXPECT_GT(max_seen, 20.0 * p.mean_sojourn());
}

TEST(FractalOnOff, OnTimeBounds) {
  cp::FractalOnOff source(params(), cu::Xoshiro256pp(9));
  for (int i = 0; i < 1000; ++i) {
    const double on = source.on_time_in(0.04);
    ASSERT_GE(on, 0.0);
    ASSERT_LE(on, 0.04 + 1e-12);
  }
}

TEST(FractalOnOff, EnsembleOnFractionIsHalf) {
  // ON and OFF sojourns are identically distributed, so the stationary ON
  // fraction is 1/2.  A SINGLE path does not show this in finite time: the
  // equilibrium residual has infinite mean (gamma < 2), so a few-percent
  // fraction of paths spend the whole horizon inside their initial
  // sojourn.  Average over an ensemble instead -- exactly why the paper
  // runs 60 replications.
  double on_total = 0.0;
  const int processes = 400;
  const int windows = 2000;
  const double dt = 0.04;
  for (int p = 0; p < processes; ++p) {
    cp::FractalOnOff source(params(),
                            cu::Xoshiro256pp(31 + static_cast<unsigned>(p)));
    for (int i = 0; i < windows; ++i) on_total += source.on_time_in(dt);
  }
  EXPECT_NEAR(on_total / (static_cast<double>(processes) * windows * dt),
              0.5, 0.03);
}

TEST(FractalOnOff, ZeroWindowConsumesNothing) {
  cp::FractalOnOff source(params(), cu::Xoshiro256pp(2));
  const bool was_on = source.is_on();
  EXPECT_DOUBLE_EQ(source.on_time_in(0.0), 0.0);
  EXPECT_EQ(source.is_on(), was_on);
}

TEST(FractalOnOff, WindowsMatchOneDrawAtATimeReference) {
  // The ring only batches the draws: the source's stream feeds nothing but
  // its sojourns, so a reference loop that takes one uniform per sojourn
  // from a copy of the stream and maps it through the scalar kernel
  // reproduces every window exactly, whatever the ring size and the tier.
  const cp::OnOffParams p = params(0.9, 1.5e-5);
  const cu::Xoshiro256pp stream(2024);
  cp::FractalOnOff source(p, stream);
  cu::Xoshiro256pp rng = stream;
  bool on = rng.uniform01() < 0.5;
  double residual = p.sample_equilibrium_residual(rng);
  const cts::core::simd::SojournConsts consts = p.sojourn_consts();
  std::uint64_t drawn = 0;
  for (int w = 0; w < 400; ++w) {
    const double dt = 1e-4 * static_cast<double>(1 + w % 7);
    double on_time = 0.0;
    double remaining = dt;
    while (remaining > 0.0) {
      if (residual > remaining) {
        if (on) on_time += remaining;
        residual -= remaining;
        break;
      }
      if (on) on_time += residual;
      remaining -= residual;
      on = !on;
      const double u = rng.uniform01();
      cts::core::simd::fractal_sojourns(cts::core::simd::Kind::kScalar, &u,
                                        &residual, 1, consts);
      ++drawn;
    }
    ASSERT_EQ(source.on_time_in(dt), on_time) << "window " << w;
    ASSERT_EQ(source.is_on(), on) << "window " << w;
  }
  EXPECT_EQ(source.sojourns_drawn(), drawn);
  EXPECT_GT(drawn, 2000u);  // dozens of ring refills
}

// Unit tests for the DAR(p) process.

#include "cts/proc/dar.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cts/obs/metrics.hpp"
#include "cts/stats/acf.hpp"
#include "cts/util/accumulator.hpp"
#include "cts/util/error.hpp"

namespace cp = cts::proc;
namespace cs = cts::stats;
namespace cu = cts::util;

namespace {

cp::DarParams dar1(double rho) {
  cp::DarParams p;
  p.rho = rho;
  p.lag_probs = {1.0};
  p.mean = 500.0;
  p.variance = 5000.0;
  return p;
}

/// DAR(p) exactly as first written: double compares of uniform01() draws,
/// a sequential lag search and a `%`-wrapped ring.  DarSource must emit
/// the same frames bit for bit, through next_frame and fill alike.
class ReferenceDar {
 public:
  ReferenceDar(const cp::DarParams& params, std::uint64_t seed)
      : params_(params), rng_(seed), history_(params.lag_probs.size()) {
    double cum = 0.0;
    for (const double a : params.lag_probs) {
      cum += a;
      lag_cdf_.push_back(cum);
    }
    lag_cdf_.back() = 1.0;
    for (auto& h : history_) h = innovation();
  }

  double next_frame() {
    const std::size_t p = history_.size();
    double value;
    if (rng_.uniform01() < params_.rho) {
      const double u = rng_.uniform01();
      std::size_t lag_index = 0;
      while (lag_index + 1 < p && u > lag_cdf_[lag_index]) ++lag_index;
      value = history_[(head_ + lag_index) % p];
    } else {
      value = innovation();
    }
    head_ = (head_ + p - 1) % p;
    history_[head_] = value;
    return value;
  }

 private:
  double innovation() {
    return params_.mean + std::sqrt(params_.variance) * normal_(rng_);
  }

  cp::DarParams params_;
  cu::Xoshiro256pp rng_;
  cu::NormalSampler normal_;
  std::vector<double> history_;
  std::size_t head_ = 0;
  std::vector<double> lag_cdf_;
};

cp::DarParams with_lags(double rho, std::vector<double> lag_probs) {
  cp::DarParams p = dar1(rho);
  p.lag_probs = std::move(lag_probs);
  return p;
}

/// Reads a DarSource through fill blocks of every length around p and the
/// 256-frame row, one next_frame after each, against the reference.
void expect_matches_reference(const cp::DarParams& params,
                              const std::string& what) {
  SCOPED_TRACE(what);
  const std::size_t p = params.order();
  for (const std::uint64_t seed : {3ULL, 0xDA2ULL}) {
    cp::DarSource source(params, seed);
    ReferenceDar reference(params, seed);
    std::size_t frame = 0;
    for (const std::size_t n : {std::size_t{1}, p - 1, p, p + 1,
                                std::size_t{2}, std::size_t{256},
                                std::size_t{257}, std::size_t{3}}) {
      std::vector<double> got(n + 1);
      source.fill(got.data(), n);
      got[n] = source.next_frame();
      for (const double x : got) {
        const double want = reference.next_frame();
        ASSERT_EQ(std::memcmp(&x, &want, sizeof x), 0)
            << "seed " << seed << ", frame " << frame << ", block " << n;
        ++frame;
      }
    }
  }
}

}  // namespace

TEST(DarParams, Validation) {
  EXPECT_NO_THROW(dar1(0.8).validate());
  EXPECT_THROW(dar1(1.0).validate(), cu::InvalidArgument);
  EXPECT_THROW(dar1(-0.1).validate(), cu::InvalidArgument);
  cp::DarParams p = dar1(0.5);
  p.lag_probs = {0.5, 0.4};  // does not sum to 1
  EXPECT_THROW(p.validate(), cu::InvalidArgument);
  p.lag_probs.clear();
  EXPECT_THROW(p.validate(), cu::InvalidArgument);
}

TEST(DarParams, Dar1AcfIsGeometric) {
  const cp::DarParams p = dar1(0.8);
  const std::vector<double> r = p.acf(10);
  for (std::size_t k = 0; k <= 10; ++k) {
    EXPECT_NEAR(r[k], std::pow(0.8, static_cast<double>(k)), 1e-12);
  }
}

TEST(DarParams, DarPAcfSatisfiesRecursionBeyondP) {
  cp::DarParams p;
  p.rho = 0.87;
  p.lag_probs = {0.7, 0.3};
  p.mean = 0.0;
  p.variance = 1.0;
  const std::vector<double> r = p.acf(50);
  for (std::size_t k = 3; k <= 50; ++k) {
    EXPECT_NEAR(r[k], p.rho * (0.7 * r[k - 1] + 0.3 * r[k - 2]), 1e-12);
  }
  // And the implicit first lags satisfy it too (with symmetric extension).
  EXPECT_NEAR(r[1], p.rho * (0.7 * r[0] + 0.3 * r[1]), 1e-10);
  EXPECT_NEAR(r[2], p.rho * (0.7 * r[1] + 0.3 * r[0]), 1e-10);
}

TEST(DarSource, MarginalMatchesInnovations) {
  const cp::DarParams p = dar1(0.9);
  cp::DarSource source(p, 11);
  cu::MomentAccumulator acc;
  for (int i = 0; i < 300000; ++i) acc.add(source.next_frame());
  // DAR marginal equals the innovation marginal; strong correlation slows
  // convergence, hence the loose-ish tolerances.
  EXPECT_NEAR(acc.mean(), 500.0, 5.0);
  EXPECT_NEAR(acc.variance(), 5000.0, 500.0);
}

TEST(DarSource, EmpiricalAcfMatchesAnalytic) {
  const cp::DarParams p = dar1(0.7);
  cp::DarSource source(p, 23);
  std::vector<double> trace(200000);
  for (auto& x : trace) x = source.next_frame();
  const std::vector<double> r = cs::autocorrelation(trace, 10);
  const std::vector<double> expected = p.acf(10);
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(r[k], expected[k], 0.02) << "lag " << k;
  }
}

TEST(DarSource, Dar2EmpiricalAcfMatchesAnalytic) {
  cp::DarParams p;
  p.rho = 0.87;
  p.lag_probs = {0.7, 0.3};
  p.mean = 500.0;
  p.variance = 5000.0;
  cp::DarSource source(p, 37);
  std::vector<double> trace(300000);
  for (auto& x : trace) x = source.next_frame();
  const std::vector<double> r = cs::autocorrelation(trace, 6);
  const std::vector<double> expected = p.acf(6);
  for (std::size_t k = 1; k <= 6; ++k) {
    EXPECT_NEAR(r[k], expected[k], 0.03) << "lag " << k;
  }
}

TEST(DarSource, RepeatsComeFromHistory) {
  // With rho = 1 - epsilon the process should hold values for long runs.
  const cp::DarParams p = dar1(0.99);
  cp::DarSource source(p, 3);
  int repeats = 0;
  double prev = source.next_frame();
  for (int i = 0; i < 10000; ++i) {
    const double x = source.next_frame();
    if (x == prev) ++repeats;
    prev = x;
  }
  EXPECT_GT(repeats, 9500);
}

TEST(DarSource, CloneDeterminism) {
  const cp::DarParams p = dar1(0.8);
  cp::DarSource source(p, 1);
  auto a = source.clone(1234);
  auto b = source.clone(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a->next_frame(), b->next_frame());
  }
}

TEST(DarSource, NameReportsOrder) {
  cp::DarParams p;
  p.rho = 0.5;
  p.lag_probs = {0.5, 0.3, 0.2};
  cp::DarSource source(p, 1);
  EXPECT_EQ(source.name(), "DAR(3)");
}

TEST(DarSource, MatchesTheDoubleCompareReference) {
  expect_matches_reference(dar1(0.975), "DAR(1)");
  expect_matches_reference(with_lags(0.9, {0.7, 0.3}), "DAR(2)");
  expect_matches_reference(with_lags(0.975, {0.5, 0.3, 0.2}), "DAR(3)");
  expect_matches_reference(with_lags(0.8, {0.1, 0.2, 0.3, 0.4}), "DAR(4)");
  expect_matches_reference(with_lags(0.95, {0.2, 0.2, 0.2, 0.2, 0.2}),
                           "DAR(5)");
  // Lag 2 is never picked: a draw above 0.5 passes both of its thresholds.
  expect_matches_reference(with_lags(0.9, {0.5, 0.0, 0.5}), "zero entry");
  // validate() accepts a_i >= -1e-12, so the cumulative sums may dip.
  expect_matches_reference(with_lags(0.9, {0.6, -1e-13, 0.4 + 1e-13}),
                           "negative entry");
  expect_matches_reference(with_lags(0.9, {-1e-13, 0.5, 0.5 + 1e-13}),
                           "negative first entry");
  expect_matches_reference(with_lags(0.0, {0.5, 0.5}), "rho = 0");
  // 0.75 * 2^53 is an integer: the repeat threshold sits exactly on a draw.
  expect_matches_reference(with_lags(0.75, {0.25, 0.75}), "rho = 0.75");
}

TEST(DarSource, RhoZeroNeverRepeats) {
  cp::DarSource source(dar1(0.0), 5);
  std::vector<double> row(300);
  source.fill(row.data(), row.size());
  for (std::size_t i = 1; i < row.size(); ++i) {
    EXPECT_NE(row[i], row[i - 1]) << "frame " << i;
  }
}

TEST(DarSource, ThresholdsAgreeWithTheDoubleCompare) {
  constexpr std::int64_t kTop = (std::int64_t{1} << 53) - 1;
  const auto u_of = [](std::int64_t k) {
    return static_cast<double>(k) * 0x1.0p-53;
  };
  for (const double c : {-1e-12, -1e-13, -0x1.0p-53, 0.0, 0x1.0p-60, 0.3,
                         0.75, 0.975, 1.0 - 0x1.0p-53, 1.0}) {
    SCOPED_TRACE(c);
    const double scaled = std::ldexp(c, 53);
    const auto lo = static_cast<std::int64_t>(std::floor(scaled));
    const auto hi = static_cast<std::int64_t>(std::ceil(scaled));
    for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}, lo - 1, lo,
                                 lo + 1, hi - 1, hi, hi + 1, kTop}) {
      if (k < 0 || k > kTop) continue;
      EXPECT_EQ(k > cp::DarSource::lag_threshold(c), u_of(k) > c)
          << "k = " << k;
      if (c < 0.0) continue;
      EXPECT_EQ(static_cast<std::uint64_t>(k) <
                    cp::DarSource::repeat_threshold(c),
                u_of(k) < c)
          << "k = " << k;
    }
  }
  EXPECT_EQ(cp::DarSource::repeat_threshold(0.0), 0u);
  EXPECT_EQ(cp::DarSource::repeat_threshold(0.75),
            std::uint64_t{3} << 51);  // exactly 0.75 * 2^53
}

TEST(DarSource, LagIndexEqualsTheSequentialSearch) {
  // At every draw next to a threshold, counting the thresholds exceeded
  // gives the index where the sequential search over the raw cumulative
  // sums stops, dips from negative entries included.
  for (const std::vector<double>& lags :
       std::vector<std::vector<double>>{{1.0},
                                        {0.7, 0.3},
                                        {0.5, 0.0, 0.5},
                                        {0.6, -1e-13, 0.4 + 1e-13},
                                        {-1e-13, 0.5, 0.5 + 1e-13},
                                        {0.2, -1e-12, 1e-12, 0.3, 0.5}}) {
    const std::vector<std::int64_t> thresholds =
        cp::DarSource::lag_thresholds(lags);
    ASSERT_EQ(thresholds.size(), lags.size() - 1);
    std::vector<double> cdf;
    double cum = 0.0;
    for (const double a : lags) cdf.push_back(cum += a);
    for (const double c : cdf) {
      const auto mid = static_cast<std::int64_t>(std::ldexp(c, 53));
      for (std::int64_t k = mid - 2; k <= mid + 2; ++k) {
        if (k < 0) continue;
        const double u = static_cast<double>(k) * 0x1.0p-53;
        std::size_t search = 0;
        while (search + 1 < lags.size() && u > cdf[search]) ++search;
        const auto count = static_cast<std::size_t>(std::count_if(
            thresholds.begin(), thresholds.end(),
            [k](std::int64_t t) { return k > t; }));
        EXPECT_EQ(count, search) << "lags of " << lags.size() << ", k " << k;
      }
    }
  }
}

TEST(DarSource, FlushesEveryFrameOnceOnDestruction) {
  auto& registry = cts::obs::MetricsRegistry::global();
  const std::uint64_t before = registry.counter("proc.dar.frames");
  {
    cp::DarSource source(with_lags(0.9, {0.5, 0.3, 0.2}), 17);
    std::vector<double> row(257);
    for (const std::size_t n : {1, 2, 3, 256, 257}) {
      source.fill(row.data(), n);
      source.next_frame();
    }
  }
  EXPECT_EQ(registry.counter("proc.dar.frames") - before,
            std::uint64_t{1 + 2 + 3 + 256 + 257 + 5});
}

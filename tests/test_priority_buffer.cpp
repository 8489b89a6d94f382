// Unit tests for CLP-aware partial buffer sharing: the two-class fluid
// policy of evolve_priority_frame, which the scenario executor's priority
// hops run, driven frame by frame over FrameSource arrivals.

#include "cts/atm/priority_buffer.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "cts/proc/ar1.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/util/error.hpp"

namespace ca = cts::atm;
namespace cp = cts::proc;
namespace cs = cts::sim;
namespace cu = cts::util;

namespace {

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

using Sources = std::vector<std::unique_ptr<cp::FrameSource>>;

Sources constant(double v) {
  Sources out;
  out.push_back(std::make_unique<ConstantSource>(v));
  return out;
}

Sources stochastic(int n, double phi, std::uint64_t seed) {
  cp::Ar1Params p;
  p.phi = phi;
  p.mean = 500.0;
  p.variance = 5000.0;
  Sources out;
  for (int i = 0; i < n; ++i) {
    out.push_back(std::make_unique<cp::Ar1Source>(
        p, seed + static_cast<std::uint64_t>(i)));
  }
  return out;
}

/// One priority hop of capacity `c`, buffer `b` and low-priority threshold
/// `s` (cells/frame): per-class tallies over `frames` frames after
/// `warmup` frames, and the end-of-run queue in `*q_end`.
ca::PrioritySharingResult run_hop(Sources& high, Sources& low,
                                  std::uint64_t frames, std::uint64_t warmup,
                                  double c, double b, double s,
                                  double* q_end = nullptr) {
  ca::PrioritySharingResult result;
  result.frames = frames;
  double q = 0.0;
  for (std::uint64_t n = 0; n < warmup + frames; ++n) {
    double ah = 0.0;
    for (auto& src : high) ah += std::max(src->next_frame(), 0.0);
    double al = 0.0;
    for (auto& src : low) al += std::max(src->next_frame(), 0.0);
    const ca::PriorityFrameOutcome out =
        ca::evolve_priority_frame(q, ah, al, c, s, b);
    q = out.q;
    if (n >= warmup) {
      result.high_arrived += ah;
      result.low_arrived += al;
      result.high_lost += out.high_lost;
      result.low_lost += out.low_lost;
    }
  }
  if (q_end != nullptr) *q_end = q;
  return result;
}

/// A two-class scenario whose one hop has the given capacity, buffer and
/// threshold (cells/frame).
std::string priority_spec(const std::string& capacity,
                          const std::string& buffer,
                          const std::string& threshold) {
  return "cts.scenario.v1\n"
         "[source hi]\n"
         "model = white\n"
         "[source lo]\n"
         "model = white\n"
         "priority = low\n"
         "[hop m]\n"
         "input = hi, lo\n"
         "capacity = " + capacity + "\n"
         "buffer = " + buffer + "\n"
         "threshold = " + threshold + "\n";
}

}  // namespace

TEST(PrioritySharing, ValidatesConfig) {
  // A priority hop's S, B and C are checked where a scenario declares
  // them, before evolve_priority_frame runs: 0 <= S <= B and C > 0.
  EXPECT_THROW(cs::parse_scenario(priority_spec("1200", "100", "101")),
               cu::InvalidArgument);
  EXPECT_THROW(cs::parse_scenario(priority_spec("1200", "100", "-1")),
               cu::InvalidArgument);
  EXPECT_THROW(cs::parse_scenario(priority_spec("0", "100", "50")),
               cu::InvalidArgument);
  // S = B (the single-class recursion) and S = 0 are both legal.
  for (const char* s : {"100", "0"}) {
    const cs::Scenario sc = cs::parse_scenario(priority_spec("1200", "100", s));
    ASSERT_EQ(sc.hops.size(), 1u);
    EXPECT_TRUE(sc.hops[0].priority()) << "S = " << s;
    EXPECT_DOUBLE_EQ(sc.hops[0].threshold_cells, std::stod(s));
  }
}

TEST(PrioritySharing, UnderloadLosesNothing) {
  Sources high = constant(200.0);
  Sources low = constant(200.0);
  const ca::PrioritySharingResult result =
      run_hop(high, low, 1000, 0, 500.0, 100.0, 50.0);
  EXPECT_DOUBLE_EQ(result.high_lost, 0.0);
  EXPECT_DOUBLE_EQ(result.low_lost, 0.0);
  EXPECT_DOUBLE_EQ(result.high_arrived, 200.0 * 1000);
}

TEST(PrioritySharing, SteadyOverloadDropsLowFirst) {
  // high 400 + low 300 into capacity 500: the 200 cells/frame excess must
  // come out of the LOW class while high passes untouched.
  Sources high = constant(400.0);
  Sources low = constant(300.0);
  const ca::PrioritySharingResult result =
      run_hop(high, low, 1000, 10, 500.0, 200.0, 100.0);
  EXPECT_DOUBLE_EQ(result.high_lost, 0.0);
  EXPECT_NEAR(result.low_clr(), 200.0 / 300.0, 0.01);
}

TEST(PrioritySharing, HighOverloadAloneLosesHigh) {
  Sources high = constant(700.0);
  Sources low = constant(0.0);
  const ca::PrioritySharingResult result =
      run_hop(high, low, 500, 10, 500.0, 100.0, 50.0);
  EXPECT_NEAR(result.high_clr(), 200.0 / 700.0, 0.01);
}

TEST(PrioritySharing, MatchesSingleClassRecursionWhenThresholdEqualsBuffer) {
  // With S = B and all traffic in one class, the dynamics must equal the
  // plain fluid recursion: cross-check losses against the closed pattern
  // from test_fluid_mux (600/400 alternating, C=500, B=50 -> 50 lost per
  // burst frame).
  class Alternator final : public cp::FrameSource {
   public:
    double next_frame() override {
      flip_ = !flip_;
      return flip_ ? 600.0 : 400.0;
    }
    double mean() const override { return 500.0; }
    double variance() const override { return 10000.0; }
    std::unique_ptr<cp::FrameSource> clone(std::uint64_t) const override {
      return std::make_unique<Alternator>();
    }
    std::string name() const override { return "alternator"; }

   private:
    bool flip_ = false;
  };
  Sources high;
  high.push_back(std::make_unique<Alternator>());
  Sources low = constant(0.0);
  const ca::PrioritySharingResult result =
      run_hop(high, low, 1000, 0, 500.0, 50.0, 50.0);
  EXPECT_NEAR(result.high_lost, 50.0 * 500, 100.0);
}

TEST(PrioritySharing, ThresholdTradesLowLossForHighProtection) {
  // Lowering S strictly protects the high class at the low class's expense.
  auto run_with_threshold = [&](double s) {
    Sources high = stochastic(10, 0.9, 100);
    Sources low = stochastic(10, 0.9, 900);
    return run_hop(high, low, 20000, 200, 20 * 515.0, 4000.0, s);
  };
  const ca::PrioritySharingResult tight = run_with_threshold(500.0);
  const ca::PrioritySharingResult loose = run_with_threshold(4000.0);
  EXPECT_LE(tight.high_clr(), loose.high_clr());
  EXPECT_GE(tight.low_clr(), loose.low_clr());
  // And with S = B both classes see (roughly) the shared-buffer loss.
  EXPECT_GT(loose.low_clr(), 0.0);
}

TEST(PrioritySharing, ConservationPerClass) {
  Sources high = stochastic(5, 0.8, 42);
  Sources low = stochastic(5, 0.8, 77);
  const double c = 10 * 505.0;
  const double b = 1000.0;
  double q_end = -1.0;
  const ca::PrioritySharingResult result =
      run_hop(high, low, 10000, 0, c, b, 400.0, &q_end);
  EXPECT_GE(result.high_lost, 0.0);
  EXPECT_GE(result.low_lost, 0.0);
  EXPECT_LE(result.high_lost, result.high_arrived);
  EXPECT_LE(result.low_lost, result.low_arrived);
  // Fluid balance: what was admitted either left at rate <= c or is still
  // queued, and the queue never exceeds B.
  EXPECT_GE(q_end, 0.0);
  EXPECT_LE(q_end, b);
  const double admitted = result.high_arrived - result.high_lost +
                          result.low_arrived - result.low_lost;
  EXPECT_LE(admitted - q_end, c * 10000 * (1.0 + 1e-12));
  // Low class suffers more under the shared threshold.
  EXPECT_GE(result.low_clr(), result.high_clr());
}

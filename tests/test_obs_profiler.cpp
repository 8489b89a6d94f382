// Span-path profiles (--profile / --profile-folded): the cts.profile.v1
// document and the collapsed-stack text written from the span table, with
// exact wall and thread-CPU self time per span path.

#include "cts/obs/span_stats.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include "cts/obs/json.hpp"
#include "cts/obs/trace.hpp"

namespace obs = cts::obs;

namespace {

// The span table and the recorder are process-wide state; every case
// starts and leaves them empty.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { TearDown(); }
  void TearDown() override {
    obs::SpanTable::global().reset();
    obs::TraceRecorder::global().disable();
    obs::TraceRecorder::global().reset();
  }
};

void spin_ms(int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  volatile double sink = 0.0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + 1e-9;
  }
}

std::map<std::string, obs::SpanPathAgg> folded() {
  std::map<std::string, obs::SpanPathAgg> out;
  for (obs::SpanPathAgg& p : obs::SpanTable::global().paths()) {
    out[p.path] = p;
  }
  return out;
}

// Nested spans on two threads show up as their own parent;child chains.
TEST_F(ProfilerTest, ThreadBackendCapturesNestedStacksAcrossThreads) {
  std::thread worker([] {
    obs::ScopedSpan outer("worker.outer");
    spin_ms(5);
    {
      obs::ScopedSpan inner("worker.inner");
      spin_ms(10);
    }
  });
  {
    obs::ScopedSpan main_span("main.work");
    spin_ms(15);
  }
  worker.join();

  const auto stacks = folded();
  ASSERT_EQ(stacks.size(), 3u);
  ASSERT_EQ(stacks.count("main.work"), 1u);
  ASSERT_EQ(stacks.count("worker.outer"), 1u);
  ASSERT_EQ(stacks.count("worker.outer;worker.inner"), 1u);
  EXPECT_GE(stacks.at("main.work").self_us, 15000);
  EXPECT_GE(stacks.at("worker.outer").self_us, 5000);
  EXPECT_GE(stacks.at("worker.outer;worker.inner").self_us, 10000);
}

// A reset while a span is open drops what was folded so far; the open
// span folds into the emptied table when it closes, and nesting stays
// balanced for the spans after it.
TEST_F(ProfilerTest, StopMidSpanStaysBalanced) {
  {
    obs::ScopedSpan span("half.open");
    { CTS_TRACE_SPAN("before.reset"); }
    obs::SpanTable::global().reset();
    { CTS_TRACE_SPAN("after.reset"); }
  }
  { CTS_TRACE_SPAN("fresh.span"); }
  const auto stacks = folded();
  ASSERT_EQ(stacks.size(), 3u);
  EXPECT_EQ(stacks.count("half.open"), 1u);
  EXPECT_EQ(stacks.count("half.open;after.reset"), 1u);
  EXPECT_EQ(stacks.count("fresh.span"), 1u);
}

TEST_F(ProfilerTest, FoldedTextAndJsonExports) {
  {
    obs::ScopedSpan span("export.work");
    spin_ms(2);
    {
      obs::ScopedSpan inner("export.inner");
      spin_ms(2);
    }
  }

  std::ostringstream folded_text;
  obs::SpanTable::global().write_folded(folded_text);
  EXPECT_NE(folded_text.str().find("export.work "), std::string::npos);
  EXPECT_NE(folded_text.str().find("export.work;export.inner "),
            std::string::npos);

  std::ostringstream json;
  obs::SpanTable::global().write_profile_json(json);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(json.str(), &error)) << error;
  const obs::JsonValue doc = obs::json_parse(json.str());
  EXPECT_EQ(doc.at("schema").as_string(), "cts.profile.v1");
  EXPECT_EQ(doc.at("backend").as_string(), "spans");
  EXPECT_EQ(doc.int_at("samples"), 2);
  EXPECT_EQ(doc.find("hz"), nullptr);
  EXPECT_EQ(doc.find("dropped"), nullptr);
  const auto stacks = folded();
  ASSERT_EQ(doc.at("stacks").size(), 2u);
  for (const obs::JsonValue& entry : doc.at("stacks").items) {
    const obs::SpanPathAgg& p = stacks.at(entry.at("stack").as_string());
    EXPECT_EQ(entry.int_at("count"), p.self_us);
    EXPECT_EQ(entry.int_at("cpu_us"), p.cpu_self_us);
    EXPECT_GE(p.self_us, 2000) << p.path;
  }
}

TEST_F(ProfilerTest, ProfilesWorkWithoutTracingEnabled) {
  ASSERT_FALSE(obs::TraceRecorder::global().enabled());
  {
    CTS_TRACE_SPAN("untraced.span");
    spin_ms(5);
  }
  EXPECT_EQ(folded().count("untraced.span"), 1u);
  // And no trace events were recorded (recorder stayed disabled).
  EXPECT_EQ(obs::TraceRecorder::global().event_count(), 0u);
}

// Thread-CPU self time counts what the span burned, not what it slept.
TEST_F(ProfilerTest, CpuSelfTimeCountsOnlyBurnedCpu) {
  {
    obs::ScopedSpan burn("cpu.burn");
    spin_ms(30);
  }
  {
    obs::ScopedSpan idle("cpu.idle");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  const auto stacks = folded();
  const obs::SpanPathAgg& burn = stacks.at("cpu.burn");
  const obs::SpanPathAgg& idle = stacks.at("cpu.idle");
  EXPECT_GT(burn.cpu_self_us, 1000);
  EXPECT_LE(burn.cpu_self_us, burn.total_us + 100);
  EXPECT_GE(idle.total_us, 30000);
  EXPECT_LT(idle.cpu_self_us, 10000);
}

}  // namespace

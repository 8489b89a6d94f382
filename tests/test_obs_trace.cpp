#include "cts/obs/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "cts/obs/json.hpp"

namespace obs = cts::obs;

namespace {

/// Resets the global recorder around each test (it is process-wide state).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::global().disable();
    obs::TraceRecorder::global().reset();
  }
  void TearDown() override {
    obs::TraceRecorder::global().disable();
    obs::TraceRecorder::global().reset();
  }
};

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  {
    CTS_TRACE_SPAN("should_not_appear");
  }
  EXPECT_EQ(obs::TraceRecorder::global().event_count(), 0u);
}

TEST_F(TraceTest, NestedSpansRecordContainedDurations) {
  obs::TraceRecorder::global().enable();
  {
    CTS_TRACE_SPAN("outer");
    {
      CTS_TRACE_SPAN("inner");
    }
  }
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close innermost-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].tid, events[1].tid);
  // The inner span starts no earlier and lasts no longer than the outer.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_GE(events[1].dur_us, events[0].dur_us);
}

TEST_F(TraceTest, SpansOnDifferentThreadsGetDistinctTids) {
  obs::TraceRecorder::global().enable();
  {
    CTS_TRACE_SPAN("main_thread");
  }
  std::thread worker([]() { obs::ScopedSpan span("worker_thread"); });
  worker.join();
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormed) {
  obs::TraceRecorder::global().enable();
  {
    obs::ScopedSpan span("phase \"quoted\"\n");  // name needing escapes
  }
  std::ostringstream os;
  obs::TraceRecorder::global().write_json(os);
  const std::string text = os.str();
  std::string error;
  EXPECT_TRUE(obs::json_parse_check(text, &error)) << error;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
}

TEST_F(TraceTest, EnableMidSpanDoesNotRecordHalfSpan) {
  // A span opened while disabled must not record even if the recorder is
  // enabled before it closes (it never captured a start time).
  {
    obs::ScopedSpan span("opened_disabled");
    obs::TraceRecorder::global().enable();
  }
  EXPECT_EQ(obs::TraceRecorder::global().event_count(), 0u);
}

TEST_F(TraceTest, WriteCreatesAParsableFile) {
  obs::TraceRecorder::global().enable();
  {
    CTS_TRACE_SPAN("to_file");
  }
  const std::string path =
      ::testing::TempDir() + "/cts_trace_test.json";
  ASSERT_TRUE(obs::TraceRecorder::global().write(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  EXPECT_TRUE(obs::json_parse_check(buffer.str(), &error)) << error;
}

}  // namespace

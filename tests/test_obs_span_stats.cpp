// Span-time attribution: every span folds into the path table as it
// closes.  Self time must equal the span's duration minus the durations of
// the spans directly nested in it on the same thread — exactly, in integer
// microseconds — and the roll-ups must group by name and by the name
// prefix before the first dot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cts/obs/json.hpp"
#include "cts/obs/perf.hpp"
#include "cts/obs/span_stats.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/file.hpp"

namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

/// The global table is process-wide state: every case starts it empty.
class AggregateSpans : public ::testing::Test {
 protected:
  void SetUp() override { obs::SpanTable::global().reset(); }
  void TearDown() override { obs::SpanTable::global().reset(); }
};

void spin_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

const obs::SpanPathAgg* find_path(const std::vector<obs::SpanPathAgg>& paths,
                                  const std::string& path) {
  for (const obs::SpanPathAgg& p : paths) {
    if (p.path == path) return &p;
  }
  return nullptr;
}

const obs::SpanAgg* find(const std::vector<obs::SpanAgg>& aggs,
                         const std::string& name) {
  for (const obs::SpanAgg& a : aggs) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

obs::SpanPathAgg path_agg(const char* path, const char* name,
                          std::uint64_t count, std::int64_t total,
                          std::int64_t self) {
  obs::SpanPathAgg p;
  p.path = path;
  p.name = name;
  p.count = count;
  p.total_us = total;
  p.self_us = self;
  p.min_us = total;
  p.max_us = total;
  return p;
}

TEST(SpanPhase, PrefixBeforeFirstDot) {
  EXPECT_EQ(obs::span_phase("fluid_mux.run"), "fluid_mux");
  EXPECT_EQ(obs::span_phase("replication"), "replication");
  EXPECT_EQ(obs::span_phase("proc.dar.generate"), "proc");
}

TEST_F(AggregateSpans, SelfTimeSubtractsNestedChildren) {
  {
    obs::ScopedSpan parent("parent");
    spin_us(100);
    {
      obs::ScopedSpan child("child");
      spin_us(100);
      {
        obs::ScopedSpan grandchild("grandchild");
        spin_us(100);
      }
    }
    {
      obs::ScopedSpan child("child");
      spin_us(100);
    }
  }
  const std::vector<obs::SpanPathAgg> paths =
      obs::SpanTable::global().paths();
  ASSERT_EQ(paths.size(), 3u);
  const obs::SpanPathAgg* parent = find_path(paths, "parent");
  const obs::SpanPathAgg* child = find_path(paths, "parent;child");
  const obs::SpanPathAgg* grandchild =
      find_path(paths, "parent;child;grandchild");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);

  EXPECT_EQ(parent->count, 1u);
  EXPECT_EQ(child->count, 2u);
  EXPECT_EQ(grandchild->count, 1u);
  // The grandchild's time comes off the child, not the parent.
  EXPECT_EQ(parent->self_us, parent->total_us - child->total_us);
  EXPECT_EQ(child->self_us, child->total_us - grandchild->total_us);
  EXPECT_EQ(grandchild->self_us, grandchild->total_us);
  EXPECT_GE(grandchild->total_us, 100);
  EXPECT_GE(child->min_us, 100);
  EXPECT_EQ(child->min_us + child->max_us, child->total_us);
  EXPECT_GE(parent->self_us, 100);

  const std::vector<obs::SpanAgg> aggs = obs::spans_by_name(paths);
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_EQ(find(aggs, "child")->self_us, child->self_us);
  EXPECT_EQ(find(aggs, "child")->count, 2u);
}

TEST_F(AggregateSpans, ThreadsDoNotNestAcrossEachOther) {
  // A span on another thread is a root there, even while one is open here.
  {
    obs::ScopedSpan a("a");
    std::thread worker([] {
      obs::ScopedSpan b("b");
      spin_us(100);
    });
    worker.join();
  }
  const std::vector<obs::SpanPathAgg> paths =
      obs::SpanTable::global().paths();
  ASSERT_EQ(paths.size(), 2u);
  ASSERT_NE(find_path(paths, "a"), nullptr);
  ASSERT_NE(find_path(paths, "b"), nullptr);
  EXPECT_EQ(find_path(paths, "a")->self_us, find_path(paths, "a")->total_us);
  EXPECT_EQ(find_path(paths, "b")->self_us, find_path(paths, "b")->total_us);
}

TEST_F(AggregateSpans, SiblingsAtSameStartSortLongerFirst) {
  // A child opened on the same microsecond tick as its parent still nests
  // under it: the enclosing (longer) span is the parent because it is the
  // open one, not because of timestamps.
  {
    obs::ScopedSpan outer("outer");
    {
      obs::ScopedSpan inner("inner");
      spin_us(50);
    }
    spin_us(50);
  }
  const std::vector<obs::SpanPathAgg> paths =
      obs::SpanTable::global().paths();
  const obs::SpanPathAgg* outer = find_path(paths, "outer");
  const obs::SpanPathAgg* inner = find_path(paths, "outer;inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->self_us, outer->total_us - inner->total_us);
  EXPECT_EQ(inner->self_us, inner->total_us);
}

TEST_F(AggregateSpans, SortedBySelfTimeDescending) {
  const std::vector<obs::SpanAgg> aggs =
      obs::spans_by_name({path_agg("small", "small", 1, 10, 10),
                          path_agg("big", "big", 1, 90, 90)});
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].name, "big");
  EXPECT_EQ(aggs[1].name, "small");
}

TEST_F(AggregateSpans, EmptyInput) {
  EXPECT_TRUE(obs::SpanTable::global().paths().empty());
  EXPECT_TRUE(obs::spans_by_name({}).empty());
  EXPECT_TRUE(obs::phase_self_times({}).empty());
}

TEST(SpanNames, OneNameUnderTwoPathsRollsUpIntoOneRow) {
  const std::vector<obs::SpanAgg> aggs =
      obs::spans_by_name({path_agg("a;scan", "scan", 2, 30, 20),
                          path_agg("b;scan", "scan", 1, 50, 50)});
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].count, 3u);
  EXPECT_EQ(aggs[0].total_us, 80);
  EXPECT_EQ(aggs[0].self_us, 70);
  EXPECT_EQ(aggs[0].min_us, 30);
  EXPECT_EQ(aggs[0].max_us, 50);
}

TEST(PhaseSelfTimes, RollsUpByPrefix) {
  obs::SpanTable table;
  table.fold("fluid_mux.run", "fluid_mux.run", 60, 60, 0);
  table.fold("fluid_mux.drain", "fluid_mux.drain", 20, 20, 0);
  table.fold("replication", "replication", 50, 50, 0);
  const std::vector<obs::PhaseSelfTime> phases =
      obs::phase_self_times(obs::spans_by_name(table.paths()));
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].phase, "fluid_mux");
  EXPECT_EQ(phases[0].self_us, 80);
  EXPECT_EQ(phases[0].spans, 2u);
  EXPECT_EQ(phases[1].phase, "replication");
  EXPECT_EQ(phases[1].self_us, 50);
}

/// The cts.perf.v2 report of the global table, written and parsed back.
obs::JsonValue perf_report() {
  const std::string path = ::testing::TempDir() + "/span_stats_perf.json";
  EXPECT_TRUE(obs::write_perf_report(path, obs::ResourceProbe(), {}));
  return obs::json_parse(cu::read_text_file(path));
}

/// The report's "paths" equal `paths` field for field, and its "phases"
/// equal phase_self_times(spans_by_name(paths)).
void expect_report_matches(const obs::JsonValue& doc,
                           const std::vector<obs::SpanPathAgg>& paths) {
  const obs::JsonValue& entries = doc.at("paths");
  ASSERT_EQ(entries.size(), paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const obs::JsonValue& e = entries.at(i);
    const obs::SpanPathAgg& p = paths[i];
    EXPECT_EQ(e.at("path").as_string(), p.path);
    EXPECT_EQ(e.int_at("count"), static_cast<std::int64_t>(p.count));
    EXPECT_EQ(e.int_at("total_us"), p.total_us) << p.path;
    EXPECT_EQ(e.int_at("self_us"), p.self_us) << p.path;
    EXPECT_EQ(e.int_at("cpu_self_us"), p.cpu_self_us) << p.path;
    EXPECT_EQ(e.int_at("min_us"), p.min_us) << p.path;
    EXPECT_EQ(e.int_at("max_us"), p.max_us) << p.path;
  }
  const std::vector<obs::PhaseSelfTime> phases =
      obs::phase_self_times(obs::spans_by_name(paths));
  ASSERT_EQ(doc.at("phases").size(), phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const obs::JsonValue& e = doc.at("phases").at(i);
    EXPECT_EQ(e.at("phase").as_string(), phases[i].phase);
    EXPECT_EQ(e.int_at("self_us"), phases[i].self_us) << phases[i].phase;
    EXPECT_EQ(e.int_at("spans"), static_cast<std::int64_t>(phases[i].spans));
  }
}

/// One thread's workload: `rounds` root spans, each with nested children
/// and a repeated child name under two parents.
void nested_work(const char* root, const char* a, const char* b,
                 const char* c, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    obs::ScopedSpan r(root);
    spin_us(20);
    {
      obs::ScopedSpan sa(a);
      spin_us(20);
      {
        obs::ScopedSpan sb(b);
        spin_us(20);
      }
    }
    {
      obs::ScopedSpan sc(c);
      obs::ScopedSpan sb(b);
      spin_us(20);
    }
  }
}

// Two threads with nested spans at once: on each thread the folded wall
// self times add up to the root spans' total exactly, the per-name
// roll-up matches the paths it came from, and the cts.perf.v2 report
// carries every path and the phase roll-up of exactly that table.
TEST_F(AggregateSpans, TwoThreadSelfTimesAddUpToRootWallExactly) {
  std::atomic<int> ready{0};
  auto run = [&ready](const char* root, const char* a, const char* b,
                      const char* c) {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    nested_work(root, a, b, c, 50);
  };
  std::thread t1(run, "t1.root", "t1.a", "t1.b", "t1.c");
  std::thread t2(run, "t2.root", "t2.a", "t2.b", "t2.c");
  t1.join();
  t2.join();

  const std::vector<obs::SpanPathAgg> paths =
      obs::SpanTable::global().paths();
  ASSERT_EQ(paths.size(), 10u);  // 5 paths per thread
  for (const std::string root : {"t1.root", "t2.root"}) {
    std::int64_t self_sum = 0;
    for (const obs::SpanPathAgg& p : paths) {
      if (p.path.compare(0, root.size(), root) != 0) continue;
      EXPECT_GE(p.self_us, 0) << p.path;
      EXPECT_GE(p.cpu_self_us, 0) << p.path;
      self_sum += p.self_us;
    }
    const obs::SpanPathAgg* r = find_path(paths, root);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->count, 50u);
    EXPECT_EQ(self_sum, r->total_us) << root;
  }

  const std::vector<obs::SpanAgg> aggs = obs::spans_by_name(paths);
  ASSERT_EQ(aggs.size(), 8u);
  for (const obs::SpanAgg& agg : aggs) {
    obs::SpanAgg sum;
    for (const obs::SpanPathAgg& p : paths) {
      if (p.name != agg.name) continue;
      sum.min_us = sum.count == 0 ? p.min_us : std::min(sum.min_us, p.min_us);
      sum.max_us = std::max(sum.max_us, p.max_us);
      sum.count += p.count;
      sum.total_us += p.total_us;
      sum.self_us += p.self_us;
    }
    EXPECT_EQ(agg.count, sum.count) << agg.name;
    EXPECT_EQ(agg.total_us, sum.total_us) << agg.name;
    EXPECT_EQ(agg.self_us, sum.self_us) << agg.name;
    EXPECT_EQ(agg.min_us, sum.min_us) << agg.name;
    EXPECT_EQ(agg.max_us, sum.max_us) << agg.name;
  }
  EXPECT_EQ(find(aggs, "t1.b")->count, 100u);  // under t1.a and t1.c

  const obs::JsonValue doc = perf_report();
  expect_report_matches(doc, paths);
  std::int64_t spans = 0;
  for (const obs::JsonValue& e : doc.at("paths").items) spans += e.int_at("count");
  EXPECT_EQ(spans, 500);  // 5 spans x 50 rounds x 2
}

// ---------------------------------------------------------------------------
// Span-path profiles: the span table behind the "paths" of the cts.perf.v2
// report (--perf), with exact wall and thread-CPU self time per span path.

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

TEST_F(ProfilerTest, PerfReportPathsMatchTheSpanTable) {
  {
    obs::ScopedSpan span("export.work");
    spin_ms(2);
    {
      obs::ScopedSpan inner("export.inner");
      spin_ms(2);
    }
  }

  const obs::JsonValue doc = perf_report();
  const std::vector<obs::SpanPathAgg> paths = obs::SpanTable::global().paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].path, "export.work");
  EXPECT_EQ(paths[1].path, "export.work;export.inner");
  for (const obs::SpanPathAgg& p : paths) EXPECT_GE(p.self_us, 2000) << p.path;
  expect_report_matches(doc, paths);
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

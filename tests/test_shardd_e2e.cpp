// End-to-end tests for the networked shard execution layer: cts_shardd
// workers on loopback driven by `cts_simd run --workers=`.
//
//   * a 2-worker loopback run must produce a merged report that passes
//     `cts_simd diff` against a single-process run of the same bench at
//     the same seed and scale (the bit-identity guarantee survives the
//     network hop);
//   * when a worker dies mid-job (--fault-exit-after), its shard must be
//     retried on the other worker and the merged report still diff clean;
//   * when every worker is down, the dispatcher falls back to local
//     fork/exec and still completes;
//   * --trace writes the dispatcher's own Chrome trace (one process, one
//     simd.net.job span per dispatched shard), --log produces valid
//     cts.events.v1 JSONL, and cts_obstop can query a live daemon's
//     cts.stats.v1 endpoint.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include <sys/wait.h>

#include "cts/obs/json.hpp"
#include "cts/util/file.hpp"

namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

/// Runs `command` through the shell and returns the child's exit code.
int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

#if defined(CTS_TOOLS_BIN_DIR) && defined(CTS_BENCH_BIN_DIR)

const char* kScale = "REPRO_REPS=3 REPRO_FRAMES=400 ";
const char* kBench = "fig9_sim_markov";

std::string simd() { return std::string(CTS_TOOLS_BIN_DIR) + "/cts_simd"; }
std::string shardd() {
  return std::string(CTS_TOOLS_BIN_DIR) + "/cts_shardd";
}
std::string obstop() {
  return std::string(CTS_TOOLS_BIN_DIR) + "/cts_obstop";
}

/// Starts a cts_shardd in the background and returns its bound port.
/// `extra` carries --max-jobs / --fault-exit-after.
int start_worker(const std::string& dir, const std::string& tag,
                 const std::string& extra) {
  const std::string port_file = dir + "/" + tag + ".port";
  // A port file left behind by a previous invocation would be read as the
  // new daemon's port before the daemon overwrites it — and may even point
  // at a still-running stale daemon.  Remove it so any content we poll up
  // below is from the daemon we just launched.
  shell("rm -f '" + port_file + "'");
  const std::string command = "'" + shardd() + "' --port=0 --port-file='" +
                              port_file + "' --bench-dir='" +
                              CTS_BENCH_BIN_DIR + "' --work-dir='" + dir +
                              "/" + tag + "_work' " + extra + " --quiet > '" +
                              dir + "/" + tag + ".log' 2>&1 &";
  if (shell(command) != 0) return -1;
  // The daemon writes the ephemeral port once it is listening.
  for (int i = 0; i < 100; ++i) {
    std::string text;
    if (cu::read_text_file(port_file, &text, nullptr) && !text.empty()) {
      return std::atoi(text.c_str());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

/// Wipes and recreates the test's scratch directory: state left by a
/// previous invocation (port files, shard outputs, daemon logs) must never
/// leak into this run.
int fresh_dir(const std::string& dir) {
  return shell("rm -rf '" + dir + "' && mkdir -p '" + dir + "'");
}

/// The single-process reference report for the diff, produced once.
std::string reference_metrics(const std::string& dir) {
  const std::string path = dir + "/single_metrics.json";
  const std::string bench =
      std::string(CTS_BENCH_BIN_DIR) + "/bench_" + kBench;
  EXPECT_EQ(shell(kScale + ("'" + bench + "' --quiet --metrics='" + path +
                            "' > '" + dir + "/single.log' 2>&1")),
            0);
  return path;
}

TEST(ShardDE2E, LoopbackTwoWorkerRunDiffsCleanAgainstSingleProcess) {
  const std::string dir = ::testing::TempDir() + "/shardd_loopback";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string single = reference_metrics(dir);

  const int p1 = start_worker(dir, "w1", "--max-jobs=1");
  const int p2 = start_worker(dir, "w2", "--max-jobs=1");
  ASSERT_GT(p1, 0);
  ASSERT_GT(p2, 0);

  const std::string merged = dir + "/net_metrics.json";
  const std::string dispatch = dir + "/dispatch.json";
  ASSERT_EQ(
      shell(kScale +
            ("'" + simd() + "' run " + kBench + " --workers=127.0.0.1:" +
             std::to_string(p1) + ",127.0.0.1:" + std::to_string(p2) +
             " --shards=2 --out-dir='" + dir + "/net_out' --metrics='" +
             merged + "' --dispatch-metrics='" + dispatch +
             "' --bench-dir='" + CTS_BENCH_BIN_DIR + "' --quiet > '" + dir +
             "/net.log' 2>&1")),
      0);

  EXPECT_EQ(
      shell("'" + simd() + "' diff '" + single + "' '" + merged + "' --quiet"),
      0);

  // Both workers actually served a job, and nothing fell back to local
  // execution — this was a genuinely networked run.
  const obs::JsonValue doc =
      obs::json_parse(cu::read_text_file(dispatch));
  const obs::JsonValue& counters = doc.at("metrics").at("counters");
  EXPECT_EQ(counters.at("simd.net.jobs_ok").as_number(), 2.0);
  EXPECT_EQ(counters.at("simd.net.worker.0.ok").as_number(), 1.0);
  EXPECT_EQ(counters.at("simd.net.worker.1.ok").as_number(), 1.0);
  EXPECT_EQ(counters.find("simd.net.local_fallback_shards"), nullptr);
}

TEST(ShardDE2E, DispatcherTraceAndEventLogAreValid) {
  const std::string dir = ::testing::TempDir() + "/shardd_trace";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string single = reference_metrics(dir);

  const int p1 = start_worker(dir, "w1", "--max-jobs=1");
  const int p2 = start_worker(dir, "w2", "--max-jobs=1");
  ASSERT_GT(p1, 0);
  ASSERT_GT(p2, 0);

  const std::string merged = dir + "/net_metrics.json";
  const std::string trace = dir + "/trace.json";
  const std::string events = dir + "/events.jsonl";
  ASSERT_EQ(
      shell(kScale +
            ("'" + simd() + "' run " + kBench + " --workers=127.0.0.1:" +
             std::to_string(p1) + ",127.0.0.1:" + std::to_string(p2) +
             " --shards=2 --out-dir='" + dir + "/net_out' --metrics='" +
             merged + "' --trace='" + trace + "' --log='" + events +
             "' --bench-dir='" + CTS_BENCH_BIN_DIR + "' --quiet > '" + dir +
             "/net.log' 2>&1")),
      0);

  // Observability must not perturb the result: the merged report is still
  // bit-identical to the single-process reference.
  EXPECT_EQ(
      shell("'" + simd() + "' diff '" + single + "' '" + merged + "' --quiet"),
      0);

  // One strict-JSON Chrome trace of one process, the dispatcher (pid 1),
  // with one simd.net.job span per shard: no job failed, so none was
  // dispatched twice.
  const std::string trace_text = cu::read_text_file(trace);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(trace_text, &error)) << error;
  const obs::JsonValue doc = obs::json_parse(trace_text);
  const obs::JsonValue& trace_events = doc.at("traceEvents");
  std::set<double> pids;
  std::size_t job_spans = 0;
  for (std::size_t i = 0; i < trace_events.size(); ++i) {
    const obs::JsonValue& e = trace_events.at(i);
    ASSERT_EQ(e.at("ph").as_string(), "X");
    pids.insert(e.at("pid").as_number());
    if (e.at("name").as_string() == "simd.net.job") ++job_spans;
  }
  EXPECT_EQ(pids, (std::set<double>{1.0}));
  EXPECT_EQ(job_spans, 2u);

  // The event log: strict cts.events.v1 JSONL covering the run lifecycle.
  std::ifstream in(events);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ASSERT_TRUE(obs::json_parse_check(line, &error)) << error << "\n" << line;
    const obs::JsonValue event = obs::json_parse(line);
    EXPECT_EQ(event.at("schema").as_string(), "cts.events.v1");
    seen.insert(event.at("event").as_string());
  }
  EXPECT_TRUE(seen.count("run.start"));
  EXPECT_TRUE(seen.count("job.ok"));
  EXPECT_TRUE(seen.count("run.done"));

  // The shipped validator agrees with the asserts above.
  EXPECT_EQ(shell("'" + obstop() + "' --validate '" + trace + "' '" + events +
                  "' --quiet > /dev/null 2>&1"),
            0);
}

TEST(ShardDE2E, ObstopQueriesTheLiveStatsEndpoint) {
  const std::string dir = ::testing::TempDir() + "/shardd_stats";
  ASSERT_EQ(fresh_dir(dir), 0);
  const int p1 = start_worker(dir, "w1", "--max-jobs=1");
  ASSERT_GT(p1, 0);

  // Query the live daemon BEFORE any job: stats must not consume the
  // --max-jobs budget (the job dispatched below still gets served).
  const std::string stats_path = dir + "/stats.json";
  ASSERT_EQ(shell("'" + obstop() + "' --json --workers=127.0.0.1:" +
                  std::to_string(p1) + " > '" + stats_path + "' 2>'" + dir +
                  "/obstop.log'"),
            0);
  const std::string text = cu::read_text_file(stats_path);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error << text;
  const obs::JsonValue stats = obs::json_parse(text);
  EXPECT_EQ(stats.at("schema").as_string(), "cts.stats.v1");
  EXPECT_EQ(stats.at("worker").as_string(),
            "cts_shardd:" + std::to_string(p1));
  EXPECT_GT(stats.at("pid").as_number(), 0.0);
  EXPECT_GE(stats.at("uptime_s").as_number(), 0.0);
  const obs::JsonValue& jobs = stats.at("jobs");
  EXPECT_EQ(jobs.at("in_flight").as_number(), 0.0);
  EXPECT_EQ(jobs.at("ok").as_number(), 0.0);
  EXPECT_EQ(jobs.at("failed").as_number(), 0.0);
  EXPECT_GE(stats.at("stats_served").as_number(), 1.0);
  // The lossless metrics snapshot and the span table are present even on
  // an idle daemon (both empty, but structurally valid).
  EXPECT_NE(stats.at("metrics").find("counters"), nullptr);
  EXPECT_NE(stats.find("spans"), nullptr);

  // The stats file itself passes the shipped validator.
  EXPECT_EQ(shell("'" + obstop() + "' --validate '" + stats_path +
                  "' --quiet > /dev/null 2>&1"),
            0);

  // Drain the worker (--max-jobs=1) so the daemon exits: the stats query
  // above must not have eaten the job budget.
  const std::string merged = dir + "/net_metrics.json";
  EXPECT_EQ(shell(kScale + ("'" + simd() + "' run " + kBench +
                            " --workers=127.0.0.1:" + std::to_string(p1) +
                            " --shards=1 --out-dir='" + dir +
                            "/out' --metrics='" + merged + "' --bench-dir='" +
                            CTS_BENCH_BIN_DIR + "' --quiet > /dev/null 2>&1")),
            0);
}

TEST(ShardDE2E, WorkerKilledMidShardIsRetriedOnTheOtherWorker) {
  const std::string dir = ::testing::TempDir() + "/shardd_fault";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string single = reference_metrics(dir);

  // Worker 1 dies abruptly on its first job (after reading the request,
  // before any reply): from the dispatcher's side, a machine lost
  // mid-shard.  Worker 2 is healthy and must absorb both shards — a
  // --max-jobs budget of exactly 2 also makes it exit when the test is
  // done instead of lingering as a stale daemon.
  const int p1 = start_worker(dir, "w1", "--fault-exit-after=0");
  const int p2 = start_worker(dir, "w2", "--max-jobs=2");
  ASSERT_GT(p1, 0);
  ASSERT_GT(p2, 0);

  const std::string merged = dir + "/net_metrics.json";
  const std::string dispatch = dir + "/dispatch.json";
  ASSERT_EQ(
      shell(kScale +
            ("'" + simd() + "' run " + kBench + " --workers=127.0.0.1:" +
             std::to_string(p1) + ",127.0.0.1:" + std::to_string(p2) +
             " --shards=2 --out-dir='" + dir + "/net_out' --metrics='" +
             merged + "' --dispatch-metrics='" + dispatch +
             "' --bench-dir='" + CTS_BENCH_BIN_DIR + "' --quiet > '" + dir +
             "/net.log' 2>&1")),
      0);

  // The run survived the killed worker and still merges bit-identically.
  EXPECT_EQ(
      shell("'" + simd() + "' diff '" + single + "' '" + merged + "' --quiet"),
      0);

  // The dispatch record shows the reassignment: failures on worker 0, all
  // successful jobs on worker 1, no local fallback.
  const obs::JsonValue doc =
      obs::json_parse(cu::read_text_file(dispatch));
  const obs::JsonValue& counters = doc.at("metrics").at("counters");
  EXPECT_GE(counters.at("simd.net.jobs_failed").as_number(), 1.0);
  EXPECT_GE(counters.at("simd.net.worker.0.fail").as_number(), 1.0);
  EXPECT_EQ(counters.at("simd.net.worker.1.ok").as_number(), 2.0);
  EXPECT_EQ(counters.find("simd.net.worker.0.ok"), nullptr);
  EXPECT_EQ(counters.find("simd.net.local_fallback_shards"), nullptr);
}

TEST(ShardDE2E, AllWorkersDownFallsBackToLocalExecution) {
  const std::string dir = ::testing::TempDir() + "/shardd_down";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string single = reference_metrics(dir);

  // Nothing listens on these ports (1 and 2 are privileged and unbound in
  // the test environment): every connect is refused immediately.
  const std::string merged = dir + "/net_metrics.json";
  const std::string dispatch = dir + "/dispatch.json";
  ASSERT_EQ(
      shell(kScale +
            ("'" + simd() + "' run " + kBench +
             " --workers=127.0.0.1:1,127.0.0.1:2 --shards=2 --out-dir='" +
             dir + "/net_out' --metrics='" + merged +
             "' --dispatch-metrics='" + dispatch + "' --bench-dir='" +
             CTS_BENCH_BIN_DIR + "' --quiet > '" + dir + "/net.log' 2>&1")),
      0);
  EXPECT_EQ(
      shell("'" + simd() + "' diff '" + single + "' '" + merged + "' --quiet"),
      0);

  const obs::JsonValue doc =
      obs::json_parse(cu::read_text_file(dispatch));
  const obs::JsonValue& counters = doc.at("metrics").at("counters");
  EXPECT_EQ(counters.at("simd.net.local_fallback_shards").as_number(), 2.0);
  EXPECT_EQ(counters.at("simd.net.workers_down").as_number(), 2.0);
  EXPECT_EQ(counters.find("simd.net.jobs_ok"), nullptr);
}

// The profiling & SLO layer end to end: a loopback run with --perf on
// both sides must still merge bit-identically to a single-process run
// without it, the worker must answer latency-SLO queries (pass AND breach)
// from its log-bucketed histograms, and both processes must write
// cts.perf.v2 reports on clean exit.
TEST(ShardDE2E, ProfiledRunWithSloGateEmitsValidArtifacts) {
  const std::string dir = ::testing::TempDir() + "/shardd_profile";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string single = reference_metrics(dir);

  // --max-jobs=2: one profiled job now, one later to drain the daemon —
  // between them the daemon stays alive for the SLO queries.
  const std::string worker_perf = dir + "/w1_perf.json";
  const int p1 =
      start_worker(dir, "w1", "--max-jobs=2 --perf='" + worker_perf + "'");
  ASSERT_GT(p1, 0);
  const std::string worker = "127.0.0.1:" + std::to_string(p1);

  const std::string merged = dir + "/net_metrics.json";
  const std::string dispatch_perf = dir + "/dispatch_perf.json";
  ASSERT_EQ(
      shell(kScale +
            ("'" + simd() + "' run " + kBench + " --workers=" + worker +
             " --shards=1 --out-dir='" + dir + "/net_out' --metrics='" +
             merged + "' --perf='" + dispatch_perf + "' --bench-dir='" +
             CTS_BENCH_BIN_DIR + "' --quiet > '" + dir + "/net.log' 2>&1")),
      0);

  // Profiling must not perturb the physics: the merged report still diffs
  // clean against the unprofiled single-process reference.
  EXPECT_EQ(
      shell("'" + simd() + "' diff '" + single + "' '" + merged + "' --quiet"),
      0);

  // SLO gate, pass side: one job has been observed, and its p99 sits far
  // below a 600 s objective.
  EXPECT_EQ(shell("'" + obstop() + "' --workers=" + worker +
                  " --slo=shardd.job_wall_ms:p99:600000 --check --quiet "
                  "> /dev/null 2>&1"),
            0);
  // Breach side: no real job finishes in a microsecond, so --check must
  // exit 3 (distinct from query failure's 1).
  EXPECT_EQ(shell("'" + obstop() + "' --workers=" + worker +
                  " --slo=shardd.job_wall_ms:p50:0.001 --check --quiet "
                  "> /dev/null 2>&1"),
            3);

  // Drain the worker's second job so the daemon exits and writes its
  // perf report.
  EXPECT_EQ(shell(kScale + ("'" + simd() + "' run " + kBench +
                            " --workers=" + worker + " --shards=1 --out-dir='" +
                            dir + "/out2' --metrics='" + dir +
                            "/net2_metrics.json' --bench-dir='" +
                            CTS_BENCH_BIN_DIR + "' --quiet > /dev/null 2>&1")),
            0);
  std::string perf_text;
  for (int i = 0; i < 100; ++i) {
    if (cu::read_text_file(worker_perf, &perf_text, nullptr) &&
        !perf_text.empty()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_FALSE(perf_text.empty()) << "worker never wrote its perf report";

  // Both reports are strict-JSON cts.perf.v2 documents with the process's
  // rusage and its span paths; the worker's carries its job span.
  for (const std::string& path : {worker_perf, dispatch_perf}) {
    const std::string doc_text = cu::read_text_file(path);
    std::string error;
    ASSERT_TRUE(obs::json_parse_check(doc_text, &error)) << path << ": "
                                                         << error;
    const obs::JsonValue doc = obs::json_parse(doc_text);
    EXPECT_EQ(doc.at("schema").as_string(), "cts.perf.v2") << path;
    EXPECT_GT(doc.at("resources").at("wall_s").as_number(), 0.0) << path;
    EXPECT_GT(doc.at("paths").size(), 0u) << path;
    EXPECT_EQ(shell("'" + obstop() + "' --validate '" + path +
                    "' --quiet > /dev/null 2>&1"),
              0);
  }
  const obs::JsonValue worker_doc =
      obs::json_parse(cu::read_text_file(worker_perf));
  bool job_path = false;
  for (const obs::JsonValue& entry : worker_doc.at("paths").items) {
    if (entry.at("path").as_string() != "shardd.job") continue;
    job_path = true;
    EXPECT_GE(entry.int_at("cpu_self_us"), 0);
  }
  EXPECT_TRUE(job_path) << cu::read_text_file(worker_perf);
}

TEST(ShardDE2E, DaemonRejectsAnUnknownBenchId) {
  const std::string dir = ::testing::TempDir() + "/shardd_reject";
  ASSERT_EQ(fresh_dir(dir), 0);
  const int p1 = start_worker(dir, "w1", "--max-jobs=1");
  ASSERT_GT(p1, 0);
  // An id outside the registry: the daemon must refuse (never exec), and
  // the client side must fail with exit 2 before even dispatching.
  EXPECT_EQ(shell("'" + simd() +
                  "' run ../../bin/evil --workers=127.0.0.1:" +
                  std::to_string(p1) + " --shards=1 --out-dir='" + dir +
                  "/out' --quiet > /dev/null 2>&1"),
            2);
  // Drain the worker so the background daemon exits (--max-jobs=1): send
  // one well-formed run so it serves its job and terminates.
  const std::string merged = dir + "/net_metrics.json";
  EXPECT_EQ(shell(kScale + ("'" + simd() + "' run " + kBench +
                            " --workers=127.0.0.1:" + std::to_string(p1) +
                            " --shards=1 --out-dir='" + dir +
                            "/out' --metrics='" + merged +
                            "' --bench-dir='" + CTS_BENCH_BIN_DIR +
                            "' --quiet > /dev/null 2>&1")),
            0);
}

TEST(ShardDE2E, OutOfRangeServeFlagsExitTwoBeforeListening) {
  const std::string dir = ::testing::TempDir() + "/shardd_flags";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string port_file = dir + "/w.port";
  // `timeout` turns a daemon that serves anyway into a failure, not a hang.
  for (const std::string flag : {"--max-jobs=-1"}) {
    EXPECT_EQ(shell("timeout 10 '" + shardd() + "' --port=0 --port-file='" +
                    port_file + "' --work-dir='" + dir + "/work' " + flag +
                    " > '" + dir + "/w.log' 2>&1"),
              2)
        << flag;
    EXPECT_FALSE(cu::read_text_file(port_file, nullptr, nullptr)) << flag;
  }
}

TEST(ShardDE2E, RetiredProfileFlagsExitTwoBeforeListening) {
  const std::string dir = ::testing::TempDir() + "/shardd_retired";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string port_file = dir + "/w.port";
  const std::string log = dir + "/w.log";
  for (const std::string flag : {"profile", "profile-folded"}) {
    EXPECT_EQ(shell("timeout 10 '" + shardd() + "' --port=0 --port-file='" +
                    port_file + "' --work-dir='" + dir + "/work' --" + flag +
                    "='" + dir + "/p.json' > '" + log + "' 2>&1"),
              2)
        << flag;
    EXPECT_FALSE(cu::read_text_file(port_file, nullptr, nullptr)) << flag;
    EXPECT_NE(cu::read_text_file(log).find("cts_shardd: --" + flag +
                                           " was removed; use --perf"),
              std::string::npos)
        << cu::read_text_file(log);
  }
}

#endif  // CTS_TOOLS_BIN_DIR && CTS_BENCH_BIN_DIR

}  // namespace

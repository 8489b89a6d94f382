// Loopback end-to-end tests for the cts_cacd admission-control daemon:
//
//   * a served batch's answers must be bit-identical to direct
//     admissible_connections_br/_eb library calls (the %.17g JSON
//     round-trip preserves equality on the wire), and must match the
//     `cts_cacd eval` golden document field for field;
//   * malformed requests get structured {"ok":false} replies with named
//     errors -- the daemon keeps serving, it never crashes;
//   * the cts.statsreq.v1 endpoint exposes the cacd.query_wall_ms log
//     histogram and the admission-cache hit/miss counters, queryable by
//     the shipped cts_obstop;
//   * two `cts_cacd eval` runs of one query are byte-equal;
//   * an exhausted request deadline answers per-query with a named error.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include <sys/wait.h>

#include "cts/atm/cac.hpp"
#include "cts/atm/cac_cache.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/net/cac.hpp"
#include "cts/obs/json.hpp"
#include "cts/util/file.hpp"

namespace ca = cts::atm;
namespace cf = cts::fit;
namespace cn = cts::net;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

/// Runs `command` through the shell and returns the child's exit code.
int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

#if defined(CTS_TOOLS_BIN_DIR)

std::string cacd() { return std::string(CTS_TOOLS_BIN_DIR) + "/cts_cacd"; }
std::string obstop() {
  return std::string(CTS_TOOLS_BIN_DIR) + "/cts_obstop";
}

/// Wipes and recreates the test's scratch directory.
int fresh_dir(const std::string& dir) {
  return shell("rm -rf '" + dir + "' && mkdir -p '" + dir + "'");
}

/// Starts a cts_cacd daemon in the background and returns its bound port.
/// `extra` carries --max-requests / --log.
int start_daemon(const std::string& dir, const std::string& extra) {
  const std::string port_file = dir + "/cacd.port";
  shell("rm -f '" + port_file + "'");
  const std::string command = "'" + cacd() + "' --port=0 --port-file='" +
                              port_file + "' " + extra + " --quiet > '" + dir +
                              "/cacd.log' 2>&1 &";
  if (shell(command) != 0) return -1;
  for (int i = 0; i < 100; ++i) {
    std::string text;
    if (cu::read_text_file(port_file, &text, nullptr) && !text.empty()) {
      return std::atoi(text.c_str());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

/// Runs the one-shot client, captures its stdout reply, and returns the
/// parsed response.  `expected_exit` asserts the client's exit code.
cn::CacResponse query_daemon(const std::string& dir, int port,
                             const std::string& flags, int expected_exit) {
  const std::string reply_path = dir + "/reply.json";
  const int rc =
      shell("'" + cacd() + "' query --port=" + std::to_string(port) + " " +
            flags + " > '" + reply_path + "' 2>'" + dir + "/query.log'");
  EXPECT_EQ(rc, expected_exit);
  return cn::parse_cac_response(cu::read_text_file(reply_path));
}

TEST(CacdE2E, BatchAnswersAreBitIdenticalToDirectLibraryCalls) {
  const std::string dir = ::testing::TempDir() + "/cacd_identity";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string events = dir + "/events.jsonl";
  const int port = start_daemon(dir, "--max-requests=2 --log='" + events + "'");
  ASSERT_GT(port, 0);

  ca::CacProblem problem;  // the client's defaults: the paper's link
  problem.capacity_cells_per_frame = 16140.0;
  problem.buffer_cells = 4035.0;
  problem.log10_target_clr = -6.0;

  // Batch 1: an LRD zoo model.  admit_br and the explicit-N probe answer;
  // admit_eb must fail per-query (no finite variance rate), not kill the
  // batch.
  {
    const cn::CacResponse reply = query_daemon(
        dir, port, "--model=za:0.9 --kind=admit_br,admit_eb,bop --n=25", 0);
    const cf::ModelSpec model = cf::make_za(0.9);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.model_name, model.name);
    ASSERT_EQ(reply.answers.size(), 3u);

    const ca::CacResult br = ca::admissible_connections_br(model, problem);
    ASSERT_TRUE(reply.answers[0].ok) << reply.answers[0].error;
    EXPECT_EQ(reply.answers[0].admissible, br.admissible);
    EXPECT_EQ(reply.answers[0].log10_bop, br.log10_bop_at_max);

    EXPECT_FALSE(reply.answers[1].ok);
    EXPECT_FALSE(reply.answers[1].error.empty());

    ca::CacCache local;
    ASSERT_TRUE(reply.answers[2].ok) << reply.answers[2].error;
    EXPECT_EQ(reply.answers[2].log10_bop,
              local.log10_bop(model, problem, 25));
  }

  // Batch 2: the matched Markov model, where both admission rules exist.
  {
    const cn::CacResponse reply =
        query_daemon(dir, port, "--model=dar:0.9:1 --kind=admit_br,admit_eb",
                     0);
    const cf::ModelSpec model = cf::make_dar_matched_to_za(0.9, 1);
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_EQ(reply.answers.size(), 2u);
    const ca::CacResult br = ca::admissible_connections_br(model, problem);
    const ca::CacResult eb = ca::admissible_connections_eb(model, problem);
    ASSERT_TRUE(reply.answers[0].ok);
    EXPECT_EQ(reply.answers[0].admissible, br.admissible);
    EXPECT_EQ(reply.answers[0].log10_bop, br.log10_bop_at_max);
    ASSERT_TRUE(reply.answers[1].ok);
    EXPECT_EQ(reply.answers[1].admissible, eb.admissible);
    EXPECT_EQ(reply.answers[1].log10_bop, eb.log10_bop_at_max);
  }

  // --max-requests=2 is spent: the daemon exits and flushes its event log,
  // strict cts.events.v1 JSONL covering the request lifecycle.
  std::string log_text;
  for (int i = 0; i < 100; ++i) {
    if (cu::read_text_file(events, &log_text, nullptr) &&
        log_text.find("daemon.exit") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::ifstream in(events);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::string error;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ASSERT_TRUE(obs::json_parse_check(line, &error)) << error << "\n" << line;
    const obs::JsonValue event = obs::json_parse(line);
    EXPECT_EQ(event.at("schema").as_string(), "cts.events.v1");
    seen.insert(event.at("event").as_string());
  }
  EXPECT_TRUE(seen.count("daemon.start"));
  EXPECT_TRUE(seen.count("request.done"));
  EXPECT_TRUE(seen.count("daemon.exit"));
}

TEST(CacdE2E, MalformedRequestsGetStructuredErrorsNotACrash) {
  const std::string dir = ::testing::TempDir() + "/cacd_malformed";
  ASSERT_EQ(fresh_dir(dir), 0);
  const int port = start_daemon(dir, "--max-requests=3");
  ASSERT_GT(port, 0);

  // Not JSON at all.
  const std::string garbage = dir + "/garbage.txt";
  ASSERT_TRUE(write_file(garbage, "this is not json\n"));
  const cn::CacResponse r1 =
      query_daemon(dir, port, "--request-file='" + garbage + "'", 1);
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());

  // Valid JSON, wrong schema: the error names the expected tag.
  const std::string wrong = dir + "/wrong_schema.json";
  ASSERT_TRUE(write_file(
      wrong, R"({"schema":"cts.job.v1","bench":"bench_table1"})"));
  const cn::CacResponse r2 =
      query_daemon(dir, port, "--request-file='" + wrong + "'", 1);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("cts.cac.v1"), std::string::npos);

  // The daemon survived both and still answers a well-formed batch.
  const cn::CacResponse r3 =
      query_daemon(dir, port, "--model=ar1:0.8 --kind=admit_br", 0);
  ASSERT_TRUE(r3.ok) << r3.error;
  ASSERT_EQ(r3.answers.size(), 1u);
  EXPECT_TRUE(r3.answers[0].ok);
  EXPECT_GT(r3.answers[0].admissible, 0u);
}

TEST(CacdE2E, StatsEndpointExposesLatencyHistogramAndCacheCounters) {
  const std::string dir = ::testing::TempDir() + "/cacd_stats";
  ASSERT_EQ(fresh_dir(dir), 0);
  const int port = start_daemon(dir, "--max-requests=2");
  ASSERT_GT(port, 0);

  const cn::CacResponse warmup =
      query_daemon(dir, port, "--model=za:0.9 --kind=admit_br", 0);
  ASSERT_TRUE(warmup.ok) << warmup.error;

  // Stats queries ride the same port but do not consume the request
  // budget.
  const std::string stats_path = dir + "/stats.json";
  ASSERT_EQ(shell("'" + obstop() + "' --json --workers=127.0.0.1:" +
                  std::to_string(port) + " > '" + stats_path + "' 2>'" + dir +
                  "/obstop.log'"),
            0);
  const std::string text = cu::read_text_file(stats_path);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error << text;
  const obs::JsonValue stats = obs::json_parse(text);
  EXPECT_EQ(stats.at("schema").as_string(), "cts.stats.v1");
  EXPECT_EQ(stats.at("worker").as_string(),
            "cts_cacd:" + std::to_string(port));
  EXPECT_EQ(stats.at("jobs").at("ok").as_number(), 1.0);
  EXPECT_EQ(stats.at("jobs").at("failed").as_number(), 0.0);

  const obs::JsonValue& metrics = stats.at("metrics");
  EXPECT_EQ(metrics.at("counters").at("cacd.queries_ok").as_number(), 1.0);
  // The query latency is one log histogram, observed once per query; it is
  // what cts_obstop percentiles and SLO-gates.
  EXPECT_EQ(metrics.find("histograms"), nullptr);
  EXPECT_EQ(metrics.at("log_histograms")
                .at("cacd.query_wall_ms")
                .at("count")
                .as_number(),
            1.0);
  // Admission-cache effectiveness rides along as gauges.  The binary
  // search's final BOP report is the guaranteed reuse: at least one hit
  // even on a cold daemon.
  const obs::JsonValue& gauges = metrics.at("gauges");
  EXPECT_GE(gauges.at("cacd.cache_rate_hits").at("value").as_number(), 1.0);
  EXPECT_GE(gauges.at("cacd.cache_rate_misses").at("value").as_number(), 1.0);
  EXPECT_GE(gauges.at("cacd.cache_entries").at("value").as_number(), 1.0);
  // One admit_br on a cold daemon builds the model's V(m) table: it holds
  // at least the 512-lag minimum scan horizon, and the first miss grew it.
  EXPECT_GE(gauges.at("cacd.cache_table_lags").at("value").as_number(),
            512.0);
  EXPECT_GE(gauges.at("cacd.cache_table_extensions").at("value").as_number(),
            1.0);
  EXPECT_LE(gauges.at("cacd.cache_table_extensions").at("value").as_number(),
            gauges.at("cacd.cache_rate_misses").at("value").as_number());

  // The snapshot passes the shipped validator.
  EXPECT_EQ(shell("'" + obstop() + "' --validate '" + stats_path +
                  "' --quiet > /dev/null 2>&1"),
            0);

  // Drain the second request so the daemon exits.
  (void)query_daemon(dir, port, "--model=za:0.9 --kind=admit_br", 0);
}

TEST(CacdE2E, ServedAnswersMatchTheEvalGolden) {
  const std::string dir = ::testing::TempDir() + "/cacd_golden";
  ASSERT_EQ(fresh_dir(dir), 0);
  const int port = start_daemon(dir, "--max-requests=1");
  ASSERT_GT(port, 0);

  const std::string flags =
      "--model=dar:0.9:1 --kind=admit_br,admit_eb,bop --n=10 "
      "--capacity=16140 --buffer=4035 --clr=-6";
  const cn::CacResponse served = query_daemon(dir, port, flags, 0);

  // The golden: the same flags answered locally by direct library calls.
  const std::string golden_path = dir + "/golden.json";
  ASSERT_EQ(shell("'" + cacd() + "' eval " + flags + " > '" + golden_path +
                  "' 2>/dev/null"),
            0);
  const cn::CacResponse golden =
      cn::parse_cac_response(cu::read_text_file(golden_path));

  ASSERT_TRUE(served.ok) << served.error;
  ASSERT_TRUE(golden.ok) << golden.error;
  EXPECT_EQ(served.model_name, golden.model_name);
  ASSERT_EQ(served.answers.size(), golden.answers.size());
  for (std::size_t i = 0; i < served.answers.size(); ++i) {
    EXPECT_EQ(served.answers[i].ok, golden.answers[i].ok) << "answer " << i;
    EXPECT_EQ(served.answers[i].admissible, golden.answers[i].admissible)
        << "answer " << i;
    // Bit-identical through the daemon, its cache, and the JSON hop.
    EXPECT_EQ(served.answers[i].log10_bop, golden.answers[i].log10_bop)
        << "answer " << i;
  }
}

// The eval golden carries no wall clock ("elapsed_s":0), so two evals of
// one query are byte-equal and a golden can be compared with cmp.
TEST(CacdE2E, EvalIsByteIdenticalAcrossRuns) {
  const std::string dir = ::testing::TempDir() + "/cacd_eval_cmp";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string eval = "'" + cacd() +
                           "' eval --model=za:0.9 "
                           "--kind=admit_br,admit_eb,bop --n=25 > '" +
                           dir;
  ASSERT_EQ(shell(eval + "/a.json' 2>/dev/null"), 0);
  ASSERT_EQ(shell(eval + "/b.json' 2>/dev/null"), 0);
  EXPECT_EQ(shell("cmp -s '" + dir + "/a.json' '" + dir + "/b.json'"), 0);
  EXPECT_NE(cu::read_text_file(dir + "/a.json").find("\"elapsed_s\":0,"),
            std::string::npos);
}

TEST(CacdE2E, ExhaustedDeadlineAnswersPerQueryWithANamedError) {
  const std::string dir = ::testing::TempDir() + "/cacd_deadline";
  ASSERT_EQ(fresh_dir(dir), 0);
  const int port = start_daemon(dir, "--max-requests=1");
  ASSERT_GT(port, 0);

  // A deadline no batch can meet: parsing alone takes longer than a
  // nanosecond, so every query must answer with the deadline error rather
  // than stall or drop the connection.
  const std::string request = dir + "/request.json";
  ASSERT_TRUE(write_file(
      request,
      R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},"deadline_s":1e-9,)"
      R"("queries":[)"
      R"({"kind":"admit_br","capacity":16140,"buffer":4035,"log10_clr":-6},)"
      R"({"kind":"admit_br","capacity":16140,"buffer":8070,"log10_clr":-6}]})"));
  const cn::CacResponse reply =
      query_daemon(dir, port, "--request-file='" + request + "'", 0);
  ASSERT_TRUE(reply.ok) << reply.error;  // the batch itself was accepted
  ASSERT_EQ(reply.answers.size(), 2u);
  for (const cn::CacAnswer& answer : reply.answers) {
    EXPECT_FALSE(answer.ok);
    EXPECT_NE(answer.error.find("deadline"), std::string::npos);
    EXPECT_NE(answer.error.find("exceeded"), std::string::npos);
  }
}

TEST(CacdE2E, OutOfRangeServeFlagsExitTwoBeforeListening) {
  const std::string dir = ::testing::TempDir() + "/cacd_flags";
  ASSERT_EQ(fresh_dir(dir), 0);
  const std::string port_file = dir + "/cacd.port";
  // A negative budget once meant "serve forever".  It is a usage error
  // now; `timeout` turns a daemon that serves anyway into a failure, not a
  // hang.
  for (const std::string flag : {"--max-requests=-1"}) {
    EXPECT_EQ(shell("timeout 10 '" + cacd() + "' --port=0 --port-file='" +
                    port_file + "' " + flag + " > '" + dir +
                    "/cacd.log' 2>&1"),
              2)
        << flag;
    EXPECT_FALSE(cu::read_text_file(port_file, nullptr, nullptr)) << flag;
  }
}

#endif  // CTS_TOOLS_BIN_DIR

}  // namespace

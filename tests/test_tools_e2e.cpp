// End-to-end harness tests: cts_benchd must produce a cts.bench.v1 document
// that carries median/MAD/CI, peak RSS, CPU time and a per-phase self-time
// table for every smoke bench, which `cts_benchd validate` accepts and
// `cts_benchd trend --gate` passes against itself; cts_benchd --compare
// must gate in one invocation and refuse a baseline of another scale or
// an --out that is the baseline;
// a --bench-dir path is never parsed by a shell, and a failed bench is
// reported by its exit status or signal; every bench binary must honour
// --help with exit 0 and exit 2 on a malformed flag value.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "cts/obs/json.hpp"
#include "cts/util/subprocess.hpp"

namespace fs = std::filesystem;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Runs `command` through the shell and returns the child's exit code.
int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

#if defined(CTS_TOOLS_BIN_DIR) && defined(CTS_BENCH_BIN_DIR)

/// Runs `argv` without a shell, stdout+stderr to `out`; returns how it
/// ended.
cu::WaitOutcome run(const std::vector<std::string>& argv,
                    const std::string& out) {
  cu::ChildSpec spec;
  spec.argv = argv;
  spec.output_path = out;
  std::string error;
  const pid_t pid = cu::spawn_child(spec, &error);
  EXPECT_GT(pid, 0) << error;
  if (pid <= 0) return {};
  return cu::wait_child(pid, 300.0);
}

/// A fresh directory holding one executable `bench_table1`: a symlink to
/// `target`, or a shell script with body `script`.
std::string bench_dir_with_table1(const std::string& dir,
                                  const std::string& target,
                                  const std::string& script) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string binary = dir + "/bench_table1";
  if (!target.empty()) {
    fs::create_symlink(target, binary);
  } else {
    write_file(binary, "#!/bin/sh\n" + script + "\n");
    fs::permissions(binary, fs::perms::owner_all);
  }
  return dir;
}

std::string benchd() { return std::string(CTS_TOOLS_BIN_DIR) + "/cts_benchd"; }

TEST(CtsBenchd, SmokeSuiteProducesValidBenchDocument) {
  const std::string out = ::testing::TempDir() + "/BENCH_e2e.json";
  const std::string cmd = "'" + benchd() +
                          "' --suite=smoke --repeats=2 --warmup=0 --reps=1 "
                          "--frames=400 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + out + "'";
  ASSERT_EQ(shell(cmd), 0) << cmd;

  const std::string text = read_file(out);
  ASSERT_FALSE(text.empty());
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error;

  const obs::JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "cts.bench.v1");
  EXPECT_DOUBLE_EQ(doc.at("repeats").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("scale").at("repro_frames").as_number(), 400.0);
  EXPECT_GT(doc.at("host").at("hardware_concurrency").as_number(), 0.0);

  const obs::JsonValue& benches = doc.at("benches");
  ASSERT_GE(benches.size(), 3u);
  for (const auto& [id, b] : benches.members) {
    SCOPED_TRACE(id);
    EXPECT_DOUBLE_EQ(b.at("runs").as_number(), 2.0);
    const obs::JsonValue& metrics = b.at("metrics");
    for (const char* name : {"wall_s", "user_s", "sys_s", "max_rss_kb"}) {
      const obs::JsonValue& m = metrics.at(name);
      EXPECT_DOUBLE_EQ(m.at("n").as_number(), 2.0);
      EXPECT_GE(m.at("median").as_number(), 0.0);
      EXPECT_GE(m.at("mad").as_number(), 0.0);
      EXPECT_LE(m.at("ci95_lo").as_number(), m.at("ci95_hi").as_number());
      EXPECT_EQ(m.at("samples").size(), 2u);
    }
    EXPECT_GT(metrics.at("wall_s").at("median").as_number(), 0.0);
    EXPECT_GT(metrics.at("max_rss_kb").at("median").as_number(), 0.0);
    // No hardware-counter section in a new document.
    EXPECT_EQ(b.find("hw"), nullptr);
    // Every bench has at least the "bench" root phase.
    const obs::JsonValue& phases = b.at("phases");
    ASSERT_GE(phases.size(), 1u);
    double share_sum = 0.0;
    for (const obs::JsonValue& phase : phases.items) {
      EXPECT_FALSE(phase.at("phase").as_string().empty());
      EXPECT_GE(phase.at("self_us_median").as_number(), 0.0);
      share_sum += phase.at("self_share").as_number();
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-6);
  }

  // An identical pair never regresses.
  EXPECT_EQ(shell("'" + benchd() + "' trend --gate --window=1 '" + out +
                  "' '" + out + "' --quiet"),
            0);
  // The emitted document passes validate.
  EXPECT_EQ(shell("'" + benchd() + "' validate '" + out + "' --quiet"), 0);
}

TEST(CtsBenchd, CompareModeGatesInOneInvocation) {
  // One-shot run-and-gate: 0 when the fresh document holds the baseline,
  // 1 when it regresses, 2 when there is nothing valid to gate against.
  const std::string dir = ::testing::TempDir();
  const std::string fast = dir + "/compare_fast_base.json";   // unbeatable
  const std::string slow = dir + "/compare_slow_base.json";   // unloseable
  // The fixtures gate peak RSS, not wall time: fig5's ~3 ms runs scatter
  // several-fold under load, and the fresh run's MAD widens the noise band
  // past any wall-time excess, while max_rss_kb barely moves between runs.
  // Like every cts_benchd document they name the suite and the pinned
  // scale of the run they are gated against.
  const auto fig5_doc = [](double rss_median_kb) {
    std::ostringstream os;
    os << R"({"schema":"cts.bench.v1","suite":"analytic",)"
       << R"("scale":{"repro_reps":2,"repro_frames":2000},)"
       << R"("benches":{"fig5_bop":{"metrics":{)"
       << R"("max_rss_kb":{"median":)" << rss_median_kb
       << R"(,"mad":1e-9}}}}})";
    return os.str();
  };
  write_file(fast, fig5_doc(1.0));   // any real run regresses vs this
  write_file(slow, fig5_doc(1e9));   // any real run improves vs this
  const std::string run = "'" + benchd() +
                          "' --suite=analytic --filter=fig5 --repeats=2 "
                          "--warmup=0 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + dir +
                          "/compare_out.json'";
  EXPECT_EQ(shell(run + " --compare='" + slow + "' >/dev/null 2>/dev/null"), 0);
  EXPECT_EQ(shell(run + " --compare='" + fast + "' >/dev/null 2>/dev/null"), 1);
  // A missing baseline is a usage error, not a regression.
  EXPECT_EQ(shell(run + " --compare='/no/such/BENCH.json' "
                        ">/dev/null 2>/dev/null"),
            2);
}

TEST(CtsBenchd, CompareRefusesABaselineOfAnotherScale) {
  // Medians at another REPRO scale measure other work: gating across
  // scales is an error (2) naming both, never a pass or a regression.
  const std::string dir = ::testing::TempDir();
  const std::string base = dir + "/compare_scale_base.json";
  write_file(base,
             R"({"schema":"cts.bench.v1","suite":"analytic",)"
             R"("scale":{"repro_reps":2,"repro_frames":2000},)"
             R"("benches":{"fig5_bop":{"metrics":{)"
             R"("max_rss_kb":{"median":1e9,"mad":1e-9}}}}})");
  const std::string err = dir + "/compare_scale.err";
  const std::string cmd = "'" + benchd() +
                          "' --suite=analytic --filter=fig5 --repeats=1 "
                          "--warmup=0 --reps=1 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + dir +
                          "/compare_scale_out.json' --compare='" + base +
                          "' >/dev/null 2>'" + err + "'";
  EXPECT_EQ(shell(cmd), 2) << cmd;
  const std::string text = read_file(err);
  EXPECT_NE(text.find("{repro_frames=2000 repro_reps=2}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("{repro_frames=2000 repro_reps=1}"), std::string::npos)
      << text;
}

TEST(CtsBenchd, TrendGateReadsPastALegacyHwSection) {
  // Committed baselines keep the hardware-counter section older documents
  // carried; the gate never reads it, so a same-scale pair with and
  // without one gates on the metrics alone.
  const std::string dir = ::testing::TempDir();
  const auto doc = [](double rss_median_kb, bool legacy_hw) {
    std::ostringstream os;
    os << R"({"schema":"cts.bench.v1","suite":"analytic",)"
       << R"("scale":{"repro_reps":2,"repro_frames":2000},)"
       << R"("benches":{"fig5_bop":{"metrics":{)"
       << R"("max_rss_kb":{"median":)" << rss_median_kb
       << R"(,"mad":1e-9}})";
    if (legacy_hw) {
      os << R"(,"hw":{"available":true,"backend":"tsc","counters":{)"
         << R"("cycles":{"n":1,"median":651366,"mad":0}},"ipc_median":0})";
    }
    os << "}}}";
    return os.str();
  };
  const std::string legacy = dir + "/trend_hw_a_legacy.json";
  const std::string same = dir + "/trend_hw_b_same.json";
  const std::string worse = dir + "/trend_hw_c_worse.json";
  write_file(legacy, doc(1000.0, true));
  write_file(same, doc(1000.0, false));
  write_file(worse, doc(1e9, false));
  const auto gate = [](const std::string& a, const std::string& b) {
    return shell("'" + benchd() + "' trend --gate --window=1 '" + a + "' '" +
                 b + "' --quiet >/dev/null 2>&1");
  };
  EXPECT_EQ(gate(legacy, same), 0);
  // The metrics are still gated: a thousandfold RSS step regresses.
  EXPECT_EQ(gate(legacy, worse), 1);
}

TEST(CtsBenchd, CompareRefusesAnOutThatIsTheBaseline) {
  // The document is written before the baseline is read, so --out naming
  // the baseline, under any spelling and whether or not it exists yet,
  // would gate the run against itself: exit 2 before any bench runs.
  const std::string dir = ::testing::TempDir() + "/compare_self";
  // A stub bench that leaves a marker shows whether any bench ran.
  const std::string ran = dir + "/bench_ran";
  const std::string bench_dir =
      bench_dir_with_table1(dir, "", "touch '" + ran + "'");
  const std::string base = dir + "/base.json";
  const std::string text = R"({"schema":"cts.bench.v1","benches":{}})";
  write_file(base, text);
  const std::pair<std::string, std::string> pairs[] = {
      {base, base},
      {dir + "/./base.json", base},
      {dir + "/absent.json", dir + "/../compare_self/absent.json"}};
  for (const auto& [out, compare] : pairs) {
    SCOPED_TRACE(out);
    const std::string err = dir + "/self.err";
    const std::string cmd = "'" + benchd() +
                            "' --suite=analytic --filter=table1 --repeats=1 "
                            "--warmup=0 --reps=1 --quiet --bench-dir='" +
                            bench_dir + "' --out='" + out + "' --compare='" +
                            compare + "' >/dev/null 2>'" + err + "'";
    EXPECT_EQ(shell(cmd), 2) << cmd;
    EXPECT_NE(read_file(err).find(out), std::string::npos) << read_file(err);
    EXPECT_FALSE(fs::exists(ran)) << "a bench ran";
    EXPECT_EQ(read_file(base), text);
  }
}

TEST(CtsBenchd, AnalyticBenchPhasesCarryNamedSpans) {
  // The analytic benches must attribute their inner loops (rate-function
  // scans, curve evaluations) to named phases, not just the "bench" root.
  const std::string out = ::testing::TempDir() + "/analytic_phases.json";
  const std::string cmd = "'" + benchd() +
                          "' --suite=analytic --filter=fig5 --repeats=2 "
                          "--warmup=0 --quiet --bench-dir='" +
                          CTS_BENCH_BIN_DIR + "' --out='" + out + "'";
  ASSERT_EQ(shell(cmd), 0) << cmd;
  const obs::JsonValue doc = obs::json_parse(read_file(out));
  const obs::JsonValue& phases = doc.at("benches").at("fig5_bop").at("phases");
  ASSERT_GE(phases.size(), 2u);
  bool saw_rate_fn = false;
  for (const obs::JsonValue& phase : phases.items) {
    if (phase.at("phase").as_string() == "rate_fn") saw_rate_fn = true;
  }
  EXPECT_TRUE(saw_rate_fn);
}

TEST(CtsBenchd, ListAndUsageModes) {
  const std::string list = ::testing::TempDir() + "/benchd_list.txt";
  ASSERT_EQ(shell("'" + benchd() + "' --list > '" + list + "'"), 0);
  const std::string text = read_file(list);
  EXPECT_NE(text.find("fig9_sim_markov"), std::string::npos);
  EXPECT_NE(text.find("table1"), std::string::npos);
  EXPECT_EQ(shell("'" + benchd() + "' --suite=bogus 2>/dev/null >/dev/null"),
            2);
  // The gate thresholds are fixed: a removed knob is only an unknown-flag
  // warning (the retired renderings exit 2, see CtsBenchtrend).
  const std::string err = ::testing::TempDir() + "/benchd_usage.err";
  EXPECT_EQ(shell("'" + benchd() + "' --k=-1 --list >/dev/null 2>'" + err +
                  "'"),
            0);
  EXPECT_NE(read_file(err).find("unknown flag --k"), std::string::npos)
      << read_file(err);
  // A bench knows no --md, so the retired cts_benchd --csv leaves its own
  // --csv alone.
  const std::string csv = ::testing::TempDir() + "/benchd_usage_table1.csv";
  std::remove(csv.c_str());
  EXPECT_EQ(run({std::string(CTS_BENCH_BIN_DIR) + "/bench_table1", "--quiet",
                 "--csv=" + csv},
                err)
                .exit_code,
            0);
  EXPECT_FALSE(read_file(csv).empty());
}

std::vector<std::string> table1_run(const std::string& bench_dir,
                                    const std::string& out) {
  return {benchd(), "--suite=analytic", "--filter=table1", "--repeats=1",
          "--warmup=0", "--quiet", "--bench-dir=" + bench_dir,
          "--out=" + out};
}

TEST(CtsBenchd, BenchDirWithQuoteAndSpaceRunsTable1) {
  // The directory name is passed to the bench as argv data, never through
  // a shell, so a quote in it is just a byte.
  const std::string dir = bench_dir_with_table1(
      ::testing::TempDir() + "/bench dir 'quoted'",
      std::string(CTS_BENCH_BIN_DIR) + "/bench_table1", "");
  const std::string out = dir + "/BENCH_quoted.json";
  const std::string log = ::testing::TempDir() + "/benchd_quoted.log";
  const cu::WaitOutcome outcome = run(table1_run(dir, out), log);
  ASSERT_TRUE(outcome.ok()) << outcome.describe() << "\n"
                            << read_file(log);
  const obs::JsonValue doc = obs::json_parse(read_file(out));
  EXPECT_DOUBLE_EQ(doc.at("benches").at("table1").at("runs").as_number(),
                   1.0);
}

TEST(CtsBenchd, BenchExitingOneIsReportedByItsExitStatus) {
  const std::string dir = bench_dir_with_table1(
      ::testing::TempDir() + "/benchd_exit1", "", "exit 1");
  const std::string log = dir + "/benchd.log";
  const cu::WaitOutcome outcome =
      run(table1_run(dir, dir + "/BENCH.json"), log);
  EXPECT_EQ(outcome.kind, cu::WaitOutcome::Kind::kExited);
  EXPECT_EQ(outcome.exit_code, 1);  // a bench failed
  const std::string text = read_file(log);
  EXPECT_NE(text.find("FAILED table1: bench_table1 exited with status 1\n"),
            std::string::npos)
      << text;
}

TEST(CtsBenchd, BenchKilledBySignalIsReportedByTheSignal) {
  const std::string dir = bench_dir_with_table1(
      ::testing::TempDir() + "/benchd_segv", "", "kill -SEGV $$");
  const std::string log = dir + "/benchd.log";
  const cu::WaitOutcome outcome =
      run(table1_run(dir, dir + "/BENCH.json"), log);
  EXPECT_EQ(outcome.exit_code, 1);
  const std::string text = read_file(log);
  EXPECT_NE(text.find("FAILED table1: bench_table1 killed by signal 11 ("),
            std::string::npos)
      << text;
}

TEST(BenchBinaries, MalformedFlagValueExitsTwo) {
  // An InvalidArgument from a typed flag accessor must not escape main as
  // an abort (exit 134): the bench names itself and the flag, exits 2.
  const std::string log = ::testing::TempDir() + "/bench_bad_flag.log";
  const std::string bench =
      std::string(CTS_BENCH_BIN_DIR) + "/bench_ablation_cutoff";
  for (const char* value : {"abc", "inf", "1.5x"}) {
    SCOPED_TRACE(value);
    const cu::WaitOutcome outcome =
        run({bench, "--quiet", std::string("--buffer-ms=") + value}, log);
    EXPECT_EQ(outcome.kind, cu::WaitOutcome::Kind::kExited);
    EXPECT_EQ(outcome.exit_code, 2);
    EXPECT_NE(read_file(log).find("ablation_cutoff: Flags: --buffer-ms "
                                  "expects a number, got '" +
                                  std::string(value) + "'"),
              std::string::npos)
        << read_file(log);
  }
}

TEST(BenchBinaries, RetiredProfileFlagsExitTwoNamingPerf) {
  // --perf carries the span-path table: the retired profile flags are a
  // usage error, so a script that still passes one notices at once instead
  // of getting no profile.
  const std::string log = ::testing::TempDir() + "/bench_retired_flag.log";
  const std::string profile = ::testing::TempDir() + "/bench_retired.json";
  const std::string bench = std::string(CTS_BENCH_BIN_DIR) + "/bench_table1";
  for (const char* flag : {"profile", "profile-folded"}) {
    SCOPED_TRACE(flag);
    std::remove(profile.c_str());
    const cu::WaitOutcome outcome = run(
        {bench, "--quiet", std::string("--") + flag + "=" + profile}, log);
    EXPECT_EQ(outcome.kind, cu::WaitOutcome::Kind::kExited);
    EXPECT_EQ(outcome.exit_code, 2);
    EXPECT_NE(read_file(log).find("table1: --" + std::string(flag) +
                                  " was removed; use --perf"),
              std::string::npos)
        << read_file(log);
    EXPECT_FALSE(std::filesystem::exists(profile));
  }
}

TEST(BenchBinaries, HelpPrintsFlagListAndExitsZero) {
  const std::string out = ::testing::TempDir() + "/bench_help.txt";
  const std::string bench = std::string(CTS_BENCH_BIN_DIR) + "/bench_table1";
  ASSERT_EQ(shell("'" + bench + "' --help > '" + out + "'"), 0);
  const std::string text = read_file(out);
  EXPECT_NE(text.find("--metrics"), std::string::npos);
  EXPECT_NE(text.find("--perf"), std::string::npos);
  EXPECT_NE(text.find("--trace"), std::string::npos);
  EXPECT_NE(text.find("--help"), std::string::npos);
}

#else

TEST(ToolsE2e, DISABLED_ToolsNotBuilt) {}

#endif  // CTS_TOOLS_BIN_DIR && CTS_BENCH_BIN_DIR

}  // namespace

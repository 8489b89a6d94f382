// End-to-end tests of the bench gate, `cts_benchd trend` and `cts_benchd
// validate`: a synthetic three-baseline chain with injected drift must
// produce the markdown report and trip the --gate exit code, a stable
// chain must stay green, the two-file window-1 gate must fail only a
// regressed candidate, baselines of different scales must never be gated
// against each other, validate must accept only cts.bench.v1 documents,
// bad gate flags and the retired renderings must be usage errors, and the
// committed docs/TREND.md must be what `trend` renders over the committed
// baselines; the CtsBenchcmp cases cover the offline two-file
// validate/gate surface.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

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

int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

#if defined(CTS_TOOLS_BIN_DIR)

/// `cts_benchd <command>`, quoted for the shell.
std::string benchd(const std::string& command) {
  return "'" + std::string(CTS_TOOLS_BIN_DIR) + "/cts_benchd' " + command;
}

/// A cts.bench.v1 baseline with one bench and a full wall_s summary, at
/// the given "scale" object ("" = none).
std::string baseline_doc(const std::string& date, double median,
                         const std::string& scale = "") {
  std::ostringstream os;
  os << R"({"schema":"cts.bench.v1","suite":"smoke","generated":")" << date
     << R"(",)" << (scale.empty() ? "" : R"("scale":)" + scale + ",")
     << R"("benches":{"fig9_sim_markov":{"metrics":{"wall_s":{)"
     << R"("n":5,"median":)" << median
     << R"(,"mad":0.01,"ci95_lo":0.9,"ci95_hi":1.1}}}}})";
  return os.str();
}

/// Writes a three-baseline chain into `dir` (created if needed; one per
/// test, as ctest runs them in parallel) and returns the file list.
std::string write_chain(const std::string& dir, double m1, double m2,
                        double m3) {
  std::filesystem::create_directories(dir);
  const std::string f1 = dir + "/BENCH_2026-08-01.json";
  const std::string f2 = dir + "/BENCH_2026-08-02.json";
  const std::string f3 = dir + "/BENCH_2026-08-03.json";
  write_file(f1, baseline_doc("2026-08-01", m1));
  write_file(f2, baseline_doc("2026-08-02", m2));
  write_file(f3, baseline_doc("2026-08-03", m3));
  // Deliberately out of date order: the tool must sort by "generated".
  return "'" + f3 + "' '" + f1 + "' '" + f2 + "'";
}

TEST(CtsBenchtrend, InjectedDriftProducesArtifactsAndTripsGate) {
  const std::string dir = ::testing::TempDir();
  // Last two baselines +50% over the first: sustained drift.
  const std::string files = write_chain(dir + "/trend_drift", 1.0, 1.5, 1.55);
  const std::string md = dir + "/trend_drift.md";
  const std::string err = dir + "/trend_drift.err";
  const std::string cmd = benchd("trend ") + files + " --md='" + md +
                          "' --gate --quiet 2>'" + err + "'";
  EXPECT_EQ(shell(cmd), 1) << cmd;
  EXPECT_NE(read_file(err).find("REGRESSION: fig9_sim_markov wall_s +55.0%"),
            std::string::npos)
      << read_file(err);

  const std::string md_text = read_file(md);
  EXPECT_NE(md_text.find("DRIFT"), std::string::npos);
  // Sorted oldest first despite shuffled argv order.
  EXPECT_LT(md_text.find("BENCH_2026-08-01"), md_text.find("BENCH_2026-08-03"));
  EXPECT_NE(md_text.find("| fig9_sim_markov |"), std::string::npos);
}

TEST(CtsBenchtrend, StableChainStaysGreenEvenWithGate) {
  const std::string dir = ::testing::TempDir();
  const std::string files =
      write_chain(dir + "/trend_stable", 1.0, 1.001, 0.999);
  EXPECT_EQ(shell(benchd("trend ") + files + " --gate --quiet >/dev/null"), 0);
}

TEST(CtsBenchtrend, TwoFileGateFailsOnlyARegressedCandidate) {
  // The offline form of cts_benchd --compare: a two-point trajectory with
  // a window of one over the default gate metrics.  The summaries carry
  // only median and mad, like the --compare fixtures; the "generated"
  // dates order the pair, whatever the argv order.
  const std::string dir = ::testing::TempDir();
  const auto write_doc = [&dir](const std::string& name,
                                const std::string& date, double median) {
    std::ostringstream os;
    os << R"({"schema":"cts.bench.v1","generated":")" << date
       << R"(","benches":{"fig9_sim_markov":{"metrics":{"wall_s":)"
       << R"({"median":)" << median << R"(,"mad":0.01}}}}})";
    const std::string path = dir + "/trend_pair_" + name + ".json";
    write_file(path, os.str());
    return path;
  };
  const auto gate = [](const std::string& a, const std::string& b) {
    return shell(benchd("trend --gate --window=1 '") + a + "' '" + b +
                 "' --quiet 2>/dev/null");
  };
  const std::string base = write_doc("base", "2026-08-01", 1.0);
  // +50%, far beyond 3 x MAD and 5%.
  const std::string worse = write_doc("worse", "2026-08-02", 1.5);
  const std::string better = write_doc("better", "2026-08-02", 0.5);
  EXPECT_EQ(gate(base, base), 0);
  EXPECT_EQ(gate(base, worse), 1);
  EXPECT_EQ(gate(worse, base), 1);
  // The improvement direction never fails.
  EXPECT_EQ(gate(base, better), 0);
}

TEST(CtsBenchtrend, BaselinesOfAnotherScaleAreNeverGatedTogether) {
  // Medians at 2 x 2000 and 4 x 2000 measure different work: a +50% step
  // across scales is no regression, and a pair with nothing comparable is
  // an error naming both scales.
  const std::string dir = ::testing::TempDir() + "/trend_scales";
  std::filesystem::create_directories(dir);
  const std::string small = R"({"repro_reps":2,"repro_frames":2000})";
  const std::string large = R"({"repro_reps":4,"repro_frames":2000})";
  const std::string a = dir + "/BENCH_a.json";
  const std::string b = dir + "/BENCH_b.json";
  const std::string c = dir + "/BENCH_c.json";
  write_file(a, baseline_doc("2026-08-01", 1.0, small));
  write_file(b, baseline_doc("2026-08-02", 1.0, small));
  write_file(c, baseline_doc("2026-08-03", 1.5, large));
  const std::string err = dir + "/trend.err";
  EXPECT_EQ(shell(benchd("trend --gate --window=1 '") + a + "' '" + b +
                  "' '" + c + "' --quiet 2>'" + err + "'"),
            0);
  EXPECT_NE(read_file(err).find("scale {repro_frames=2000 repro_reps=4} has "
                                "only one baseline"),
            std::string::npos)
      << read_file(err);

  EXPECT_EQ(shell(benchd("trend --gate --window=1 '") + a + "' '" + c +
                  "' --quiet 2>'" + err + "'"),
            2);
  const std::string text = read_file(err);
  EXPECT_NE(text.find("{repro_frames=2000 repro_reps=2}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("{repro_frames=2000 repro_reps=4}"), std::string::npos)
      << text;
}

TEST(CtsBenchtrend, ValidateAcceptsOnlyBenchDocuments) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/trend_validate_good.json";
  const std::string bad = dir + "/trend_validate_bad.json";
  write_file(good, baseline_doc("2026-08-01", 1.0));
  write_file(bad, R"({"schema":"cts.perf.v1"})");
  EXPECT_EQ(shell(benchd("validate '") + good + "' --quiet >/dev/null"), 0);
  EXPECT_EQ(shell(benchd("validate '") + bad + "' --quiet 2>/dev/null"), 2);
}

TEST(CtsBenchtrend, UsageErrorsExitTwo) {
  const std::string dir = ::testing::TempDir();
  const std::string lone = dir + "/trend_lone.json";
  write_file(lone, baseline_doc("2026-08-01", 1.0));
  // A trajectory needs at least two baselines.
  EXPECT_EQ(shell(benchd("trend '") + lone + "' 2>/dev/null"), 2);
  // An empty directory scan is an error, not silent success.
  const std::string empty = dir + "/trend_empty_dir";
  std::filesystem::create_directories(empty);
  EXPECT_EQ(shell("cd '" + empty + "' && " + benchd("trend 2>/dev/null")), 2);
  EXPECT_EQ(shell(benchd("--help >/dev/null")), 0);
  EXPECT_EQ(shell(benchd("bogus 2>/dev/null")), 2);
  // A window that would mean "every point" or no point is rejected with
  // the flag and value, and the retired renderings name the markdown
  // report that replaced them.
  const std::string other = dir + "/trend_lone2.json";
  write_file(other, baseline_doc("2026-08-02", 1.0));
  const std::string files = "'" + lone + "' '" + other + "'";
  const std::string err = dir + "/trend_usage.err";
  const std::string chart = dir + "/trend_usage.svg";
  using FlagAndMessage = std::pair<std::string, std::string>;
  for (const auto& [flag, message] :
       {FlagAndMessage{"--window=-1", "--window must be >= 1, got -1"},
        {"--window=0", "--window must be >= 1, got 0"},
        {"--svg='" + chart + "'", "--svg was removed; use --md"},
        {"--csv='" + chart + "'", "--csv was removed; use --md"}}) {
    EXPECT_EQ(shell(benchd("trend ") + flag + " " + files + " --quiet 2>'" +
                    err + "'"),
              2)
        << flag;
    EXPECT_NE(read_file(err).find(message), std::string::npos) << flag;
  }
  EXPECT_FALSE(std::filesystem::exists(chart));
}

TEST(CtsBenchtrend, DocsTrendMatchesTheCommittedBaselines) {
  // docs/TREND.md is the trend over the committed BENCH_*.json: a baseline
  // committed without regenerating it, or a renderer change, fails here.
  std::string files;
  for (const auto& entry :
       std::filesystem::directory_iterator(CTS_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      files += " '" + entry.path().string() + "'";
    }
  }
  ASSERT_FALSE(files.empty());
  const std::string md = ::testing::TempDir() + "/trend_docs.md";
  EXPECT_EQ(shell(benchd("trend --md='") + md + "'" + files + " --quiet"), 0);
  const std::string committed =
      read_file(std::string(CTS_SOURCE_DIR) + "/docs/TREND.md");
  ASSERT_FALSE(committed.empty());
  EXPECT_TRUE(read_file(md) == committed)
      << "docs/TREND.md is stale: regenerate it with `cts_benchd trend "
         "--md=docs/TREND.md BENCH_*.json --quiet`";
}

// CtsBenchcmp: the offline two-file compare and validate surface
// (`cts_benchd trend --gate --window=1 A B`, `cts_benchd validate`).

/// The offline two-file gate over the default gate metrics.
std::string two_file_gate() { return benchd("trend --gate --window=1"); }

TEST(CtsBenchcmp, ValidateRejectsMalformedJson) {
  const std::string good = ::testing::TempDir() + "/validate_good.json";
  const std::string bad = ::testing::TempDir() + "/validate_bad.json";
  write_file(good, baseline_doc("2026-08-01", 1.0));
  write_file(bad, "{\"schema\":\"cts.bench.v1\",}");
  EXPECT_EQ(shell(benchd("validate '") + good + "' --quiet >/dev/null"), 0);
  EXPECT_EQ(shell(benchd("validate '") + bad + "' --quiet 2>/dev/null"), 2);
  EXPECT_EQ(shell(benchd("validate /no/such/file.json --quiet 2>/dev/null")),
            2);
  // validate with no files has nothing to check.
  EXPECT_EQ(shell(benchd("validate >/dev/null")), 2);
}

TEST(CtsBenchcmp, UsageErrorsExitTwo) {
  // The two-file gate with no files (it then scans the working directory,
  // here an empty one), or only one, has nothing to gate.
  const std::string empty = ::testing::TempDir() + "/benchcmp_empty";
  std::filesystem::create_directories(empty);
  const std::string lone = ::testing::TempDir() + "/benchcmp_lone.json";
  write_file(lone, baseline_doc("2026-08-01", 1.0));
  EXPECT_EQ(shell("cd '" + empty + "' && " + two_file_gate() +
                  " 2>/dev/null >/dev/null"),
            2);
  EXPECT_EQ(shell(two_file_gate() + " '" + lone + "' 2>/dev/null >/dev/null"),
            2);
  EXPECT_EQ(shell(two_file_gate() + " --help >/dev/null"), 0);
}

TEST(CtsBenchcmp, ValidateRejectsMissingAndUnknownSchema) {
  // Valid JSON is not enough: a schema-less or foreign document must be
  // rejected so a stray file can never pass as a perf baseline.
  const std::string no_schema = ::testing::TempDir() + "/validate_noschema.json";
  const std::string wrong = ::testing::TempDir() + "/validate_wrong.json";
  write_file(no_schema, R"({"benches":{}})");
  write_file(wrong, R"({"schema":"cts.perf.v1","benches":{}})");
  EXPECT_EQ(shell(benchd("validate '") + no_schema + "' --quiet 2>/dev/null"),
            2);
  EXPECT_EQ(shell(benchd("validate '") + wrong + "' --quiet 2>/dev/null"), 2);
}

#else

TEST(BenchtrendE2e, DISABLED_ToolsNotBuilt) {}

#endif  // CTS_TOOLS_BIN_DIR

}  // namespace

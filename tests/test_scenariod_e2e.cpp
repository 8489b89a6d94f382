// End-to-end tests for tools/cts_scenariod against the COMMITTED example
// specs: check mode (which must reject the models run rejects), a
// reduced-scale run of the tandem spec, the 2-shard merge byte-identity
// guarantee (cmp-equal files, the same diff CI runs), cts_obstop --validate
// on every emitted artifact, the ATM shaping metrics in the --metrics run
// report, and structured exit-2 errors.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/wait.h>

#include "cts/util/file.hpp"

namespace cu = cts::util;

namespace {

int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

#if defined(CTS_TOOLS_BIN_DIR) && defined(CTS_EXAMPLES_DIR)

std::string scenariod() {
  return std::string(CTS_TOOLS_BIN_DIR) + "/cts_scenariod";
}

std::string obstop() {
  return std::string(CTS_TOOLS_BIN_DIR) + "/cts_obstop";
}

std::string spec(const std::string& name) {
  return std::string(CTS_EXAMPLES_DIR) + "/" + name;
}

std::string tmp(const std::string& name) {
  return ::testing::TempDir() + "/scenariod_" + name;
}

/// Runs cts_scenariod with `args`, captures stdout+stderr into *out.  The
/// capture file is per test: ctest runs these tests as parallel processes.
int run_tool(const std::string& args, std::string* out) {
  const std::string path =
      tmp(std::string(
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
          "_out.txt");
  const int rc = shell("'" + scenariod() + "' " + args + " >'" + path +
                       "' 2>&1");
  *out = cu::read_text_file(path);
  return rc;
}

// Reduced scale shared by the run tests: fast, but large enough that the
// tandem spec exercises every hop.
const char* kScale = "--reps=2 --frames=300 --warmup=50 --quiet";

TEST(ScenariodE2e, CheckModeAcceptsEveryCommittedSpec) {
  std::size_t specs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CTS_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    ++specs;
    std::string out;
    EXPECT_EQ(run_tool("check '" + entry.path().string() + "'", &out), 0)
        << entry.path() << "\n" << out;
    EXPECT_NE(out.find("ok: scenario"), std::string::npos) << out;
  }
  EXPECT_GE(specs, 5u);
}

/// The "error: ..." line of a tool capture, or "" when there is none.
std::string error_line(const std::string& out) {
  const std::size_t at = out.find("error: ");
  if (at == std::string::npos) return "";
  return out.substr(at, out.find('\n', at) - at);
}

TEST(ScenariodE2e, CheckRejectsTheModelsRunRejects) {
  for (const char* model : {"za:5", "vv:inf", "za:nan", "ar1:nan"}) {
    const std::string path = tmp("bad_model.scn");
    {
      std::ofstream out(path);
      out << "cts.scenario.v1\n[scenario]\nframes = 20\nreplications = 1\n"
             "[source s]\nmodel = "
          << model << "\n[hop m]\ninput = s\ncapacity = 600\nbuffer = 100\n";
      ASSERT_TRUE(out.good());
    }
    std::string checked, ran;
    EXPECT_EQ(run_tool("check '" + path + "'", &checked), 2) << model;
    EXPECT_EQ(run_tool("run '" + path + "' --quiet --out='" +
                           tmp("bad_model.json") + "'",
                       &ran),
              2)
        << model;
    EXPECT_FALSE(error_line(checked).empty()) << checked;
    EXPECT_EQ(error_line(checked), error_line(ran)) << model;
  }
}

TEST(ScenariodE2e, TandemRunsEndToEndAndTwoShardMergeIsByteIdentical) {
  const std::string tandem = spec("tandem_3hop.scn");
  const std::string single = tmp("single.json");
  const std::string trace = tmp("trace.json");
  std::string out;

  ASSERT_EQ(run_tool("run '" + tandem + "' " + kScale + " --out='" +
                         single + "' --hop-trace='" + trace + "'",
                     &out),
            0)
      << out;
  EXPECT_NE(out.find("hop edge"), std::string::npos) << out;
  EXPECT_NE(out.find("hop core"), std::string::npos) << out;

  const std::string p0 = tmp("p0.json");
  const std::string p1 = tmp("p1.json");
  ASSERT_EQ(run_tool("run '" + tandem + "' " + kScale +
                         " --shard=0/2 --out='" + p0 + "'",
                     &out),
            0)
      << out;
  ASSERT_EQ(run_tool("run '" + tandem + "' " + kScale +
                         " --shard=1/2 --out='" + p1 + "'",
                     &out),
            0)
      << out;

  const std::string merged = tmp("merged.json");
  ASSERT_EQ(run_tool("merge '" + p0 + "' '" + p1 + "' --out='" + merged +
                         "'",
                     &out),
            0)
      << out;
  // The headline guarantee: cmp-equal, not just numerically close.
  EXPECT_EQ(cu::read_text_file(merged), cu::read_text_file(single));

  // Every artifact passes the strict validator.
  EXPECT_EQ(shell("'" + obstop() + "' --validate '" + single + "' '" +
                  trace + "' '" + p0 + "' '" + p1 + "' '" + merged +
                  "' > /dev/null 2>&1"),
            0);
}

TEST(ScenariodE2e, MetricsReportCarriesAtmShapingMetrics) {
  const std::string metrics = tmp("metrics.json");
  std::string out;
  ASSERT_EQ(run_tool("run '" + spec("policed_smoothed.scn") + "' " + kScale +
                         " --out='" + tmp("ps.json") + "' --metrics='" +
                         metrics + "'",
                     &out),
            0)
      << out;
  const std::string report = cu::read_text_file(metrics);
  for (const char* metric :
       {"atm.smoothing.frames", "atm.smoothing.cells_in", "atm.gcra.cells",
        "atm.gcra.nonconforming", "atm.aal5.pdus", "atm.aal5.cells",
        "scenario.replications", "scenario.arrived_cells"}) {
    EXPECT_NE(report.find(metric), std::string::npos)
        << "--metrics report is missing " << metric;
  }
}

TEST(ScenariodE2e, BadSpecExitsTwoNamingLineAndKey) {
  const std::string bad = tmp("bad.scn");
  {
    std::ofstream out(bad);
    out << "cts.scenario.v1\n[source s]\nmodel = white\n[hop m]\n"
           "input = s\ncapacity = 600\nbufer = 100\n";
    ASSERT_TRUE(out.good());
  }
  std::string out;
  EXPECT_EQ(run_tool("check '" + bad + "'", &out), 2);
  EXPECT_NE(out.find("line 7"), std::string::npos) << out;
  EXPECT_NE(out.find("bufer"), std::string::npos) << out;
  EXPECT_NE(out.find("buffer"), std::string::npos) << out;  // suggestion
}

TEST(ScenariodE2e, IncompleteMergeExitsTwo) {
  const std::string p0 = tmp("lonely.json");
  std::string out;
  ASSERT_EQ(run_tool("run '" + spec("tandem_3hop.scn") + "' " + kScale +
                         " --shard=0/2 --out='" + p0 + "'",
                     &out),
            0)
      << out;
  EXPECT_EQ(run_tool("merge '" + p0 + "' --out='" + tmp("nope.json") + "'",
                     &out),
            2);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
}

TEST(ScenariodE2e, PolicedFrameBeyondTwoTo53CellsExitsTwo) {
  const std::string huge = tmp("huge.scn");
  {
    std::ofstream out(huge);
    out << "cts.scenario.v1\n[scenario]\nframes = 4\nreplications = 1\n"
           "[source big]\nkind = white\nmean = 1e20\nvariance = 1\n"
           "police_scr = 13750\n[hop m]\ninput = big\ncapacity = 1e13\n"
           "buffer = 1e12\n";
    ASSERT_TRUE(out.good());
  }
  std::string out;
  EXPECT_EQ(run_tool("run '" + huge + "' --quiet --out='" +
                         tmp("huge.json") + "'",
                     &out),
            2);
  EXPECT_NE(out.find("error: frame of 1"), std::string::npos) << out;
}

TEST(ScenariodE2e, SeedBeyondSixtyFourBitsExitsTwo) {
  const std::string huge = "99999999999999999999999";
  std::string out;
  EXPECT_EQ(run_tool("run '" + spec("tandem_3hop.scn") + "' " + kScale +
                         " --seed=" + huge + " --out='" +
                         tmp("seed_overflow.json") + "'",
                     &out),
            2);
  EXPECT_NE(out.find("--seed expects a decimal unsigned 64-bit integer"),
            std::string::npos)
      << out;

  // Partials whose seed strings overflow agree with each other, so only
  // the seed check itself can refuse the merge.
  std::string parts;
  for (const char* shard : {"0/2", "1/2"}) {
    const std::string part = tmp(std::string("seed_part_") + shard[0] +
                                 ".json");
    ASSERT_EQ(run_tool("run '" + spec("tandem_3hop.scn") + "' " + kScale +
                           " --shard=" + shard + " --out='" + part + "'",
                       &out),
              0)
        << out;
    std::string text = cu::read_text_file(part);
    const std::size_t at = text.find("\"seed\":\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t begin = at + 8;
    text.replace(begin, text.find('"', begin) - begin, huge);
    std::ofstream(part, std::ios::binary) << text;
    parts += " '" + part + "'";
  }
  EXPECT_EQ(run_tool("merge" + parts + " --out='" +
                         tmp("seed_merged.json") + "'",
                     &out),
            2);
  EXPECT_NE(out.find("seed must be a decimal unsigned 64-bit string"),
            std::string::npos)
      << out;
}

TEST(ScenariodE2e, UnknownModeAndMissingSpecExitTwo) {
  std::string out;
  EXPECT_EQ(run_tool("frobnicate", &out), 2);
  EXPECT_NE(out.find("unknown mode"), std::string::npos) << out;
  EXPECT_EQ(run_tool("check '" + tmp("does_not_exist.scn") + "'", &out), 2);
}

#else
TEST(ScenariodE2e, DISABLED_NeedsToolAndExamplesDirs) {}
#endif

}  // namespace

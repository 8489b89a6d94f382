// Regression tests for strict --slo threshold parsing in cts_obstop: a
// malformed threshold must exit 2 with an error naming the entry and the
// offending value.  Before the fix, std::stod silently accepted trailing
// junk ("250abc" gated at 250 ms) -- a typo'd objective then passed or
// failed CI on the wrong number.  Also pins that --openmetrics is a
// retired flag, not a mode of the tool.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include "cts/util/file.hpp"

namespace cu = cts::util;

namespace {

/// Runs `command` through the shell and returns the child's exit code.
int shell(const std::string& command) {
  const int rc = std::system(command.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

#if defined(CTS_TOOLS_BIN_DIR)

std::string obstop() {
  return std::string(CTS_TOOLS_BIN_DIR) + "/cts_obstop";
}

/// Runs cts_obstop with `args`, captures stderr, and returns the exit
/// code; the captured stderr is stored in *err.
int run_obstop(const std::string& args, std::string* err) {
  // One file per test: ctest runs these cases as concurrent processes.
  const std::string err_path =
      ::testing::TempDir() + "/obstop_cli_err_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  const int rc = shell("'" + obstop() + "' " + args + " > /dev/null 2>'" +
                       err_path + "'");
  *err = cu::read_text_file(err_path);
  return rc;
}

TEST(ObstopCli, TrailingJunkThresholdExitsTwoNamingEntryAndValue) {
  std::string err;
  const int rc = run_obstop(
      "--workers=127.0.0.1:1 --slo=shardd.job_wall_ms:p99:250abc --check "
      "--quiet",
      &err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("shardd.job_wall_ms:p99:250abc"), std::string::npos)
      << err;
  EXPECT_NE(err.find("250abc"), std::string::npos) << err;
  EXPECT_NE(err.find("threshold"), std::string::npos) << err;
}

TEST(ObstopCli, NonNumericAndEmptyThresholdsExitTwo) {
  std::string err;
  EXPECT_EQ(run_obstop("--workers=127.0.0.1:1 "
                       "--slo=shardd.job_wall_ms:p99:abc --check --quiet",
                       &err),
            2);
  EXPECT_NE(err.find("abc"), std::string::npos) << err;

  EXPECT_EQ(run_obstop("--workers=127.0.0.1:1 "
                       "--slo=shardd.job_wall_ms:p99: --check --quiet",
                       &err),
            2);
  EXPECT_NE(err.find("threshold"), std::string::npos) << err;
}

TEST(ObstopCli, WellFormedSloPassesParsingAndFailsOnlyOnTheQuery) {
  // Nothing listens on port 1, so a valid objective gets past parsing and
  // fails with the query exit code 1 -- NOT the usage error 2.
  std::string err;
  EXPECT_EQ(run_obstop("--workers=127.0.0.1:1 "
                       "--slo=shardd.job_wall_ms:p99:250 --check --quiet",
                       &err),
            1);
}

TEST(ObstopCli, OpenMetricsIsAnUnknownFlag) {
  // JSON is the only stats encoding: --openmetrics is a retired flag, a
  // usage error naming --json, with or without --workers: with a worker, a
  // warning alone would leave the live table polling until interrupted.
  std::string err;
  EXPECT_EQ(run_obstop("--openmetrics", &err), 2);
  EXPECT_NE(err.find("--openmetrics was removed; use --json"),
            std::string::npos)
      << err;

  EXPECT_EQ(run_obstop("--workers=127.0.0.1:1 --openmetrics --iterations=1 "
                       "--quiet",
                       &err),
            2);
  EXPECT_NE(err.find("--openmetrics was removed; use --json"),
            std::string::npos)
      << err;
}

#endif  // CTS_TOOLS_BIN_DIR

}  // namespace

// Unit tests for the file helpers (read_text_file / write_text_file /
// make_dirs), the child launcher (spawn_child) and the deadline
// child-waiter (wait_child) behind cts_simd, cts_shardd and cts_benchd:
// unreadable or unwritable paths must fail naming the path and errno (and
// end the tools that write through write_text_file with exit 2), nested
// --out-dir chains must be created like mkdir -p, a child must see its
// argv and environment exactly as given, and a wedged child must be killed
// and reported with the terminating signal named.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/subprocess.hpp"

namespace cu = cts::util;

namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

TEST(ReadTextFile, ReadsContents) {
  const std::string path = temp_path("read_ok.txt");
  std::ofstream(path) << "hello\nworld\n";
  EXPECT_EQ(cu::read_text_file(path), "hello\nworld\n");
}

TEST(ReadTextFile, EmptyExistingFileIsEmptyStringNotError) {
  const std::string path = temp_path("read_empty.txt");
  std::ofstream(path).flush();
  EXPECT_EQ(cu::read_text_file(path), "");
}

TEST(ReadTextFile, MissingFileThrowsNamingPathAndErrno) {
  const std::string path = temp_path("no_such_file.json");
  try {
    cu::read_text_file(path);
    FAIL() << "expected InvalidArgument";
  } catch (const cu::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
}

TEST(ReadTextFile, NonThrowingVariantReportsTheSameMessage) {
  const std::string path = temp_path("no_such_file_2.json");
  std::string out = "unchanged";
  std::string error;
  EXPECT_FALSE(cu::read_text_file(path, &out, &error));
  EXPECT_EQ(out, "unchanged");
  EXPECT_NE(error.find(path), std::string::npos) << error;

  EXPECT_TRUE(cu::read_text_file(__FILE__, &out, &error));
  EXPECT_NE(out.find("NonThrowingVariantReportsTheSameMessage"),
            std::string::npos);
}

TEST(WriteTextFile, ReplacesContents) {
  const std::string path = temp_path("write_ok.txt");
  std::ofstream(path) << "stale contents, longer than the new ones\n";
  cu::write_text_file(path, "fresh\n");
  EXPECT_EQ(cu::read_text_file(path), "fresh\n");
}

/// Runs `argv` without a shell, output to `log`; returns its exit code.
int exit_code_of(const std::vector<std::string>& argv,
                 const std::string& log) {
  cu::ChildSpec spec;
  spec.argv = argv;
  spec.output_path = log;
  std::string error;
  const pid_t pid = cu::spawn_child(spec, &error);
  EXPECT_GT(pid, 0) << error;
  if (pid <= 0) return -1;
  const cu::WaitOutcome outcome = cu::wait_child(pid, 120.0);
  return outcome.kind == cu::WaitOutcome::Kind::kExited ? outcome.exit_code
                                                        : -1;
}

TEST(WriteTextFile, UnwritablePathThrowsNamingItAndToolsExitTwo) {
  const std::string path = temp_path("no_such_dir/out.txt");
  try {
    cu::write_text_file(path, "text");
    FAIL() << "expected InvalidArgument";
  } catch (const cu::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
#if defined(CTS_TOOLS_BIN_DIR)
  const std::string tools = CTS_TOOLS_BIN_DIR;
  const std::string log = temp_path("write_tools.log");
  const std::string bench = temp_path("write_BENCH.json");
  std::ofstream(bench) << R"({"schema":"cts.bench.v1","benches":{"b":)"
                          R"({"metrics":{"wall_s":{"median":1,"mad":0}}}}})";
  EXPECT_EQ(exit_code_of({tools + "/cts_benchd", "trend", bench, bench,
                          "--md=" + path, "--quiet"},
                         log),
            2);
  EXPECT_NE(cu::read_text_file(log).find("cannot write " + path),
            std::string::npos)
      << cu::read_text_file(log);

  const std::string spec = temp_path("write_spec.scn");
  std::ofstream(spec) << "cts.scenario.v1\n\n[scenario]\nname = tiny\n"
                         "frames = 200\nwarmup = 10\nreplications = 1\n\n"
                         "[source s]\nmodel = white\ncount = 2\n\n"
                         "[hop mux]\ninput = s\ncapacity = 2000\n"
                         "buffer = 100\n";
  EXPECT_EQ(exit_code_of({tools + "/cts_scenariod", "run", spec,
                          "--out=" + path, "--quiet"},
                         log),
            2);
  EXPECT_NE(cu::read_text_file(log).find("cannot write " + path),
            std::string::npos)
      << cu::read_text_file(log);
#endif
}

TEST(MakeDirs, CreatesNestedChain) {
  const std::string root = temp_path("mkdirs_a");
  const std::string nested = root + "/b/c/d";
  cu::make_dirs(nested);
  struct stat st{};
  ASSERT_EQ(::stat(nested.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  cu::make_dirs(nested);  // idempotent: an existing chain is not an error
}

TEST(MakeDirs, ExistingFileInTheChainThrowsNamingComponent) {
  const std::string root = temp_path("mkdirs_file");
  std::ofstream(root) << "not a directory";
  try {
    cu::make_dirs(root + "/sub");
    FAIL() << "expected InvalidArgument";
  } catch (const cu::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(root), std::string::npos)
        << e.what();
  }
}

TEST(MakeDirs, PathThatIsAFileThrows) {
  const std::string path = temp_path("mkdirs_leaf_file");
  std::ofstream(path) << "x";
  EXPECT_THROW(cu::make_dirs(path), cu::InvalidArgument);
}

TEST(WaitChild, ReportsCleanExit) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(0);
  const cu::WaitOutcome outcome = cu::wait_child(pid, 10.0);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.kind, cu::WaitOutcome::Kind::kExited);
}

TEST(WaitChild, ReportsNonZeroExitStatus) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(7);
  const cu::WaitOutcome outcome = cu::wait_child(pid, 10.0);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.kind, cu::WaitOutcome::Kind::kExited);
  EXPECT_EQ(outcome.exit_code, 7);
  EXPECT_NE(outcome.describe().find("status 7"), std::string::npos)
      << outcome.describe();
}

TEST(WaitChild, NamesTheTerminatingSignal) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::raise(SIGTERM);
    ::_exit(0);  // not reached
  }
  const cu::WaitOutcome outcome = cu::wait_child(pid, 10.0);
  EXPECT_EQ(outcome.kind, cu::WaitOutcome::Kind::kSignaled);
  EXPECT_EQ(outcome.signal, SIGTERM);
  const std::string text = outcome.describe();
  EXPECT_NE(text.find("signal"), std::string::npos) << text;
  EXPECT_NE(text.find("Terminated"), std::string::npos) << text;
}

TEST(WaitChild, KillsAndReportsAStragglerPastTheDeadline) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // A worker that would block the orchestrator forever without the
    // deadline (pre-fix cts_simd sat in waitpid indefinitely).
    for (;;) ::pause();
  }
  const cu::WaitOutcome outcome = cu::wait_child(pid, 0.2);
  EXPECT_EQ(outcome.kind, cu::WaitOutcome::Kind::kTimeout);
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.describe().find("timed out"), std::string::npos)
      << outcome.describe();
  // The child is reaped (kill + blocking wait), not leaked: a second wait
  // on the pid fails because it no longer exists.
  EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1);
}

/// Runs `script` with /bin/sh -c (extra arguments become $1...), output to
/// `out`; returns how it ended.
cu::WaitOutcome run_sh(const std::string& script,
                       const std::vector<std::string>& args,
                       const std::string& out, double timeout_s = 10.0,
                       cu::ChildSpec spec = {}) {
  spec.argv = {"/bin/sh", "-c", script, "sh"};
  spec.argv.insert(spec.argv.end(), args.begin(), args.end());
  spec.output_path = out;
  std::string error;
  const pid_t pid = cu::spawn_child(spec, &error);
  EXPECT_GT(pid, 0) << error;
  if (pid <= 0) return {};
  return cu::wait_child(pid, timeout_s);
}

TEST(SpawnChild, ArgvReachesTheChildByteForByte) {
  const std::string out = temp_path("spawn_argv.txt");
  // No shell parses these: a space, quotes, a $ and a backslash survive.
  const cu::WaitOutcome outcome =
      run_sh("printf '<%s>' \"$@\"",
             {"a b", "it's", "\"q\"", "$HOME", "back\\slash", ""}, out);
  EXPECT_TRUE(outcome.ok()) << outcome.describe();
  EXPECT_EQ(cu::read_text_file(out),
            "<a b><it's><\"q\"><$HOME><back\\slash><>");
}

TEST(SpawnChild, AppliesEnvUnsetThenSet) {
  ::setenv("CTS_SPAWN_TEST_DROP", "inherited", 1);
  ::setenv("CTS_SPAWN_TEST_KEEP", "kept", 1);
  ::setenv("CTS_SPAWN_TEST_SET", "inherited", 1);
  cu::ChildSpec spec;
  spec.env_unset = {"CTS_SPAWN_TEST_DROP"};
  spec.env_set = {{"CTS_SPAWN_TEST_SET", "first"},
                  {"CTS_SPAWN_TEST_NEW", "a b=c"},
                  {"CTS_SPAWN_TEST_SET", "last wins"}};
  const std::string out = temp_path("spawn_env.txt");
  const cu::WaitOutcome outcome = run_sh(
      "printf '%s|%s|%s|%s' \"${CTS_SPAWN_TEST_DROP-unset}\" "
      "\"$CTS_SPAWN_TEST_KEEP\" \"$CTS_SPAWN_TEST_SET\" "
      "\"$CTS_SPAWN_TEST_NEW\"",
      {}, out, 10.0, spec);
  ::unsetenv("CTS_SPAWN_TEST_DROP");
  ::unsetenv("CTS_SPAWN_TEST_KEEP");
  ::unsetenv("CTS_SPAWN_TEST_SET");
  EXPECT_TRUE(outcome.ok()) << outcome.describe();
  EXPECT_EQ(cu::read_text_file(out), "unset|kept|last wins|a b=c");
}

TEST(SpawnChild, SendsStdoutAndStderrToTheOutputFile) {
  const std::string out = temp_path("spawn_output.txt");
  std::ofstream(out) << "stale contents that must be truncated away\n";
  const cu::WaitOutcome outcome =
      run_sh("echo to-stdout; echo to-stderr >&2", {}, out);
  EXPECT_TRUE(outcome.ok()) << outcome.describe();
  EXPECT_EQ(cu::read_text_file(out), "to-stdout\nto-stderr\n");
}

TEST(SpawnChild, ReportsExitCodeSignalAndTimeout) {
  const std::string out = temp_path("spawn_outcomes.txt");
  const cu::WaitOutcome exited = run_sh("exit 3", {}, out);
  EXPECT_EQ(exited.kind, cu::WaitOutcome::Kind::kExited);
  EXPECT_EQ(exited.describe(), "exited with status 3");

  const cu::WaitOutcome signaled = run_sh("kill -SEGV $$", {}, out);
  EXPECT_EQ(signaled.kind, cu::WaitOutcome::Kind::kSignaled);
  EXPECT_EQ(signaled.signal, SIGSEGV);
  EXPECT_EQ(signaled.describe().rfind("killed by signal 11 (", 0), 0u)
      << signaled.describe();

  const cu::WaitOutcome timed_out = run_sh("exec sleep 60", {}, out, 0.2);
  EXPECT_EQ(timed_out.kind, cu::WaitOutcome::Kind::kTimeout);
  EXPECT_NE(timed_out.describe().find("timed out"), std::string::npos);
}

TEST(SpawnChild, FailsUpFrontNamingWhatCouldNotStart) {
  std::string error;
  cu::ChildSpec spec;
  EXPECT_EQ(cu::spawn_child(spec, &error), -1);
  EXPECT_NE(error.find("empty argv"), std::string::npos) << error;

  spec.argv = {temp_path("no_such_binary")};
  EXPECT_EQ(cu::spawn_child(spec, &error), -1);
  EXPECT_NE(error.find(spec.argv[0]), std::string::npos) << error;
  EXPECT_NE(error.find("No such file"), std::string::npos) << error;

  spec.argv = {"/bin/true"};
  spec.output_path = temp_path("no_such_dir/out.txt");
  EXPECT_EQ(cu::spawn_child(spec, &error), -1);
  EXPECT_NE(error.find(spec.output_path), std::string::npos) << error;
}

}  // namespace

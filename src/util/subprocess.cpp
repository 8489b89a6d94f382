#include "cts/util/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "cts/util/clock.hpp"

extern char** environ;

namespace cts::util {

namespace {

/// argv/envp view of `strings`: their buffers plus the closing nullptr.
std::vector<char*> c_strings(std::vector<std::string>& strings) {
  std::vector<char*> out;
  for (std::string& s : strings) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

void sleep_ms(long ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000L;
  nanosleep(&ts, nullptr);
}

WaitOutcome from_status(int status, double waited_s) {
  WaitOutcome out;
  out.waited_s = waited_s;
  if (WIFEXITED(status)) {
    out.kind = WaitOutcome::Kind::kExited;
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.kind = WaitOutcome::Kind::kSignaled;
    out.signal = WTERMSIG(status);
  } else {
    out.kind = WaitOutcome::Kind::kError;
    out.error = "unexpected wait status " + std::to_string(status);
  }
  return out;
}

}  // namespace

pid_t spawn_child(const ChildSpec& spec, std::string* error) {
  if (spec.argv.empty()) {
    *error = "spawn_child: empty argv";
    return -1;
  }
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    env.emplace_back(*entry);
  }
  const auto drop = [&env](const std::string& name) {
    std::erase_if(env, [&](const std::string& entry) {
      return entry.size() > name.size() && entry[name.size()] == '=' &&
             entry.compare(0, name.size(), name) == 0;
    });
  };
  for (const std::string& name : spec.env_unset) drop(name);
  for (const auto& [name, value] : spec.env_set) {
    drop(name);
    env.push_back(name + "=" + value);
  }
  // Opened here, close-on-exec, so a failure names the file; the child's
  // dup2 copies do not inherit the flag.
  const int out_fd =
      spec.output_path.empty()
          ? -1
          : ::open(spec.output_path.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (!spec.output_path.empty() && out_fd < 0) {
    *error = "cannot open " + spec.output_path + ": " + std::strerror(errno);
    return -1;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (out_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, out_fd, STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_fd, STDERR_FILENO);
  }
  std::vector<std::string> argv = spec.argv;
  const std::vector<char*> argv_ptrs = c_strings(argv);
  const std::vector<char*> env_ptrs = c_strings(env);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv_ptrs[0], &actions, nullptr,
                               argv_ptrs.data(), env_ptrs.data());
  posix_spawn_file_actions_destroy(&actions);
  if (out_fd >= 0) ::close(out_fd);
  if (rc != 0) {
    *error = "cannot exec " + spec.argv[0] + ": " + std::strerror(rc);
    return -1;
  }
  return pid;
}

std::string WaitOutcome::describe() const {
  char buf[128];
  switch (kind) {
    case Kind::kExited:
      std::snprintf(buf, sizeof(buf), "exited with status %d", exit_code);
      return buf;
    case Kind::kSignaled: {
      const char* name = strsignal(signal);
      std::snprintf(buf, sizeof(buf), "killed by signal %d (%s)", signal,
                    name != nullptr ? name : "unknown");
      return buf;
    }
    case Kind::kTimeout:
      std::snprintf(buf, sizeof(buf), "timed out after %.1fs (killed)",
                    waited_s);
      return buf;
    case Kind::kError:
      return "wait failed: " + error;
  }
  return "unknown";
}

WaitOutcome wait_child(pid_t pid, double timeout_s) {
  const double start = monotonic_s();
  WaitOutcome out;  // kError until the child is seen to end
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, timeout_s < 0 ? 0 : WNOHANG);
    if (r == pid) return from_status(status, monotonic_s() - start);
    if (r < 0) {
      out.error = std::strerror(errno);
      out.waited_s = monotonic_s() - start;
      return out;
    }
    if (monotonic_s() - start >= timeout_s) break;
    sleep_ms(10);
  }

  // Deadline expired: kill and reap so the child can never outlive us.
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  out.kind = WaitOutcome::Kind::kTimeout;
  out.waited_s = monotonic_s() - start;
  return out;
}

}  // namespace cts::util

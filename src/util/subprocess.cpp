#include "cts/util/subprocess.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <time.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "cts/util/clock.hpp"

namespace cts::util {

namespace {

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
  if (timeout_s < 0) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      WaitOutcome out;
      out.kind = WaitOutcome::Kind::kError;
      out.error = std::strerror(errno);
      out.waited_s = monotonic_s() - start;
      return out;
    }
    return from_status(status, monotonic_s() - start);
  }

  const double deadline = start + timeout_s;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r < 0) {
      WaitOutcome out;
      out.kind = WaitOutcome::Kind::kError;
      out.error = std::strerror(errno);
      out.waited_s = monotonic_s() - start;
      return out;
    }
    if (r == pid) return from_status(status, monotonic_s() - start);
    if (monotonic_s() >= deadline) break;
    sleep_ms(10);
  }

  // Deadline expired: kill and reap so the child can never outlive us.
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  WaitOutcome out;
  out.kind = WaitOutcome::Kind::kTimeout;
  out.waited_s = monotonic_s() - start;
  return out;
}

}  // namespace cts::util

// Child-process launcher and deadline waiter.
//
// Every tool that runs a bench binary as a child (tools/cts_simd,
// tools/cts_shardd, tools/cts_benchd) starts it with spawn_child: the argv
// is exec'd verbatim, with no shell, and environment edits travel as data.
// None of them may block in waitpid forever on a wedged child: wait_child
// polls with WNOHANG under a monotonic deadline, SIGKILLs a straggler when
// it expires, and reports *how* the child ended — a signal-killed worker
// is named by its signal ("killed by signal 11 (Segmentation fault)"), not
// folded into a generic failure.

#pragma once

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace cts::util {

/// What spawn_child starts.
struct ChildSpec {
  std::vector<std::string> argv;  ///< argv[0] is the executable's path
  std::vector<std::string> env_unset;  ///< dropped from the inherited env
  /// Then set, in order (a later entry for a name wins).
  std::vector<std::pair<std::string, std::string>> env_set;
  std::string output_path;  ///< gets stdout and stderr; "" = inherit
};

/// Starts `spec` with posix_spawn (no PATH search; nothing runs in the
/// child before exec, so it is safe in a multi-threaded daemon) and returns
/// the pid.  Returns -1 with a message naming the path in *error when the
/// argv is empty, the executable cannot be exec'd or the output file
/// cannot be opened.
pid_t spawn_child(const ChildSpec& spec, std::string* error);

/// How a waited-on child ended.
struct WaitOutcome {
  enum class Kind {
    kExited,    ///< normal exit; exit_code is valid
    kSignaled,  ///< terminated by a signal; signal is valid
    kTimeout,   ///< deadline expired; the child was SIGKILLed and reaped
    kError,     ///< waitpid itself failed; error is valid
  };

  Kind kind = Kind::kError;
  int exit_code = 0;    ///< kExited
  int signal = 0;       ///< kSignaled
  double waited_s = 0;  ///< wall time spent waiting
  std::string error;    ///< kError

  bool ok() const { return kind == Kind::kExited && exit_code == 0; }

  /// Human-readable account: "exited with status 3", "killed by signal 15
  /// (Terminated)", "timed out after 5.0s (killed)".
  std::string describe() const;
};

/// Waits for `pid`.  timeout_s < 0 blocks indefinitely; otherwise the
/// child is polled until the deadline, then SIGKILLed and reaped (kTimeout).
WaitOutcome wait_child(pid_t pid, double timeout_s);

}  // namespace cts::util

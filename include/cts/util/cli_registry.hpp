// Single source of truth for the command-line surface of the harness.
//
// Every bench binary and every tool builds its known-flag list (the one
// check_flags checks and --help prints) from these tables, and
// docs/cli.md documents the same tables — tests/test_cli_docs.cpp asserts
// that every flag and environment variable registered here appears in the
// doc, so the reference cannot drift silently when a flag is added: the
// new entry lands here, the tool picks it up, and the test fails until
// docs/cli.md mentions it.

#pragma once

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace cts::util::cli {

/// One documented --flag.
struct FlagDoc {
  const char* name;        ///< without the leading "--"
  const char* value_hint;  ///< "" for boolean flags
  const char* doc;         ///< one-line description
};

/// One documented environment variable.
struct EnvDoc {
  const char* name;
  const char* doc;
};

/// Flags every bench binary accepts (parsed by bench::ObsGuard).
inline constexpr FlagDoc kBenchSharedFlags[] = {
    {"csv", "PATH", "mirror the rendered table as CSV"},
    {"trace", "PATH", "write a Chrome-trace span timeline"},
    {"metrics", "PATH",
     "write the JSON run report (config echo + metrics registry)"},
    {"perf", "PATH",
     "write the cts.perf.v2 report: rusage, exact wall and CPU self time "
     "per span path, per-phase self time (default <run_id>_perf.json)"},
    {"shard", "I/N",
     "run only replication shard I of N (REPRO_SHARD equivalent)"},
    {"shard-out", "PATH",
     "write this worker's cts.shard.v1 file (default <run_id>_shard.json)"},
    {"quiet", "",
     "suppress the stderr progress line (CTS_QUIET=1 equivalent)"},
    {"help", "", "print this flag list and exit"},
};

/// tools/cts_benchd (run mode and the trend / validate subcommands).
inline constexpr FlagDoc kBenchdFlags[] = {
    {"suite", "smoke|sim|analytic|full", "bench suite to run (default smoke)"},
    {"filter", "SUBSTR", "only benches whose id contains SUBSTR"},
    {"repeats", "N", "measured runs per bench (default 5)"},
    {"warmup", "N", "unmeasured warmup runs per bench (default 1)"},
    {"out", "PATH", "output document (default BENCH_<today UTC>.json)"},
    {"bench-dir", "DIR",
     "directory with the bench binaries (default: CTS_BENCH_DIR or the "
     "build-tree sibling bench/)"},
    {"reps", "N", "pin REPRO_REPS for every child (default 2)"},
    {"frames", "N", "pin REPRO_FRAMES for every child (default 2000)"},
    {"compare", "BASE.json",
     "one-shot gate: after writing the document, gate it against this "
     "baseline as `trend --gate --window=1` does (0 ok, 1 regression, 2 "
     "error)"},
    {"window", "N",
     "trend: trailing baselines that must all sit beyond the band to flag "
     "drift (default 2; --compare uses 1)"},
    {"gate", "", "trend: exit 1 when any series drifts toward worse"},
    {"md", "PATH", "trend / --compare: write the markdown report"},
    {"list", "", "print the bench registry and exit"},
    {"quiet", "", "suppress progress on stderr and the report on stdout"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_simd.
inline constexpr FlagDoc kSimdFlags[] = {
    {"shards", "N", "worker process count for `run` (default 2)"},
    {"out-dir", "DIR", "shard files / logs directory (default simd_out)"},
    {"metrics", "PATH",
     "merged run report path (default simd_metrics.json)"},
    {"keep-shards", "", "keep per-worker shard files after the merge"},
    {"timeout", "SECS",
     "kill and report local workers still running after SECS (default 0 = "
     "no deadline)"},
    {"workers", "HOST:PORT,...",
     "dispatch shards to these cts_shardd workers instead of local "
     "fork/exec (BENCH becomes a registry id)"},
    {"job-timeout", "SECS",
     "per-job network deadline in --workers mode (default 300)"},
    {"retries", "N",
     "max dispatch attempts per shard across workers before local fallback "
     "(default 3)"},
    {"bench-dir", "DIR",
     "bench-binary directory for the local fallback in --workers mode "
     "(default: CTS_BENCH_DIR or the build-tree sibling bench/)"},
    {"dispatch-metrics", "PATH",
     "write the dispatcher's own cts::obs run report (jobs, retries, "
     "per-worker latency) — kept out of the merged report by design"},
    {"trace", "PATH", "write the dispatcher's Chrome-trace span timeline"},
    {"perf", "PATH",
     "write the dispatcher's cts.perf.v2 report (rusage, span paths)"},
    {"log", "PATH",
     "append cts.events.v1 JSONL events (dispatch lifecycle) to PATH"},
    {"log-level", "LEVEL",
     "event-log sink threshold: debug|info|warn|error (default info)"},
    {"quiet", "", "suppress progress"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_shardd.
inline constexpr FlagDoc kShardDFlags[] = {
    {"port", "N", "TCP port to listen on (default 0 = ephemeral, printed)"},
    {"port-file", "PATH", "write the bound port to PATH (for launchers)"},
    {"bench-dir", "DIR",
     "bench-binary directory (default: CTS_BENCH_DIR or the build-tree "
     "sibling bench/)"},
    {"work-dir", "DIR",
     "scratch directory for shard files and job logs (default shardd_work)"},
    {"max-jobs", "N", "exit 0 after serving N jobs (default 0 = forever)"},
    {"fault-exit-after", "N",
     "fault-injection hook: die abruptly (no reply) on the job after N "
     "served — simulates a worker killed mid-shard (default off)"},
    {"perf", "PATH",
     "write the cts.perf.v2 report (rusage, span paths) on clean exit"},
    {"log", "PATH",
     "append cts.events.v1 JSONL events to PATH instead of stderr"},
    {"log-level", "LEVEL",
     "event-log sink threshold: debug|info|warn|error (default info)"},
    {"quiet", "", "silence the default stderr event sink"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_cacd (all modes: serve, query, eval).
inline constexpr FlagDoc kCacdFlags[] = {
    {"port", "N",
     "serve: TCP port to listen on (default 0 = ephemeral, printed); "
     "query: the daemon's port (required)"},
    {"port-file", "PATH", "serve: write the bound port to PATH"},
    {"max-requests", "N",
     "serve: exit 0 after serving N CAC requests (default 0 = forever)"},
    {"deadline", "SECS",
     "serve: default per-request batch deadline when the request omits "
     "deadline_s (default 30); query: the deadline_s to send (default 0 = "
     "daemon default)"},
    {"host", "H", "query: daemon host (default 127.0.0.1)"},
    {"model", "ID",
     "query/eval: model-zoo id — za:A, vv:V, dar:A:P, l, white, ar1:PHI, "
     "farima:D, mginf:BETA (default za:0.9)"},
    {"capacity", "C",
     "query/eval: link capacity, cells/frame (default 16140)"},
    {"buffer", "B", "query/eval: total buffer, cells (default 4035)"},
    {"clr", "L", "query/eval: log10 CLR target, < 0 (default -6)"},
    {"kind", "K,K,...",
     "query/eval: comma list of query kinds — admit_br, admit_eb, bop "
     "(default admit_br); one query per entry"},
    {"n", "N", "query/eval: connection count for bop queries (default 1)"},
    {"interp", "",
     "query: let bop answers interpolate between cached grid points"},
    {"timeout", "SECS",
     "query: connect/send/receive network deadline (default 30)"},
    {"request-file", "PATH",
     "query: send this file verbatim as the request instead of building "
     "one from flags"},
    {"perf", "PATH",
     "serve: write the cts.perf.v2 report (rusage, span paths) on clean "
     "exit"},
    {"log", "PATH",
     "append cts.events.v1 JSONL events to PATH instead of stderr"},
    {"log-level", "LEVEL",
     "event-log sink threshold: debug|info|warn|error (default info)"},
    {"quiet", "", "silence the default stderr event sink"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_scenariod (all modes: run, merge, check).
inline constexpr FlagDoc kScenariodFlags[] = {
    {"out", "PATH",
     "run/merge: cts.scenarioresult.v1 output path (default "
     "scenario_result.json)"},
    {"hop-trace", "PATH",
     "run/merge: also write the cts.scenariotrace.v1 per-hop trace (needs "
     "hop_trace_every in the spec, and for run a slice containing "
     "replication 0)"},
    {"shard", "I/N",
     "run: execute only replication shard I of N; the partial merges "
     "bit-identically via `merge`"},
    {"reps", "N", "run: override the spec's replication count"},
    {"frames", "N", "run: override measured frames per replication"},
    {"warmup", "N", "run: override warmup frames per replication"},
    {"seed", "U64", "run: override the master seed (decimal)"},
    {"threads", "N", "run: worker threads (default 0 = hardware concurrency)"},
    {"metrics", "PATH",
     "run: write the JSON run report (config echo + metrics registry)"},
    {"trace", "PATH", "run: write a Chrome-trace span timeline"},
    {"quiet", "", "suppress the stderr progress line"},
    {"help", "", "print usage and exit"},
};

/// tools/cts_obstop.
inline constexpr FlagDoc kObstopFlags[] = {
    {"workers", "HOST:PORT,...",
     "cts_shardd stats endpoints to poll (required unless --validate)"},
    {"json", "",
     "one-shot: print each worker's raw cts.stats.v1 reply (single worker: "
     "the object verbatim; several: a JSON array) and exit"},
    {"interval", "SECS", "poll period for the live table (default 2)"},
    {"iterations", "N",
     "stop the live table after N polls (default 0 = until interrupted)"},
    {"timeout", "SECS", "per-worker connect/reply deadline (default 5)"},
    {"slo", "METRIC:pQ:MS,...",
     "latency objectives against exported log histograms (e.g. "
     "shardd.job_wall_ms:p99:250); breaching rows turn red"},
    {"check", "",
     "one poll, then gate: exit 3 when any --slo objective is breached"},
    {"validate", "",
     "only validate the given files: .jsonl as cts.events.v1 lines, "
     "anything else as one strict RFC 8259 document (trace or stats)"},
    {"quiet", "", "suppress per-worker error lines on stderr"},
    {"help", "", "print usage and exit"},
};

/// A flag that was removed, and the flag that replaced it.
struct RetiredFlag {
  const char* name;         ///< without the leading "--"
  const char* replacement;  ///< likewise
};

/// Retired flags.  In every tool or bench whose known-flag list has the
/// replacement, passing the retired flag is a usage error (exit 2), not the
/// unknown-flag warning: a script that still passes it would otherwise run
/// on without the output it asked for.
inline constexpr RetiredFlag kRetiredFlags[] = {
    {"openmetrics", "json"},  // cts_obstop: cts.stats.v1 is the only format
    {"profile", "perf"},      // the span table is the perf report's "paths"
    {"profile-folded", "perf"},
    {"svg", "md"},  // cts_benchd: the markdown trend is the only rendering
    {"csv", "md"},
};

/// Environment variables the harness honours.
inline constexpr EnvDoc kEnvVars[] = {
    {"REPRO_FULL", "run at the paper scale (60 replications x 500k frames)"},
    {"REPRO_REPS", "override the replication count"},
    {"REPRO_FRAMES", "override frames per replication"},
    {"REPRO_SHARD", "run only replication shard I/N (same as --shard)"},
    {"CTS_QUIET", "suppress the stderr progress line (same as --quiet)"},
    {"CTS_BENCH_DIR", "bench-binary directory for cts_benchd"},
    {"CTS_SIMD", "pin the SIMD kernel tier: scalar, sse2, or avx2"},
};

/// One tool's documented surface, for the docs test.
struct ToolDoc {
  const char* tool;
  const FlagDoc* flags;
  std::size_t count;
};

inline constexpr ToolDoc kTools[] = {
    {"bench binaries", kBenchSharedFlags,
     sizeof(kBenchSharedFlags) / sizeof(kBenchSharedFlags[0])},
    {"cts_benchd", kBenchdFlags, sizeof(kBenchdFlags) / sizeof(kBenchdFlags[0])},
    {"cts_simd", kSimdFlags, sizeof(kSimdFlags) / sizeof(kSimdFlags[0])},
    {"cts_shardd", kShardDFlags,
     sizeof(kShardDFlags) / sizeof(kShardDFlags[0])},
    {"cts_cacd", kCacdFlags, sizeof(kCacdFlags) / sizeof(kCacdFlags[0])},
    {"cts_scenariod", kScenariodFlags,
     sizeof(kScenariodFlags) / sizeof(kScenariodFlags[0])},
    {"cts_obstop", kObstopFlags,
     sizeof(kObstopFlags) / sizeof(kObstopFlags[0])},
};

/// The names of `flags`, for check_flags known-lists.
template <std::size_t N>
inline std::vector<std::string> flag_names(const FlagDoc (&flags)[N]) {
  std::vector<std::string> names;
  names.reserve(N);
  for (const FlagDoc& flag : flags) names.emplace_back(flag.name);
  return names;
}

/// The flag check every tool and bench runs: throws InvalidArgument
/// ("--profile was removed; use --perf", exit 2 in every main) for a
/// retired flag whose replacement is in `known`, then warns about any
/// other unknown flag on `os` (Flags::warn_unknown) and carries on.
inline void check_flags(const Flags& flags,
                        const std::vector<std::string>& known,
                        std::ostream& os) {
  for (const RetiredFlag& retired : kRetiredFlags) {
    if (flags.has(retired.name) &&
        std::find(known.begin(), known.end(), retired.replacement) !=
            known.end()) {
      throw InvalidArgument(std::string("--") + retired.name +
                            " was removed; use --" + retired.replacement);
    }
  }
  flags.warn_unknown(os, known);
}

}  // namespace cts::util::cli

// cts-shardd: network shard-execution worker for the replication harness.
//
//   cts_shardd [--port=N] [--port-file=PATH] [--bench-dir=DIR]
//              [--work-dir=DIR] [--max-jobs=N] [--fault-exit-after=N]
//              [--log=PATH] [--log-level=LEVEL] [--quiet]
//
// Runs on the shared daemon runtime (cts/net/server.hpp): listens on a
// TCP port (0 = ephemeral; the chosen port is printed and, with
// --port-file, written to a file the launcher can poll) and answers two
// request schemas on the same port:
//
//   * cts.job.v1 — runs the requested replication shard as a child process
//     and streams the child's cts.shard.v1 file back verbatim inside a
//     cts.jobresult.v1 reply (or a structured error: unknown bench,
//     missing binary, child crash/signal/timeout).  Job children are
//     serialized (one at a time) so a shard's timing is never polluted by
//     a sibling; tools/cts_simd `run --workers=` is the dispatching
//     client.  A reply carries only the shard: each job's shardd.*
//     metrics fold into this daemon's registry and its shardd.job / exec /
//     validate spans into its span table, both served below and written
//     by --perf.
//   * cts.statsreq.v1 — answered by the runtime (concurrently with any
//     running job) with a cts.stats.v1 snapshot: jobs in flight / ok /
//     failed / retried, a lossless metrics-registry snapshot and the span
//     self-time table.  Stats queries do not count against --max-jobs and
//     do not trigger --fault-exit-after: a monitor must never eat the job
//     budget or trip a fault drill.
//
// Each connection carries one request and is served by the pool thread
// that accepted it; at most 64 are live, and one more gets a
// {"ok":false} "busy" reply.  Once --max-jobs replies are out,
// connections still waiting for a request are cut and the exit waits for
// every running job, however long it takes.  Every socket is
// close-on-exec, so a job child holds neither the port nor a connection.
//
// Operational events (job start/done/fail, connection errors, shutdown)
// are emitted as cts.events.v1 JSONL — to --log=PATH when given, else to
// stderr unless --quiet; --log-level sets the sink threshold (default
// info).  A fixed-size ring buffer additionally records *every* event, and
// is dumped to <work-dir>/job_<n>_flight.jsonl when a job child times out
// or dies on a signal — the flight recorder for post-mortems.
//
// Safety properties:
//   * the job names a bench by REGISTRY id (bench_suite.hpp); the daemon
//     resolves it against its own --bench-dir and refuses anything not in
//     the registry, so a client can never exec an arbitrary path;
//   * job env is restricted to the REPRO_* scale allowlist, and the
//     child's REPRO_* environment is wiped first, so the shard runs at
//     exactly the requested scale regardless of the daemon's own env;
//   * children are waited with a deadline (job timeout_s, default 600s)
//     and SIGKILLed when it expires — a wedged bench can not wedge the
//     worker.
//
// --fault-exit-after=N is a fault-injection hook for the resilience tests
// and drills: after N jobs are served, the daemon dies abruptly (_Exit)
// upon READING the next job request — from the client's side, a worker
// killed mid-shard.  --max-jobs=N exits cleanly after N jobs (CI smoke
// jobs).
//
// Exit codes: 0 clean shutdown (--max-jobs reached), 2 usage/setup errors.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite.hpp"
#include "cts/net/job.hpp"
#include "cts/net/server.hpp"
#include "cts/obs/event_log.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/trace.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/subprocess.hpp"

namespace fs = std::filesystem;
namespace net = cts::net;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

constexpr double kDefaultJobTimeoutS = 600.0;

/// What the job handler needs beyond the request itself.
struct JobConfig {
  std::string bench_dir;
  std::string work_dir = "shardd_work";
  long long fault_exit_after = -1;  ///< <0: disabled
};

void usage() {
  std::printf(
      "usage: cts_shardd [--port=N] [--port-file=PATH] [--bench-dir=DIR]\n"
      "                  [--work-dir=DIR] [--max-jobs=N]\n"
      "                  [--fault-exit-after=N] [--log=PATH]\n"
      "                  [--log-level=debug|info|warn|error] [--quiet]\n"
      "                  [--perf=PATH]\n\n"
      "TCP worker for `cts_simd run --workers=`: accepts cts.job.v1 shard\n"
      "jobs (bench registry id + shard spec + REPRO_* env + deadline), runs\n"
      "the shard as a child process, and streams the cts.shard.v1 payload\n"
      "back.  The same port answers\n"
      "cts.statsreq.v1 with a live cts.stats.v1 status snapshot (see\n"
      "cts_obstop).  Events go to --log as cts.events.v1 JSONL (default:\n"
      "stderr unless --quiet).\n"
      "--perf writes the daemon's cts.perf.v2 report (rusage and span-path\n"
      "self times) on clean exit.  --port=0 picks an ephemeral port\n"
      "(printed, and written to --port-file when given).\n"
      "Exit codes: 0 clean shutdown (--max-jobs), 2 usage or setup error.\n");
}

/// Runs one shard job to completion, fills in its cts.jobresult.v1 reply
/// and merges the job's shardd.* metrics into the daemon's registry.
/// Called with the job mutex held.  `recv_s` is the cu::monotonic_s() at
/// which the request arrived.
net::JobResult run_job(const JobConfig& cfg, const net::JobRequest& job,
                       long long job_index, double recv_s,
                       obs::MetricsRegistry& metrics) {
  net::JobResult result;
  const double start = cu::monotonic_s();
  // Queue wait: request receipt to here — time spent behind the job_mu
  // serialization (and the request parse).  A hot SLO input: a fast worker
  // with a deep queue is slow from the dispatcher's seat.
  const double queue_wait_ms = (start - recv_s) * 1e3;
  const std::string tag = std::to_string(job_index);

  {
    obs::ScopedSpan job_span("shardd.job");

    const std::string shard_path =
        (fs::path(cfg.work_dir) / ("job_" + tag + "_shard.json")).string();
    // The job's env is authoritative: every scale override the daemon
    // itself inherited is wiped, then exactly what the client sent is set.
    cu::ChildSpec child;
    child.env_unset = net::job_env_allowlist();
    child.env_unset.push_back("REPRO_SHARD");
    child.env_set = job.env;
    child.output_path =
        (fs::path(cfg.work_dir) / ("job_" + tag + ".log")).string();
    pid_t pid = -1;
    try {
      // The registry is the allowlist: an id it does not know becomes a
      // structured error reply, never an exec.
      child.argv = {bench::bench_binary(cfg.bench_dir, job.bench_id),
                    "--shard=" + cts::sim::format_shard_spec(
                                     {job.shard_index, job.shard_count}),
                    "--shard-out=" + shard_path, "--quiet"};
      pid = cu::spawn_child(child, &result.error);
    } catch (const cu::Error& e) {
      result.error = e.what();
    }
    if (pid > 0) {
      const double timeout_s =
          job.timeout_s > 0 ? job.timeout_s : kDefaultJobTimeoutS;
      cu::WaitOutcome outcome;
      {
        obs::ScopedSpan exec_span("shardd.exec");
        outcome = cu::wait_child(pid, timeout_s);
      }
      if (!outcome.ok()) {
        result.error = fs::path(child.argv[0]).filename().string() + " " +
                       outcome.describe() + " (shard " +
                       std::to_string(job.shard_index) + "/" +
                       std::to_string(job.shard_count) + ")";
        ::unlink(shard_path.c_str());
        if (outcome.kind == cu::WaitOutcome::Kind::kTimeout ||
            outcome.kind == cu::WaitOutcome::Kind::kSignaled) {
          // Flight recorder: dump the full event ring (all levels) so a
          // post-mortem sees what the daemon did right before the kill.
          const std::string flight_path =
              (fs::path(cfg.work_dir) / ("job_" + tag + "_flight.jsonl"))
                  .string();
          if (obs::EventLog::global().dump_ring_to(flight_path)) {
            obs::log_error("job.flight_recorder",
                           {{"job", static_cast<std::int64_t>(job_index)},
                            {"path", flight_path},
                            {"outcome", outcome.describe()}});
          }
        }
      } else {
        obs::ScopedSpan validate_span("shardd.validate");
        try {
          const std::string text = cu::read_text_file(shard_path);
          (void)cts::sim::parse_shard_file(text);  // refuse broken files
          result.shard_json = text;
          result.ok = true;
        } catch (const cu::Error& e) {
          result.error = std::string("shard file invalid: ") + e.what();
        }
        ::unlink(shard_path.c_str());
      }
    }
  }  // closes "shardd.job"

  result.elapsed_s = cu::monotonic_s() - start;

  obs::MetricsShard job_metrics;
  job_metrics.add(result.ok ? "shardd.jobs_ok" : "shardd.jobs_failed");
  if (job.attempt > 1) job_metrics.add("shardd.jobs_retried");
  job_metrics.observe_log("shardd.job_wall_ms", result.elapsed_s * 1e3);
  job_metrics.observe_log("shardd.queue_wait_ms", queue_wait_ms);
  metrics.merge(job_metrics);
  return result;
}

std::string error_reply(const std::string& error) {
  net::JobResult result;
  result.error = error;
  return net::write_job_result_json(result);
}

int serve(net::ServerOptions options, const JobConfig& cfg) {
  net::Server server(std::move(options));
  std::mutex job_mu;                   // one bench child at a time
  std::atomic<long long> next_job{0};  // job requests accepted (names files)

  net::Service service;
  service.name = "cts_shardd";
  service.metric_prefix = "shardd";
  service.unit = "job";
  service.handle = [&](const std::string& request) {
    const double recv_s = cu::monotonic_s();
    if (cfg.fault_exit_after >= 0 &&
        server.served() >= cfg.fault_exit_after) {
      // Fault-injection hook: die abruptly mid-job, reply never sent.
      std::_Exit(137);
    }
    const long long job_index = next_job++;
    net::JobResult result;
    int attempt = 0;
    try {
      const net::JobRequest job = net::parse_job(request);
      attempt = job.attempt;
      obs::log_debug(
          "job.start",
          {{"job", static_cast<std::int64_t>(job_index)},
           {"bench", job.bench_id},
           {"shard", std::to_string(job.shard_index) + "/" +
                         std::to_string(job.shard_count)},
           {"attempt", job.attempt}});
      {
        const std::lock_guard<std::mutex> job_lock(job_mu);
        result = run_job(cfg, job, job_index, recv_s, server.metrics());
      }
      // The per-job summary line: everything a post-mortem grep needs.
      obs::log_info(
          result.ok ? "job.done" : "job.fail",
          {{"job", static_cast<std::int64_t>(job_index)},
           {"bench", job.bench_id},
           {"shard", std::to_string(job.shard_index) + "/" +
                         std::to_string(job.shard_count)},
           {"wall_ms", result.elapsed_s * 1e3},
           {"status", result.ok ? "ok" : result.error},
           {"attempt", job.attempt}});
    } catch (const cu::Error& e) {
      result.ok = false;
      result.error = e.what();
      obs::log_warn("job.reject",
                    {{"job", static_cast<std::int64_t>(job_index)},
                     {"error", e.what()}});
    }
    return net::Reply{net::write_job_result_json(result), result.ok,
                      attempt > 1};
  };
  service.encode_error = error_reply;
  return server.run(service);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    cu::cli::check_flags(flags, cu::cli::flag_names(cu::cli::kShardDFlags),
                         std::cerr);

    net::ServerOptions options = net::parse_server_options(flags, "max-jobs");
    JobConfig cfg;
    cfg.work_dir = flags.get_string("work-dir", "shardd_work");
    cfg.fault_exit_after = flags.get_int("fault-exit-after", -1);
    cfg.bench_dir = bench::bench_dir(flags, argv[0]);
    cu::make_dirs(cfg.work_dir);
    return serve(std::move(options), cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_shardd: %s\n", e.what());
    return 2;
  }
}

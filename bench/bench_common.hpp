// Shared helpers for the experiment benches.
//
// Every bench binary regenerates one table or figure of Ryu & Elwalid
// (SIGCOMM '96) and prints it as an aligned text table; a CSV mirror is
// written next to the binary when --csv=<path> is passed.  Simulation
// benches run at a CI-friendly default scale; REPRO_FULL=1 switches to the
// paper's 60 x 500k-frame scale (REPRO_REPS / REPRO_FRAMES override
// individually).

// Observability (see the "Observability" and "Benchmarking" sections of
// README.md): every bench accepts --trace=<path> (Chrome-trace span
// timeline), --metrics=<path> (JSON run report: config echo + all registry
// metrics), --perf=<path> (cts.perf.v2 report: getrusage, the span-path
// table and the per-phase self-time table — the file tools/cts_benchd
// aggregates into BENCH_*.json), --quiet (suppress the stderr progress
// line; CTS_QUIET=1 equivalent) and --help, via the
// ObsGuard each main() constructs right after flag parsing.  It also turns
// an input error that escapes main (e.g. --buffer-ms=abc) into
// "<id>: <message>" and exit 2.

#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/obs/perf.hpp"
#include "cts/obs/progress.hpp"
#include "cts/obs/run_report.hpp"
#include "cts/obs/trace.hpp"
#include "cts/sim/curves.hpp"
#include "cts/sim/replication.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/error.hpp"
#include "cts/util/csv.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/table.hpp"

namespace bench {

/// The Fig. 5-10 multiplexer: N = 30 sources, c = 538 cells/frame.
inline cts::sim::MuxGeometry paper_mux_30() {
  cts::sim::MuxGeometry g;
  g.n_sources = 30;
  g.bandwidth_per_source = 538.0;
  g.Ts = 0.04;
  return g;
}

/// A reduced-utilisation variant (c = 520) of the Fig. 5-10 multiplexer:
/// at CI simulation scale the paper's own operating point (c = 538) pushes
/// buffered CLRs below the measurement floor, while at c = 520 every curve
/// resolves.  The paper notes (Section 5.5) that other choices of N and c
/// give qualitatively identical results.
inline cts::sim::MuxGeometry validation_mux_30() {
  cts::sim::MuxGeometry g;
  g.n_sources = 30;
  g.bandwidth_per_source = 520.0;
  g.Ts = 0.04;
  return g;
}

/// The Fig. 4 geometry: N = 100 sources, c = 526 cells/frame.
inline cts::sim::MuxGeometry paper_mux_100() {
  cts::sim::MuxGeometry g;
  g.n_sources = 100;
  g.bandwidth_per_source = 526.0;
  g.Ts = 0.04;
  return g;
}

/// Simulation scale: bench default (fast) with environment overrides.
inline cts::sim::ReplicationConfig bench_scale() {
  cts::sim::ReplicationConfig config = cts::sim::default_scale();
  config.replications = 4;
  config.frames_per_replication = 20000;
  config.warmup_frames = 1000;
  return cts::sim::apply_env_overrides(config);
}

/// Per-bench observability harness.  Construct one right after parsing
/// Flags; it (a) handles --help (prints the known-flag list and exits 0),
/// rejects retired flags and warns about other unrecognised --flags with a
/// did-you-mean suggestion,
/// (b) enables span recording when --trace or --perf was passed,
/// (c) honours --quiet, (d) arms the resource probe for --perf, (e) on
/// destruction writes the --metrics run report, the --trace file and the
/// --perf report, and (f) makes an InvalidArgument that escapes main exit 2
/// with "<id>: <message>".
class ObsGuard {
 public:
  /// Preferred constructor: a registered bench (see bench_suite.hpp);
  /// kind/title are echoed into the run and perf reports.
  ObsGuard(const cts::util::Flags& flags, const BenchSpec& spec,
           std::vector<std::string> extra_known = {})
      : ObsGuard(flags, spec.id, std::move(extra_known)) {
    kind_ = spec.kind;
    title_ = spec.title;
  }

  ObsGuard(const cts::util::Flags& flags, std::string run_id,
           std::vector<std::string> extra_known = {})
      : flags_(flags), run_id_(std::move(run_id)) {
    // The shared flag surface comes from the CLI registry so the benches,
    // --help, and docs/cli.md can never disagree about what exists.
    std::vector<std::string> known =
        cts::util::cli::flag_names(cts::util::cli::kBenchSharedFlags);
    known.insert(known.end(), extra_known.begin(), extra_known.end());
    if (flags_.get_bool("help", false)) {
      print_help(extra_known);
      std::exit(0);
    }
    // No bench main catches, so an InvalidArgument that escapes one (a
    // retired flag, a typed flag accessor, an env override, --shard) reaches
    // std::terminate, which would abort with exit 134.
    escaped_id_ = run_id_;
    if (std::get_terminate() != &exit_on_escaped_input_error) {
      next_terminate_ = std::set_terminate(&exit_on_escaped_input_error);
    }
    cts::util::cli::check_flags(flags_, known, std::cerr);
    if (flags_.get_bool("quiet", false)) cts::obs::force_quiet(true);
    if (flags_.has("shard") || flags_.has("shard-out")) {
      // --shard=I/N routes through the REPRO_SHARD environment override so
      // every bench_scale() call in the bench body picks it up; --shard-out
      // (default <run_id>_shard.json) arms the global ShardRecorder, which
      // run_replicated feeds and write_reports() drains into a cts.shard.v1
      // file.  --shard-out alone records a degenerate 0/1 "shard" — the
      // single-process reference file the merge tests diff against.
      if (flags_.has("shard")) {
        const std::string spec_text = flags_.get_string("shard", "0/1");
        // A malformed spec throws: "<id>: shard spec: ...", exit 2.
        (void)cts::sim::parse_shard_spec(spec_text);
        ::setenv("REPRO_SHARD", spec_text.c_str(), 1);
      }
      shard_path_ = flags_.get_string("shard-out", run_id_ + "_shard.json");
      cts::sim::ShardRecorder::global().enable(shard_path_);
    }
    if (flags_.has("trace")) {
      trace_path_ = flags_.get_string("trace", run_id_ + "_trace.json");
      cts::obs::TraceRecorder::global().enable();
    }
    if (flags_.has("metrics")) {
      metrics_path_ = flags_.get_string("metrics", run_id_ + "_metrics.json");
    }
    if (flags_.has("perf")) {
      perf_path_ = flags_.get_string("perf", run_id_ + "_perf.json");
      probe_.emplace();
    }
    // Root span covering the bench body, so every bench — including the
    // purely analytic ones — has a phase table with at least "bench".
    main_span_.emplace("bench.main");
  }

  ~ObsGuard() {
    try {
      write_reports();
    } catch (...) {
      // Report writing must never turn a successful bench into a failure.
    }
  }

  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

 private:
  void print_help(const std::vector<std::string>& extra_known) const {
    std::printf("usage: %s [--flag[=value] ...]\n\n", run_id_.c_str());
    std::printf("shared flags:\n");
    for (const cts::util::cli::FlagDoc& flag :
         cts::util::cli::kBenchSharedFlags) {
      std::string name = std::string("--") + flag.name;
      if (flag.value_hint[0] != '\0') {
        name += std::string("=") + flag.value_hint;
      }
      std::printf("  %-18s %s\n", name.c_str(), flag.doc);
    }
    if (!extra_known.empty()) {
      std::printf("bench flags:\n");
      for (const std::string& key : extra_known) {
        std::printf("  --%s\n", key.c_str());
      }
    }
    std::printf("environment:");
    for (const cts::util::cli::EnvDoc& env : cts::util::cli::kEnvVars) {
      std::printf(" %s", env.name);
    }
    std::printf(" (see docs/cli.md)\n");
  }

  void write_reports() {
    main_span_.reset();
    if (!metrics_path_.empty()) {
      cts::obs::RunReport report;
      report.set("run_id", run_id_);
      if (!kind_.empty()) report.set("bench_kind", kind_);
      if (!title_.empty()) report.set("bench_title", title_);
      report.set("repro_full", cts::util::env_flag("REPRO_FULL"));
      const cts::sim::ReplicationConfig scale = bench_scale();
      report.set("replications", static_cast<std::uint64_t>(scale.replications));
      report.set("frames_per_replication", scale.frames_per_replication);
      report.set("warmup_frames", scale.warmup_frames);
      // An exact uint64 echo: the registry's master_seed_hi/lo gauges carry
      // the same value for consumers that only see the metrics section.
      report.set("master_seed", scale.master_seed);
      if (scale.shard_count > 1) {
        report.set("shard", cts::sim::format_shard_spec(
                                {scale.shard_index, scale.shard_count}));
      }
      report.set("hardware_concurrency",
                 static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
      announce(report.write(metrics_path_), "metrics", metrics_path_);
    }
    if (!trace_path_.empty()) {
      const cts::obs::TraceRecorder& trace = cts::obs::TraceRecorder::global();
      announce(trace.write(trace_path_), "trace", trace_path_,
               " (" + std::to_string(trace.event_count()) + " spans)");
    }
    if (!shard_path_.empty()) {
      cts::sim::ShardRecorder& shards = cts::sim::ShardRecorder::global();
      announce(shards.write(), "shard file", shard_path_);
      shards.disable();
    }
    if (!perf_path_.empty()) {
      std::vector<std::pair<std::string, std::string>> info = {
          {"run_id", run_id_}};
      if (!kind_.empty()) info.emplace_back("bench_kind", kind_);
      if (!title_.empty()) info.emplace_back("bench_title", title_);
      announce(cts::obs::write_perf_report(perf_path_, *probe_, info),
               "perf report", perf_path_);
    }
  }

  /// "[<what> written to <path><detail>]", or a warning when !ok.
  static void announce(bool ok, const char* what, const std::string& path,
                       const std::string& detail = "") {
    if (ok) {
      std::printf("[%s written to %s%s]\n", what, path.c_str(),
                  detail.c_str());
    } else {
      std::printf("[warning: could not write %s to %s]\n", what, path.c_str());
    }
  }

  /// Terminate handler: an escaped InvalidArgument is a usage error
  /// ("<id>: <message>", exit 2); anything else keeps the previous
  /// handler, which names the exception and aborts.
  [[noreturn]] static void exit_on_escaped_input_error() {
    try {
      if (std::current_exception()) throw;
    } catch (const cts::util::InvalidArgument& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "%s: %s\n", escaped_id_.c_str(), e.what());
      std::_Exit(2);
    } catch (...) {
    }
    if (next_terminate_ != nullptr) next_terminate_();
    std::abort();
  }

  inline static std::string escaped_id_;
  inline static std::terminate_handler next_terminate_ = nullptr;

  const cts::util::Flags& flags_;
  std::string run_id_;
  std::string kind_;
  std::string title_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string perf_path_;
  std::string shard_path_;
  std::optional<cts::obs::ScopedSpan> main_span_;
  std::optional<cts::obs::ResourceProbe> probe_;
};

/// Prints the resolved scale line and, when the scale is sharded
/// (--shard / REPRO_SHARD), which global replications this worker runs,
/// then a blank line.
inline void scale_note(const cts::sim::ReplicationConfig& scale) {
  std::printf("[scale: %zu reps x %llu frames]\n", scale.replications,
              static_cast<unsigned long long>(scale.frames_per_replication));
  if (scale.shard_count > 1) {
    std::printf("[shard %zu/%zu: global replications [%zu, %zu)]\n",
                scale.shard_index, scale.shard_count,
                scale.replications * scale.shard_index / scale.shard_count,
                scale.replications * (scale.shard_index + 1) /
                    scale.shard_count);
  }
  std::printf("\n");
}

/// Prints the standard bench banner (figure id + scale note).
inline void banner(const std::string& what) {
  std::printf("==================================================\n");
  std::printf("%s\n", what.c_str());
  if (cts::util::env_flag("REPRO_FULL")) {
    std::printf("[scale: PAPER (REPRO_FULL=1): 60 reps x 500k frames]\n");
  }
  std::printf("==================================================\n");
}

/// Optionally mirrors a rendered table to CSV when --csv was passed.
inline void maybe_write_csv(const cts::util::Flags& flags,
                            const cts::util::CsvWriter& csv,
                            const std::string& default_name) {
  if (!flags.has("csv")) return;
  const std::string path = flags.get_string("csv", default_name);
  if (csv.write(path)) {
    std::printf("[csv written to %s]\n", path.c_str());
  } else {
    std::printf("[warning: could not write csv to %s]\n", path.c_str());
  }
}

/// log10 formatting that tolerates zero CLR estimates ("<floor" marker).
inline std::string log10_or_floor(double p) {
  if (p <= 0.0) return "-inf";
  return cts::util::format_fixed(std::log10(p), 3);
}

/// One panel of simulated CLR curves (Figs. 8 and 9): a table of log10 CLR
/// per buffer (rows) and model (columns), mirrored as CSV rows tagged
/// `panel_id`.
inline void clr_panel(const std::string& title,
                      const std::vector<cts::fit::ModelSpec>& models,
                      const cts::sim::MuxGeometry& g,
                      const std::vector<double>& grid,
                      const cts::sim::ReplicationConfig& scale,
                      cts::util::CsvWriter& csv, const std::string& panel_id) {
  namespace cu = cts::util;
  std::printf("%s\n\n", title.c_str());
  std::vector<std::string> headers = {"B (msec)"};
  for (const auto& m : models) headers.push_back("log10 " + m.name);
  cu::TextTable table(std::move(headers));
  std::vector<cts::sim::SimulatedCurve> curves;
  for (const auto& m : models) {
    curves.push_back(cts::sim::simulated_clr_curve(m, g, grid, scale));
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::vector<std::string> row = {cu::format_fixed(grid[i], 1)};
    for (const auto& curve : curves) {
      row.push_back(log10_or_floor(curve.clr[i]));
      csv.add_row({panel_id, cu::format_fixed(grid[i], 3), curve.model,
                   cu::format_sci(curve.clr[i], 4)});
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace bench

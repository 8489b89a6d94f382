// cts-benchd: performance-telemetry orchestrator and the one bench gate.
//
// Runs a configurable suite of the figure/table benches (bench_suite.hpp)
// with warmup + R measured repeats each.  Every measured run executes the
// bench binary with --perf=<tmp>.json; the child's cts.perf.v2 report
// (getrusage deltas and span self-time table) is parsed back and
// aggregated into median / MAD / 95% CI per metric.  The result is one
// canonical, schema-versioned cts.bench.v1 document — BENCH_<ISO-date>.json
// at the invocation directory by default — that can be gated against a
// committed baseline with noise-aware thresholds.
//
//   cts_benchd --suite=smoke --repeats=5            # the usual call
//   cts_benchd --suite=full --repeats=3 --warmup=1  # everything (slow)
//   cts_benchd --compare=BENCH_base.json            # run + gate in one shot
//   cts_benchd --list                               # show the registry
//   cts_benchd trend --md=trend.md                  # ./BENCH_*.json report
//   cts_benchd trend --gate --window=1 BASE.json NEW.json  # offline gate
//   cts_benchd validate BENCH_*.json                # schema check only
//
// `trend` orders the given baselines (default: ./BENCH_*.json) by date,
// groups them by suite and scale — medians of different suites or scales
// are not comparable — and builds one trajectory per group
// (cts/obs/bench_trend.hpp), rendered as a markdown table on stdout and/or
// --md.  The gate thresholds are the TrendOptions defaults (3 MAD, 5%,
// wall_s, user_s and max_rss_kb).  --compare runs the suite, writes the
// document, then gates {BASE, document} with window 1 through the same
// function as `trend --gate`, BASE first whatever the dates.  Exit codes:
// 0 ok, 1 regression (with --gate or --compare) or a bench that failed to
// run, 2 usage, parse or schema errors, including documents with nothing
// comparable to gate, a --compare over a suite with failed benches and an
// --out naming the --compare baseline (refused before any bench runs).
//
// The simulation scale of every child is pinned via REPRO_REPS /
// REPRO_FRAMES (defaults: 2 x 2000, override with --reps/--frames) and
// echoed into the document, so only documents of one scale are gated
// against each other.  Each run is a child started without a shell
// (util::spawn_child, output to /dev/null); a run that fails is reported
// by how it ended: "FAILED <id>: <binary> exited with status N" or
// "... killed by signal N (<name>)".
//
// Pass value flags as --key=value: a file that follows a bare boolean flag
// (`trend --gate A.json`) would otherwise be read as the flag's value.

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/utsname.h>
#include <unistd.h>

#include "bench_suite.hpp"
#include "cts/obs/bench_stats.hpp"
#include "cts/obs/bench_trend.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/perf.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/subprocess.hpp"

namespace fs = std::filesystem;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

constexpr const char* kMetricNames[] = {
    "wall_s",         "user_s",          "sys_s",
    "max_rss_kb",     "ctx_voluntary",   "ctx_involuntary",
};

struct Options {
  std::string suite = "smoke";
  std::string filter;
  std::string out;
  std::string bench_dir;
  std::string compare;  ///< baseline for the one-shot gate ("" = off)
  long long repeats = 5;
  long long warmup = 1;
  long long repro_reps = 2;
  long long repro_frames = 2000;
};

/// The gate's settings, shared by `trend` and --compare.
struct GateArgs {
  obs::TrendOptions options;
  std::string md;  ///< markdown report path ("" = stdout only)
  bool gate = false;   ///< exit 1 on a regression drift
  bool quiet = false;  ///< no progress on stderr, no report on stdout
};

/// One parsed per-run perf report, flattened for aggregation.
struct RunSample {
  std::map<std::string, double> metrics;           ///< resources.*
  std::map<std::string, double> phase_self_us;     ///< phases[].self_us
  std::map<std::string, double> phase_spans;       ///< phases[].spans
};

std::string today_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
  return buf;
}

void usage() {
  std::printf(
      "usage: cts_benchd [--suite=smoke|sim|analytic|full] [--filter=SUBSTR]\n"
      "                  [--repeats=N] [--warmup=N] [--out=PATH]\n"
      "                  [--bench-dir=DIR] [--reps=N] [--frames=N]\n"
      "                  [--compare=BASE.json [--md=PATH]] [--quiet] [--list]\n"
      "       cts_benchd trend [BENCH_*.json ...] [--gate] [--window=2]\n"
      "                  [--md=PATH] [--quiet]\n"
      "       cts_benchd validate BENCH_*.json... [--quiet]\n\n"
      "Runs the selected bench suite with warmup + N measured repeats per\n"
      "bench and writes a cts.bench.v1 document (default: "
      "BENCH_<today UTC>.json\n"
      "in the current directory) with median/MAD/95%% CI and every sample\n"
      "of wall time, user/sys CPU time, peak RSS and context switches, and a\n"
      "per-phase span self-time table.  --compare=BASE.json then gates the\n"
      "fresh document against BASE in the same invocation, as\n"
      "`trend --gate --window=1 BASE document` does.  trend builds the perf\n"
      "trajectory per suite and scale over >= 2 baselines (default\n"
      "./BENCH_*.json) as a markdown table; validate checks each file\n"
      "against cts.bench.v1.  The gate flags a metric (wall_s, user_s,\n"
      "max_rss_kb) whose last --window medians all exceed the first by more\n"
      "than max(3 MAD, 5%%, the metric's resolution).  Exit codes: 0 ok,\n"
      "1 regression (--gate, --compare) or a failed bench, 2 usage/parse\n"
      "errors.\n");
}

/// The gate flags, parsed and checked once for `trend` and --compare.
GateArgs parse_gate_args(const cu::Flags& flags) {
  GateArgs args;
  // A negative --window must not wrap to "every point".
  const std::int64_t window = flags.get_int(
      "window", static_cast<std::int64_t>(args.options.window));
  cu::require(window >= 1,
              "--window must be >= 1, got " + std::to_string(window));
  args.options.window = static_cast<std::size_t>(window);
  args.md = flags.get_string("md", "");
  args.gate = flags.get_bool("gate", false);
  args.quiet = flags.get_bool("quiet", false);
  return args;
}

/// BENCH_*.json files in the working directory, lexicographically sorted.
std::vector<std::string> scan_bench_files() {
  std::vector<std::string> files;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(".", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Loads each file as a cts.bench.v1 document; a file that is not one is
/// a hard error (InvalidArgument naming it), never skipped silently.
std::vector<obs::BaselineDoc> load_baselines(
    const std::vector<std::string>& files) {
  std::vector<obs::BaselineDoc> docs;
  for (const std::string& path : files) {
    docs.push_back(obs::parse_baseline(path, cu::read_text_file(path)));
  }
  return docs;
}

/// The one bench gate, behind both `trend` and --compare.  `docs` are
/// ordered oldest (the reference) first and grouped by suite and scale;
/// every group with >= 2 baselines gets a trajectory.  Returns 0 ok, 1 a
/// regression drift under --gate, 2 when no group can be compared.
int gate_baselines(std::vector<obs::BaselineDoc> docs, const GateArgs& args) {
  std::map<std::pair<std::string, std::string>,
           std::vector<obs::BaselineDoc>> groups;
  for (obs::BaselineDoc& doc : docs) {
    groups[{doc.suite, doc.scale}].push_back(std::move(doc));
  }
  std::vector<obs::TrendReport> reports;
  for (const auto& [key, group] : groups) {
    if (group.size() < 2) {
      std::fprintf(stderr,
                   "cts_benchd: suite '%s' at scale {%s} has only one "
                   "baseline (%s); skipping it\n",
                   key.first.c_str(), key.second.c_str(),
                   group.front().path.c_str());
      continue;
    }
    reports.push_back(obs::build_trend(group, args.options));
  }
  if (reports.empty()) {
    std::fprintf(stderr,
                 "cts_benchd: no suite and scale has >= 2 of the %zu "
                 "baselines to compare\n",
                 docs.size());
    return 2;
  }

  std::string markdown;
  bool drift = false;
  for (const obs::TrendReport& report : reports) {
    markdown += obs::trend_markdown(report, args.options) + "\n";
    drift = drift || report.has_drift();
    if (!args.gate) continue;
    for (const obs::TrendSeries& series : report.series) {
      if (series.drift_regression) {
        std::fprintf(stderr, "%s\n", obs::regression_line(series).c_str());
      }
    }
  }
  if (!args.md.empty()) {
    cu::write_text_file(args.md, markdown);
    if (!args.quiet) {
      std::fprintf(stderr, "[cts_benchd] wrote %s\n", args.md.c_str());
    }
  }
  if (!args.quiet) std::fputs(markdown.c_str(), stdout);
  if (!args.gate) return 0;
  if (drift) return 1;
  if (!args.quiet) std::printf("no regressions beyond threshold\n");
  return 0;
}

/// `trend [FILE...]`: the trajectory over the files (default
/// ./BENCH_*.json), ordered by generated date then name.
int trend(std::vector<std::string> files, const GateArgs& args) {
  if (files.empty()) files = scan_bench_files();
  std::vector<obs::BaselineDoc> docs = load_baselines(files);
  obs::sort_baselines(docs);
  return gate_baselines(std::move(docs), args);
}

/// `validate FILE...`: strict RFC 8259 plus the cts.bench.v1 schema tag.
int validate(const std::vector<std::string>& files, bool quiet) {
  if (files.empty()) {
    usage();
    return 2;
  }
  int bad = 0;
  for (const std::string& path : files) {
    try {
      const obs::BaselineDoc doc = load_baselines({path}).front();
      if (!quiet) {
        std::printf("%s: valid cts.bench.v1 (suite %s, %zu benches, "
                    "generated %s)\n",
                    path.c_str(), doc.suite.c_str(),
                    doc.doc.at("benches").size(), doc.generated.c_str());
      }
    } catch (const cu::Error& e) {
      std::fprintf(stderr, "cts_benchd: %s\n", e.what());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 2;
}

bool in_suite(const bench::BenchSpec& s, const std::string& suite) {
  if (suite == "full") return true;
  if (suite == "smoke") return s.smoke;
  return suite == s.kind;  // "sim" | "analytic"
}

/// Runs one bench once; returns false when the child fails or its perf
/// report cannot be parsed (detail in *error).
bool run_once(const Options& opt, const bench::BenchSpec& spec,
              const std::string& perf_path, RunSample* out,
              std::string* error) {
  cu::ChildSpec child;
  try {
    child.argv = {bench::bench_binary(opt.bench_dir, spec.id), "--quiet",
                  "--perf=" + perf_path};
  } catch (const cu::Error& e) {
    *error = e.what();
    return false;
  }
  child.env_set = {{"REPRO_REPS", std::to_string(opt.repro_reps)},
                   {"REPRO_FRAMES", std::to_string(opt.repro_frames)},
                   {"CTS_QUIET", "1"}};
  child.output_path = "/dev/null";
  const pid_t pid = cu::spawn_child(child, error);
  if (pid < 0) return false;
  const cu::WaitOutcome outcome = cu::wait_child(pid, -1.0);
  if (!outcome.ok()) {
    *error = spec.binary + std::string(" ") + outcome.describe();
    return false;
  }
  std::string text;
  if (!cu::read_text_file(perf_path, &text, error)) return false;
  try {
    const obs::JsonValue doc = obs::json_parse(text);
    cu::require(doc.at("schema").as_string() == obs::kPerfSchema,
                "unexpected perf schema");
    const obs::JsonValue& res = doc.at("resources");
    for (const char* name : kMetricNames) {
      out->metrics[name] = res.at(name).as_number();
    }
    for (const obs::JsonValue& phase : doc.at("phases").items) {
      const std::string& name = phase.at("phase").as_string();
      out->phase_self_us[name] = phase.at("self_us").as_number();
      out->phase_spans[name] = phase.at("spans").as_number();
    }
  } catch (const cu::Error& e) {
    *error = std::string("perf report parse error: ") + e.what();
    return false;
  }
  return true;
}

void write_summary(obs::JsonWriter& w, const obs::RobustSummary& s,
                   const std::vector<double>& samples) {
  w.begin_object();
  w.key("n").value(static_cast<std::uint64_t>(s.n));
  w.key("median").value(s.median);
  w.key("mad").value(s.mad);
  w.key("ci95_lo").value(s.ci95_lo);
  w.key("ci95_hi").value(s.ci95_hi);
  w.key("min").value(s.min);
  w.key("max").value(s.max);
  w.key("mean").value(s.mean);
  w.key("samples").begin_array();
  for (const double v : samples) w.value(v);
  w.end_array();
  w.end_object();
}

/// Whether `a` and `b` name one file: the same inode when `a` exists, else
/// the same path once normalised.
bool same_file(const fs::path& a, const fs::path& b) {
  std::error_code ec;
  if (fs::exists(a, ec)) return fs::equivalent(a, b, ec);
  std::error_code ec_b;
  const fs::path canonical_a = fs::weakly_canonical(a, ec);
  return !ec && canonical_a == fs::weakly_canonical(b, ec_b) && !ec_b;
}

int run(const Options& opt, const GateArgs& gate_args) {
  std::vector<const bench::BenchSpec*> selected;
  for (const bench::BenchSpec& s : bench::kSuite) {
    if (!in_suite(s, opt.suite)) continue;
    if (!opt.filter.empty() &&
        std::string(s.id).find(opt.filter) == std::string::npos) {
      continue;
    }
    selected.push_back(&s);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "cts_benchd: no benches match suite '%s'%s%s\n",
                 opt.suite.c_str(),
                 opt.filter.empty() ? "" : " filter ",
                 opt.filter.c_str());
    return 2;
  }

  const std::string date = today_utc();
  const std::string out_path =
      opt.out.empty() ? "BENCH_" + date + ".json" : opt.out;
  // The document is written before the baseline is read, so an --out
  // naming the baseline would overwrite it and gate the run against itself.
  if (!opt.compare.empty() && same_file(out_path, opt.compare)) {
    std::fprintf(stderr,
                 "cts_benchd: --out %s is the --compare baseline; writing it "
                 "would overwrite the baseline\n",
                 out_path.c_str());
    return 2;
  }

  std::error_code ec;
  const fs::path run_dir =
      fs::temp_directory_path(ec) /
      ("cts_benchd_" + std::to_string(static_cast<long long>(getpid())));
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cts_benchd: cannot create run dir %s: %s\n",
                 run_dir.string().c_str(), ec.message().c_str());
    return 2;
  }

  std::ostringstream body;
  obs::JsonWriter w(body);
  w.begin_object();
  w.key("schema").value(obs::kBenchSchema);
  w.key("generated").value(date);
  w.key("suite").value(opt.suite);
  w.key("repeats").value(static_cast<std::int64_t>(opt.repeats));
  w.key("warmup").value(static_cast<std::int64_t>(opt.warmup));
  w.key("scale").begin_object();
  w.key("repro_reps").value(static_cast<std::int64_t>(opt.repro_reps));
  w.key("repro_frames").value(static_cast<std::int64_t>(opt.repro_frames));
  w.end_object();

  w.key("host").begin_object();
  w.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  utsname uts{};
  if (uname(&uts) == 0) {
    w.key("os").value(std::string(uts.sysname) + " " + uts.release);
    w.key("machine").value(uts.machine);
  }
  w.end_object();

  int failures = 0;
  w.key("benches").begin_object();
  for (const bench::BenchSpec* spec : selected) {
    if (!gate_args.quiet) {
      std::fprintf(stderr, "[cts_benchd] %-22s %s x%lld (+%lld warmup)\n",
                   spec->id, spec->kind, opt.repeats, opt.warmup);
    }
    std::vector<RunSample> samples;
    std::string error;
    bool failed = false;
    const long long total_runs = opt.warmup + opt.repeats;
    for (long long i = 0; i < total_runs; ++i) {
      const std::string perf_path =
          (run_dir / (std::string(spec->id) + "_run" + std::to_string(i) +
                      ".json"))
              .string();
      RunSample sample;
      if (!run_once(opt, *spec, perf_path, &sample, &error)) {
        std::fprintf(stderr, "[cts_benchd] FAILED %s: %s\n", spec->id,
                     error.c_str());
        failed = true;
        break;
      }
      if (i >= opt.warmup) samples.push_back(std::move(sample));
    }
    if (failed || samples.empty()) {
      ++failures;
      continue;
    }

    w.key(spec->id).begin_object();
    w.key("binary").value(spec->binary);
    w.key("kind").value(spec->kind);
    w.key("title").value(spec->title);
    w.key("runs").value(static_cast<std::uint64_t>(samples.size()));

    w.key("metrics").begin_object();
    for (const char* name : kMetricNames) {
      std::vector<double> values;
      values.reserve(samples.size());
      for (const RunSample& s : samples) values.push_back(s.metrics.at(name));
      write_summary(w.key(name), obs::robust_summary(values), values);
    }
    w.end_object();

    // Phase self-time table: median over runs, plus the share of the total
    // attributed self time (medians renormalised, so shares sum to ~1).
    std::map<std::string, std::vector<double>> phase_values;
    std::map<std::string, std::vector<double>> phase_span_counts;
    for (const RunSample& s : samples) {
      for (const auto& [phase, v] : s.phase_self_us) {
        phase_values[phase].push_back(v);
        phase_span_counts[phase].push_back(s.phase_spans.at(phase));
      }
    }
    double self_total = 0.0;
    std::map<std::string, double> phase_median;
    for (const auto& [phase, values] : phase_values) {
      phase_median[phase] = obs::median_of(values);
      self_total += phase_median[phase];
    }
    w.key("phases").begin_array();
    for (const auto& [phase, values] : phase_values) {
      w.begin_object();
      w.key("phase").value(phase);
      w.key("self_us_median").value(phase_median[phase]);
      w.key("self_share")
          .value(self_total > 0.0 ? phase_median[phase] / self_total : 0.0);
      w.key("spans_median").value(obs::median_of(phase_span_counts[phase]));
      w.end_object();
    }
    w.end_array();

    w.end_object();  // bench
  }
  w.end_object();  // benches
  w.end_object();  // document

  fs::remove_all(run_dir, ec);

  // Self-check: the document we are about to commit to disk must satisfy
  // our own strict validator.
  std::string error;
  if (!obs::json_parse_check(body.str(), &error)) {
    std::fprintf(stderr, "cts_benchd: internal error, emitted JSON invalid: %s\n",
                 error.c_str());
    return 2;
  }
  cu::write_text_file(out_path, body.str() + "\n");
  if (!gate_args.quiet) {
    std::fprintf(stderr, "[cts_benchd] wrote %s (%d benches, %d failed)\n",
                 out_path.c_str(),
                 static_cast<int>(selected.size()) - failures, failures);
  }

  // One-shot gate: `trend --gate --window=1 BASE document`, BASE first.
  // A bench that failed to run is an error (2), not a pass — a gate must
  // never go green because the regressed bench crashed out of the
  // measurement.
  if (!opt.compare.empty()) {
    if (failures != 0) {
      std::fprintf(stderr,
                   "cts_benchd: %d bench(es) failed; refusing to gate an "
                   "incomplete document against %s\n",
                   failures, opt.compare.c_str());
      return 2;
    }
    GateArgs args = gate_args;
    args.options.window = 1;
    args.gate = true;
    return gate_baselines(load_baselines({opt.compare, out_path}), args);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    cu::cli::check_flags(flags, cu::cli::flag_names(cu::cli::kBenchdFlags),
                         std::cerr);

    const GateArgs gate_args = parse_gate_args(flags);
    std::vector<std::string> args = flags.positionals();
    if (!args.empty()) {
      const std::string command = args.front();
      args.erase(args.begin());
      if (command == "trend") return trend(args, gate_args);
      if (command == "validate") return validate(args, gate_args.quiet);
      std::fprintf(stderr,
                   "cts_benchd: unknown command '%s' (known: trend, "
                   "validate)\n",
                   command.c_str());
      return 2;
    }

    Options opt;
    opt.suite = flags.get_string("suite", opt.suite);
    if (opt.suite != "smoke" && opt.suite != "sim" &&
        opt.suite != "analytic" && opt.suite != "full") {
      std::fprintf(stderr, "cts_benchd: unknown suite '%s'\n",
                   opt.suite.c_str());
      usage();
      return 2;
    }
    opt.filter = flags.get_string("filter", "");
    opt.out = flags.get_string("out", "");
    opt.compare = flags.get_string("compare", "");
    opt.repeats = flags.get_int("repeats", opt.repeats);
    opt.warmup = flags.get_int("warmup", opt.warmup);
    opt.repro_reps = flags.get_int("reps", opt.repro_reps);
    opt.repro_frames = flags.get_int("frames", opt.repro_frames);
    cu::require(opt.repeats >= 1, "cts_benchd: --repeats must be >= 1");
    cu::require(opt.warmup >= 0, "cts_benchd: --warmup must be >= 0");

    if (flags.get_bool("list", false)) {
      std::printf("%-24s %-9s %-6s %s\n", "id", "kind", "smoke", "title");
      for (const bench::BenchSpec& s : bench::kSuite) {
        std::printf("%-24s %-9s %-6s %s\n", s.id, s.kind,
                    s.smoke ? "yes" : "no", s.title);
      }
      return 0;
    }

    opt.bench_dir = bench::bench_dir(flags, argv[0]);
    return run(opt, gate_args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_benchd: %s\n", e.what());
    return 2;
  }
}

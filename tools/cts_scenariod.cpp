// cts-scenariod: scenario runner — networks of muxes as spec files.
//
//   cts_scenariod run SPEC.scn [--out=PATH] [--hop-trace=PATH]
//                 [--shard=I/N] [--reps=N] [--frames=N] [--warmup=N]
//                 [--seed=U64] [--threads=N] [--metrics=PATH]
//                 [--trace=PATH] [--quiet]
//   cts_scenariod merge PART.json... --out=PATH [--hop-trace=PATH]
//   cts_scenariod check SPEC.scn
//
// run parses a cts.scenario.v1 spec (docs/scenarios.md is the normative
// reference; the parser is the strict one in cts/sim/scenario.hpp) and
// executes it through the generic sharded replication driver: sources
// (model-zoo ids or inline models, with optional smoothing, GCRA policing
// and AAL5 overhead) feed a topology of fluid-mux hops (single, tandem,
// priority two-class), and the run emits one cts.scenarioresult.v1 JSON
// report — per-hop CLR with replication confidence intervals, occupancy
// histograms, analytic CTS/B-R predictions where applicable, and the raw
// per-replication tallies.
//
// With --shard=I/N the worker runs only its contiguous slice of the
// replications; seeds derive from global replication indices, so `merge`
// reassembles the partials into a document byte-identical to a
// single-process run of the same spec (the CI smoke diffs exactly that).
// check parses and validates a spec and resolves its source models (a bad
// zoo id fails as it would in run) without running it.
//
// Exit codes: 0 ok, 2 usage / spec / input errors.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cts/obs/run_report.hpp"
#include "cts/obs/trace.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"

namespace cli = cts::util::cli;
namespace cu = cts::util;
namespace obs = cts::obs;
namespace sim = cts::sim;

namespace {

void usage() {
  std::printf(
      "usage: cts_scenariod run SPEC.scn [--out=PATH] [--hop-trace=PATH]\n"
      "                     [--shard=I/N] [--reps=N] [--frames=N]\n"
      "                     [--warmup=N] [--seed=U64] [--threads=N]\n"
      "                     [--metrics=PATH] [--trace=PATH] [--quiet]\n"
      "       cts_scenariod merge PART.json... --out=PATH "
      "[--hop-trace=PATH]\n"
      "       cts_scenariod check SPEC.scn\n\n"
      "Runs a cts.scenario.v1 spec (sources -> network of fluid-mux hops)\n"
      "through the sharded replication harness and writes a\n"
      "cts.scenarioresult.v1 report.  merge reassembles --shard partials\n"
      "byte-identically to a single-process run; check only parses,\n"
      "validates and resolves the models of the spec.  docs/scenarios.md\n"
      "documents every spec key.\n\n"
      "flags:\n");
  for (const cli::FlagDoc& flag : cli::kScenariodFlags) {
    std::string name = std::string("--") + flag.name;
    if (flag.value_hint[0] != '\0') {
      name += std::string("=") + flag.value_hint;
    }
    std::printf("  %-22s %s\n", name.c_str(), flag.doc);
  }
}

std::uint64_t parse_u64_flag(const cu::Flags& flags, const std::string& key,
                             std::uint64_t fallback) {
  if (!flags.has(key)) return fallback;
  const std::string text = flags.get_string(key, "");
  std::uint64_t value = 0;
  cu::require(cu::try_parse_u64(text, &value),
              "--" + key + " expects a decimal unsigned 64-bit integer, got '" +
                  text + "'");
  return value;
}

/// Applies the run-mode scale overrides to a parsed scenario.
sim::Scenario apply_overrides(sim::Scenario scenario, const cu::Flags& flags) {
  if (flags.has("reps")) {
    const std::int64_t reps = flags.get_int("reps", 0);
    cu::require(reps >= 1, "--reps: need at least 1 replication");
    scenario.replications = static_cast<std::size_t>(reps);
  }
  if (flags.has("frames")) {
    const std::int64_t frames = flags.get_int("frames", 0);
    cu::require(frames >= 1, "--frames: need at least 1 frame");
    scenario.frames = static_cast<std::uint64_t>(frames);
  }
  if (flags.has("warmup")) {
    const std::int64_t warmup = flags.get_int("warmup", 0);
    cu::require(warmup >= 0, "--warmup: must be >= 0");
    scenario.warmup = static_cast<std::uint64_t>(warmup);
  }
  scenario.seed = parse_u64_flag(flags, "seed", scenario.seed);
  return scenario;
}

void print_hop_summary(const sim::Scenario& scenario,
                       const sim::ScenarioRunResult& result) {
  for (std::size_t h = 0; h < scenario.hops.size(); ++h) {
    double arrived = 0.0;
    double lost = 0.0;
    for (const sim::ScenarioRepSample& sample : result.samples) {
      arrived += sample.hops[h].arrived();
      lost += sample.hops[h].lost();
    }
    std::printf("  hop %-12s arrived %.6g cells, lost %.6g (clr %.3e)\n",
                scenario.hops[h].name.c_str(), arrived, lost,
                arrived > 0.0 ? lost / arrived : 0.0);
  }
}

int run_mode(const std::vector<std::string>& args, const cu::Flags& flags) {
  cu::require(args.size() == 1,
              "run: need exactly one SPEC.scn argument, got " +
                  std::to_string(args.size()));
  const std::string spec_path = args[0];
  sim::Scenario scenario =
      apply_overrides(sim::parse_scenario(cu::read_text_file(spec_path)),
                      flags);

  sim::ScenarioRunOptions options;
  if (flags.has("shard")) {
    const sim::ShardSpec shard =
        sim::parse_shard_spec(flags.get_string("shard", ""));
    options.shard_index = shard.index;
    options.shard_count = shard.count;
  }
  const std::int64_t threads = flags.get_int("threads", 0);
  cu::require(threads >= 0, "--threads: must be >= 0");
  options.threads = static_cast<unsigned>(threads);
  options.progress = !flags.get_bool("quiet", false);

  const std::string trace_path = flags.get_string("trace", "");
  if (!trace_path.empty()) obs::TraceRecorder::global().enable();

  const sim::ScenarioRunResult result = sim::run_scenario(scenario, options);

  const std::string out_path =
      flags.get_string("out", "scenario_result.json");
  cu::write_text_file(out_path,
                      sim::write_scenario_result_json(scenario, result));
  std::printf("scenario '%s': %zu/%zu replications -> %s\n",
              scenario.name.c_str(), result.samples.size(),
              scenario.replications, out_path.c_str());
  print_hop_summary(scenario, result);

  const std::string hop_trace_path = flags.get_string("hop-trace", "");
  if (!hop_trace_path.empty()) {
    cu::write_text_file(hop_trace_path,
                        sim::write_scenario_trace_json(scenario, result));
    std::printf("  hop trace -> %s\n", hop_trace_path.c_str());
  }
  const std::string metrics_path = flags.get_string("metrics", "");
  if (!metrics_path.empty()) {
    obs::RunReport report;
    report.set("tool", "cts_scenariod");
    report.set("mode", "run");
    report.set("spec", spec_path);
    report.set("scenario", scenario.name);
    report.set("replications",
               static_cast<std::uint64_t>(scenario.replications));
    report.set("frames", scenario.frames);
    report.set("warmup", scenario.warmup);
    report.set("seed", std::to_string(scenario.seed));
    report.set("shard", sim::format_shard_spec(
                            {options.shard_index, options.shard_count}));
    cu::require(report.write(metrics_path),
                "cannot write '" + metrics_path + "'");
  }
  if (!trace_path.empty()) {
    cu::require(obs::TraceRecorder::global().write(trace_path),
                "cannot write '" + trace_path + "'");
  }
  return 0;
}

int merge_mode(const std::vector<std::string>& args, const cu::Flags& flags) {
  cu::require(!args.empty(), "merge: need at least one PART.json argument");
  std::vector<sim::ScenarioResultDoc> parts;
  parts.reserve(args.size());
  for (const std::string& path : args) {
    try {
      parts.push_back(sim::parse_scenario_result(cu::read_text_file(path)));
    } catch (const cu::InvalidArgument& e) {
      throw cu::InvalidArgument(path + ": " + e.what());
    }
  }
  const std::string merged = sim::merge_scenario_result_json(parts);
  cu::require(flags.has("out"), "merge: --out=PATH is required");
  const std::string out_path = flags.get_string("out", "");
  cu::write_text_file(out_path, merged);
  std::printf("merged %zu partial(s) -> %s\n", parts.size(),
              out_path.c_str());

  const std::string hop_trace_path = flags.get_string("hop-trace", "");
  if (!hop_trace_path.empty()) {
    const sim::ScenarioResultDoc doc = sim::parse_scenario_result(merged);
    sim::Scenario scenario = sim::parse_scenario(doc.spec_text);
    sim::ScenarioRunResult result;
    result.samples = doc.samples;
    result.traces = doc.traces;
    cu::write_text_file(hop_trace_path,
                        sim::write_scenario_trace_json(scenario, result));
    std::printf("  hop trace -> %s\n", hop_trace_path.c_str());
  }
  return 0;
}

int check_mode(const std::vector<std::string>& args) {
  cu::require(args.size() == 1,
              "check: need exactly one SPEC.scn argument, got " +
                  std::to_string(args.size()));
  const sim::Scenario scenario =
      sim::parse_scenario(cu::read_text_file(args[0]));
  std::size_t instances = 0;
  for (const sim::ScenarioSource& group : scenario.sources) {
    // Resolved as `run` resolves it, so a bad zoo id fails here the same way.
    sim::resolve_scenario_model(group.model);
    instances += group.count;
  }
  std::string order;
  for (std::size_t h : scenario.hop_order) {
    if (!order.empty()) order += " -> ";
    order += scenario.hops[h].name;
  }
  std::printf(
      "ok: scenario '%s': %zu source group(s) (%zu instances), "
      "%zu hop(s): %s\n",
      scenario.name.c_str(), scenario.sources.size(), instances,
      scenario.hops.size(), order.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    cli::check_flags(flags, cli::flag_names(cli::kScenariodFlags), std::cerr);
    std::vector<std::string> args = flags.positionals();
    if (args.empty()) {
      usage();
      return 2;
    }
    const std::string mode = args.front();
    args.erase(args.begin());
    if (mode == "run") return run_mode(args, flags);
    if (mode == "merge") return merge_mode(args, flags);
    if (mode == "check") return check_mode(args);
    throw cu::InvalidArgument("unknown mode '" + mode +
                              "' (known: run, merge, check)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_scenariod: error: %s\n", e.what());
    return 2;
  }
}

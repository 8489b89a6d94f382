// cts-benchtrend: perf-trajectory reporting over committed BENCH_*.json
// baselines.
//
//   cts_benchtrend                            # scan . for BENCH_*.json
//   cts_benchtrend BENCH_a.json BENCH_b.json  # explicit chain
//   cts_benchtrend --md=trend.md --csv=trend.csv --svg=trend.svg
//   cts_benchtrend --gate                     # exit 1 on sustained drift
//   cts_benchtrend --gate --window=1 --metrics=wall_s,user_s,max_rss_kb
//                  BASE.json NEW.json         # offline two-file gate
//   cts_benchtrend --validate FILE.json...    # schema check only
//
// Loads every baseline (strict JSON + the cts.bench.v1 schema tag — a
// file with a missing or unknown schema is rejected with a message naming
// what was found), orders them by generated date then filename, and
// builds per-bench median series with MAD/95%-CI bands (see
// cts/obs/bench_trend.hpp).  A series flags DRIFT only when the last
// --window baselines all sit beyond the noise band around the first
// baseline — a sustained trend, not a single noisy delta.  Output: a
// markdown table (stdout and/or --md), a CSV mirror (--csv) and a
// self-contained SVG sparkline chart (--svg), one chart per suite when
// the baselines span several.
//
// Exit codes: 0 ok, 1 sustained drift (only with --gate), 2 usage/parse
// errors — CI runs --validate plus the report without --gate, because
// shared runners are too noisy to gate on (see ROADMAP).
//
// Note: pass value flags in --key=value form; positional file arguments
// that follow a bare boolean flag would otherwise be consumed as its value.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cts/obs/bench_trend.hpp"
#include "cts/obs/svg.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"

namespace fs = std::filesystem;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

void usage() {
  std::printf(
      "usage: cts_benchtrend [BENCH_*.json ...] [--dir=DIR] [--metrics=CSV]\n"
      "                      [--md=PATH] [--csv=PATH] [--svg=PATH]\n"
      "                      [--k=3] [--pct=5] [--window=2] [--gate] "
      "[--quiet]\n"
      "       cts_benchtrend --validate FILE.json...\n\n"
      "Builds the perf trajectory across >= 2 cts.bench.v1 baselines:\n"
      "per-bench median series with MAD/CI bands, Theil-Sen slope, and\n"
      "sustained-drift detection (the last --window baselines all beyond\n"
      "the noise band around the first).  Exit codes: 0 ok, 1 drift (only\n"
      "with --gate), 2 usage/parse errors.\n");
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream ss(s);
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// BENCH_*.json files under `dir`, lexicographically sorted.
std::vector<std::string> scan_dir(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int validate(const std::vector<std::string>& files, bool quiet) {
  if (files.empty()) {
    usage();
    return 2;
  }
  int bad = 0;
  for (const std::string& path : files) {
    std::string text;
    std::string read_error;
    if (!cu::read_text_file(path, &text, &read_error)) {
      std::fprintf(stderr, "cts_benchtrend: %s\n", read_error.c_str());
      ++bad;
      continue;
    }
    try {
      const obs::BaselineDoc doc = obs::parse_baseline(path, text);
      if (!quiet) {
        std::printf("%s: valid cts.bench.v1 (suite %s, %zu benches, "
                    "generated %s)\n",
                    path.c_str(), doc.suite.c_str(),
                    doc.doc.at("benches").size(), doc.generated.c_str());
      }
    } catch (const cu::Error& e) {
      std::fprintf(stderr, "cts_benchtrend: %s\n", e.what());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 2;
}

/// Derives a per-suite output path: "trend.svg" -> "trend_smoke.svg".
std::string suite_path(const std::string& path, const std::string& suite,
                       bool multi_suite) {
  if (!multi_suite) return path;
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos) return path + "_" + suite;
  return path.substr(0, dot) + "_" + suite + path.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    flags.warn_unknown(std::cerr, cu::cli::flag_names(cu::cli::kBenchtrendFlags));
    const bool quiet = flags.get_bool("quiet", false);

    std::vector<std::string> files = flags.positionals();
    if (flags.has("validate")) {
      // --validate FILE... or --validate=FILE.
      const std::string value = flags.get_string("validate", "");
      if (value != "true" && !value.empty()) files.insert(files.begin(), value);
      return validate(files, quiet);
    }

    if (files.empty()) files = scan_dir(flags.get_string("dir", "."));
    if (files.size() < 2) {
      std::fprintf(stderr,
                   "cts_benchtrend: need >= 2 BENCH_*.json baselines for a "
                   "trajectory (found %zu)\n",
                   files.size());
      return 2;
    }

    // A negative --k or --pct would silently switch its gate off, and a
    // negative --window must not wrap to "every point".
    obs::TrendOptions options;
    options.k_mad = flags.get_double("k", options.k_mad);
    cu::require(options.k_mad >= 0.0,
                "--k must be >= 0, got " + flags.get_string("k", ""));
    const double pct = flags.get_double("pct", options.min_rel * 100.0);
    cu::require(pct >= 0.0,
                "--pct must be >= 0, got " + flags.get_string("pct", ""));
    options.min_rel = pct / 100.0;
    const std::int64_t window = flags.get_int("window", 2);
    cu::require(window >= 1,
                "--window must be >= 1, got " + std::to_string(window));
    options.window = static_cast<std::size_t>(window);
    if (flags.has("metrics")) {
      options.metrics = split_csv(flags.get_string("metrics", ""));
      cu::require(!options.metrics.empty(),
                  "cts_benchtrend: --metrics must name at least one metric");
    }

    // Load every baseline; a file that is not a cts.bench.v1 document is a
    // hard error, never skipped silently.
    std::vector<obs::BaselineDoc> docs;
    for (const std::string& path : files) {
      // Throws with path + errno on an unreadable file (exit 2 below).
      docs.push_back(obs::parse_baseline(path, cu::read_text_file(path)));
    }
    obs::sort_baselines(docs);

    // One trajectory per suite: medians from different suites/scales are
    // not comparable, so they chart separately.
    std::map<std::string, std::vector<obs::BaselineDoc>> by_suite;
    for (obs::BaselineDoc& doc : docs) {
      by_suite[doc.suite].push_back(std::move(doc));
    }

    bool any_drift = false;
    std::string all_markdown;
    std::string all_csv;
    for (const auto& [suite, suite_docs] : by_suite) {
      if (suite_docs.size() < 2) {
        std::fprintf(stderr,
                     "cts_benchtrend: suite '%s' has only one baseline (%s); "
                     "skipping its trajectory\n",
                     suite.c_str(), suite_docs.front().path.c_str());
        continue;
      }
      const obs::TrendReport report = obs::build_trend(suite_docs, options);
      any_drift = any_drift || report.has_drift();
      all_markdown += obs::trend_markdown(report, options);
      all_markdown += "\n";
      all_csv += obs::trend_csv(report);
      if (flags.has("svg")) {
        const std::string path =
            suite_path(flags.get_string("svg", "trend.svg"), suite,
                       by_suite.size() > 1);
        if (!write_file(path, obs::trend_svg(report))) {
          std::fprintf(stderr, "cts_benchtrend: cannot write %s\n",
                       path.c_str());
          return 2;
        }
        if (!quiet) {
          std::fprintf(stderr, "[cts_benchtrend] wrote %s\n", path.c_str());
        }
      }
    }
    if (all_markdown.empty()) {
      std::fprintf(stderr,
                   "cts_benchtrend: no suite had >= 2 baselines to chart\n");
      return 2;
    }

    if (flags.has("md")) {
      const std::string path = flags.get_string("md", "trend.md");
      if (!write_file(path, all_markdown)) {
        std::fprintf(stderr, "cts_benchtrend: cannot write %s\n", path.c_str());
        return 2;
      }
      if (!quiet) {
        std::fprintf(stderr, "[cts_benchtrend] wrote %s\n", path.c_str());
      }
    }
    if (flags.has("csv")) {
      const std::string path = flags.get_string("csv", "trend.csv");
      if (!write_file(path, all_csv)) {
        std::fprintf(stderr, "cts_benchtrend: cannot write %s\n", path.c_str());
        return 2;
      }
      if (!quiet) {
        std::fprintf(stderr, "[cts_benchtrend] wrote %s\n", path.c_str());
      }
    }
    if (!quiet) std::fputs(all_markdown.c_str(), stdout);

    if (any_drift && flags.get_bool("gate", false)) {
      std::fprintf(stderr,
                   "DRIFT: at least one bench metric moved beyond the noise "
                   "band for the last %zu baseline(s)\n",
                   options.window);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_benchtrend: %s\n", e.what());
    return 2;
  }
}

// Seeded FBNDP frame streams pinned by tests/golden/fbndp_frames.csv.
//
// Shared by the golden test (test_golden_fbndp) and its regeneration tool
// (gen_golden_fbndp), so both always produce the same streams.  The models
// are the paper's FBNDP-backed zoo members -- V^1.5, V^1, Z^0.975 and L --
// built through `model_from_id`, the path every bench and the simulator use.

#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cts/fit/model_zoo.hpp"

namespace cts::golden {

struct GoldenFrame {
  std::string model;
  std::uint64_t seed = 0;
  std::size_t index = 0;
  double cells = 0.0;
};

inline const std::vector<std::string>& fbndp_golden_models() {
  static const std::vector<std::string> ids{"vv:1.5", "vv:1", "za:0.975",
                                            "l"};
  return ids;
}

constexpr std::uint64_t kGoldenSeeds[] = {20260817ULL, 7ULL};
constexpr std::size_t kGoldenFramesPerStream = 500;

/// Generates every (model, seed) stream, models in table order.
inline std::vector<GoldenFrame> generate_fbndp_golden() {
  std::vector<GoldenFrame> rows;
  for (const std::string& id : fbndp_golden_models()) {
    const fit::ModelSpec spec = fit::model_from_id(id);
    for (const std::uint64_t seed : kGoldenSeeds) {
      auto source = spec.make_source(seed);
      for (std::size_t i = 0; i < kGoldenFramesPerStream; ++i) {
        rows.push_back({id, seed, i, source->next_frame()});
      }
    }
  }
  return rows;
}

/// CSV with a header line; cells printed with 17 significant digits so the
/// text round-trips every double exactly.
inline std::string format_golden_csv(const std::vector<GoldenFrame>& rows) {
  std::string out = "model,seed,frame,cells\n";
  char line[128];
  for (const GoldenFrame& row : rows) {
    std::snprintf(line, sizeof line, "%s,%llu,%zu,%.17g\n", row.model.c_str(),
                  static_cast<unsigned long long>(row.seed), row.index,
                  row.cells);
    out += line;
  }
  return out;
}

/// Parses format_golden_csv output; returns false on a malformed line.
inline bool parse_golden_csv(const std::string& text,
                             std::vector<GoldenFrame>* rows) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "model,seed,frame,cells") {
    return false;
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    GoldenFrame row;
    std::string seed, index, cells;
    if (!std::getline(fields, row.model, ',') ||
        !std::getline(fields, seed, ',') ||
        !std::getline(fields, index, ',') || !std::getline(fields, cells)) {
      return false;
    }
    try {
      row.seed = std::stoull(seed);
      row.index = static_cast<std::size_t>(std::stoull(index));
      row.cells = std::stod(cells);
    } catch (const std::exception&) {
      return false;
    }
    rows->push_back(std::move(row));
  }
  return true;
}

}  // namespace cts::golden

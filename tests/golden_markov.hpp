// Seeded Markov frame streams pinned by tests/golden/markov_frames.csv.
//
// Shared by the golden test (test_golden_markov) and its regeneration tool
// (gen_golden_markov).  The models are the simulated Markov curves of fig9
// and fig10 -- DAR(1), DAR(2) and DAR(3) matched to Z^a, and AR(1) -- plus
// DAR(1) with the negative-binomial marginal.  Each stream is read the way
// the simulator and the scenario runner read it: blocks through fill() of
// 1, p - 1, p, 256 and 257 frames, with one next_frame() call after each
// block, so the recording pins both paths and every hand-over between them.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cts/fit/model_zoo.hpp"
#include "golden_fbndp.hpp"

namespace cts::golden {

struct MarkovGoldenModel {
  std::string id;     ///< the `model` column
  std::size_t order;  ///< p of the blocks 1, p - 1, p (1 for AR(1))
  fit::ModelSpec spec;
};

inline std::vector<MarkovGoldenModel> markov_golden_models() {
  std::vector<MarkovGoldenModel> models;
  for (const auto& [id, order] :
       {std::pair<const char*, std::size_t>{"dar:0.975:1", 1},
        {"dar:0.9:2", 2},
        {"dar:0.975:3", 3},
        {"ar1:0.8", 1}}) {
    models.push_back({id, order, fit::model_from_id(id)});
  }
  models.push_back(
      {"dar-negbinom:0.975:1", 1, fit::make_dar_negbinom(0.975, 1)});
  return models;
}

/// Generates every (model, seed) stream, models in table order.
inline std::vector<GoldenFrame> generate_markov_golden() {
  std::vector<GoldenFrame> rows;
  for (const MarkovGoldenModel& model : markov_golden_models()) {
    const std::size_t p = model.order;
    for (const std::uint64_t seed : kGoldenSeeds) {
      auto source = model.spec.make_source(seed);
      std::size_t index = 0;
      for (const std::size_t n : {std::size_t{1}, p - 1, p, std::size_t{256},
                                  std::size_t{257}}) {
        std::vector<double> block(n);
        source->fill(block.data(), n);
        block.push_back(source->next_frame());
        for (const double cells : block) {
          rows.push_back({model.id, seed, index++, cells});
        }
      }
    }
  }
  return rows;
}

}  // namespace cts::golden

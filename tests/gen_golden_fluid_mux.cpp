// Regenerates tests/golden/fluid_mux_tallies.csv from the current library.
//
//   cmake --build build --target gen_golden_fluid_mux
//   build/tests/gen_golden_fluid_mux tests/golden/fluid_mux_tallies.csv
//   git diff --stat tests/golden/
//
// The arrivals replay tests/golden/fbndp_frames.csv.  Run it only when a
// change is meant to move the fluid-mux tallies, and have the resulting
// diff reviewed with that change.  With no argument the CSV goes to stdout.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "golden_fluid_mux.hpp"

int main(int argc, char** argv) {
  const std::string csv = cts::golden::fluid_golden_csv(
      std::string(CTS_GOLDEN_DIR) + "/fbndp_frames.csv");
  if (csv.empty()) {
    std::fprintf(stderr, "gen_golden_fluid_mux: cannot read %s\n",
                 CTS_GOLDEN_DIR "/fbndp_frames.csv");
    return 1;
  }
  if (argc < 2) {
    std::cout << csv;
    return 0;
  }
  std::ofstream out(argv[1], std::ios::binary);
  out << csv;
  if (!out) {
    std::fprintf(stderr, "gen_golden_fluid_mux: cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}

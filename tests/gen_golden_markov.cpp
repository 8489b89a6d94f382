// Regenerates tests/golden/markov_frames.csv from the current library.
//
//   cmake --build build --target gen_golden_markov
//   build/tests/gen_golden_markov tests/golden/markov_frames.csv
//   git diff --stat tests/golden/
//
// Run it only when a change is meant to move the DAR(p) or AR(1) streams,
// and have the resulting diff reviewed with that change.  With no argument
// the CSV goes to stdout.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "golden_markov.hpp"

int main(int argc, char** argv) {
  const std::string csv =
      cts::golden::format_golden_csv(cts::golden::generate_markov_golden());
  if (argc < 2) {
    std::cout << csv;
    return 0;
  }
  std::ofstream out(argv[1], std::ios::binary);
  out << csv;
  if (!out) {
    std::fprintf(stderr, "gen_golden_markov: cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}

// E3 -- reproduces Fig. 9: the flow paths covering all 744 valves of the
// irregular 20x20 array (three transport channels, two obstacles).
//
// Paper: 16 flow paths. Here the hierarchical constructive engine needs
// 22 (5x5 subblocks), and all 744 valves are covered.
#include <iostream>

#include "core/generator.h"
#include "core/report.h"
#include "grid/presets.h"

int main() {
  using namespace fpva;
  const grid::ValveArray array = grid::fig9_array();

  core::GeneratorOptions options;
  options.hierarchical = true;
  options.block_size = 5;
  options.generate_cut_vectors = false;
  options.generate_leak_vectors = false;
  const auto set = core::generate_test_set(array, options);

  int covered = 0;
  {
    std::vector<bool> mask(static_cast<std::size_t>(array.valve_count()),
                           false);
    for (const auto& path : set.paths) {
      for (const auto v : core::path_valves(array, path)) {
        mask[static_cast<std::size_t>(v)] = true;
      }
    }
    for (const bool c : mask) covered += c;
  }

  std::cout << "Fig. 9 -- flow paths for the 20x20 array with channels and "
               "obstacles\n\n";
  std::cout << set.paths.size() << " flow paths cover " << covered << " of "
            << array.valve_count()
            << " valves (paper: 16 paths / 744 valves)\n\n";
  std::cout << core::render_paths(array, set.paths);
  std::cout << "\nLegend: digits/letters = path ids, '*' = shared cells, "
               "'o' = always-open channel, '#' = wall/obstacle, S = source, "
               "M = pressure meter.\n";
  return 0;
}

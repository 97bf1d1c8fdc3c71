// E2 -- reproduces Fig. 8: flow paths on a full 10x10 array, direct model
// vs hierarchical model (5x5 subblocks).
//
// Paper: 2 paths direct, 4 paths hierarchical. Here the constructive
// engine needs 5 paths direct and 10 hierarchical: more than the paper's
// ILP in both modes, and at least as many hierarchical as direct -- the
// hierarchy trades path count for scalability.
#include <iostream>

#include "core/generator.h"
#include "core/report.h"
#include "grid/presets.h"

int main() {
  using namespace fpva;
  const grid::ValveArray array = grid::full_array(10, 10);

  core::GeneratorOptions direct;
  direct.generate_cut_vectors = false;
  direct.generate_leak_vectors = false;
  const auto direct_set = core::generate_test_set(array, direct);

  core::GeneratorOptions hier = direct;
  hier.hierarchical = true;
  hier.block_size = 5;
  const auto hier_set = core::generate_test_set(array, hier);

  std::cout << "Fig. 8 -- flow paths on a full 10x10 FPVA\n\n";
  std::cout << "(a) direct model: " << direct_set.paths.size()
            << " flow paths (paper: 2)\n";
  std::cout << core::render_paths(array, direct_set.paths) << "\n";
  std::cout << "(b) hierarchical model, 5x5 subblocks: "
            << hier_set.paths.size() << " flow paths (paper: 4)\n";
  std::cout << core::render_paths(array, hier_set.paths) << "\n";
  std::cout << "direct <= hierarchical path count: "
            << (direct_set.paths.size() <= hier_set.paths.size() ? "yes"
                                                                 : "no")
            << "\n";
  return 0;
}

// Quickstart: generate a complete manufacturing-test program for an 8x8
// fully programmable valve array and inspect it.
//
//   cmake -B build && cmake --build build
//   ./build/quickstart
#include <iostream>

#include "core/generator.h"
#include "core/port_advisor.h"
#include "core/report.h"
#include "grid/presets.h"
#include "grid/serialize.h"

int main() {
  using namespace fpva;

  // 1. Describe the device under test: an 8x8 FPVA with the default hookup
  //    (pressure source top-left, pressure meter bottom-right).
  const grid::ValveArray array = grid::full_array(8, 8);
  std::cout << "Device under test (" << array.valve_count()
            << " valves):\n\n"
            << grid::to_ascii(array) << "\n";

  // 2. Generate the test set: flow paths (stuck-at-0), cut-sets
  //    (stuck-at-1) and control-leakage vectors, with behavioral repair.
  const core::GeneratedTestSet set = core::generate_test_set(array);
  std::cout << core::summarize(array, set) << "\n\n";

  // 3. The flow paths, overlaid on the array (compare with the paper's
  //    Fig. 8/9 plots).
  std::cout << "Flow paths:\n" << core::render_paths(array, set.paths)
            << "\n";

  // 4. One vector in detail: which valves does "cut 3" close?
  for (const sim::TestVector& vector : set.vectors) {
    if (vector.label != "cut 3") continue;
    std::cout << "Vector '" << vector.label << "' (" << to_cstring(
        vector.kind) << "): closes valves ";
    for (std::size_t v = 0; v < vector.states.size(); ++v) {
      if (!vector.states[v]) std::cout << v << ' ';
    }
    std::cout << "\n  expected meter readings:";
    for (const bool reading : vector.expected) {
      std::cout << ' ' << (reading ? "pressure" : "silent");
    }
    std::cout << "\n\n";
    break;
  }

  // 5. Prove a fault is caught: inject "valve 17 cannot open".
  const sim::Simulator simulator(array);
  const sim::Fault fault[] = {sim::stuck_at_0(17)};
  for (const sim::TestVector& vector : set.vectors) {
    if (simulator.detects(vector, fault)) {
      std::cout << "Injected " << to_string(fault[0])
                << " -> first caught by vector '" << vector.label << "'\n";
      break;
    }
  }

  // 6. Control-leak pairs no vector can separate with this hookup: ask
  //    for extra meter sites and regenerate the program on the amended
  //    array.
  if (!set.untestable_leaks.empty()) {
    std::cout << "\n" << set.untestable_leaks.size()
              << " control-leak pairs are untestable with one meter;"
                 " suggested meter sites:";
    const core::PortAdvice advice = core::advise_meters(array);
    for (const grid::Site site : advice.added_meters) {
      std::cout << ' ' << grid::to_string(site);
    }
    const core::GeneratedTestSet amended =
        core::generate_test_set(advice.amended);
    std::cout << "\n  untestable control-leak pairs with them: "
              << amended.untestable_leaks.size() << "\n";
  }
  return 0;
}

// Monte-Carlo fault-injection study (the paper's Section IV experiment) on
// a chosen Table-I array.
//
//   ./build/examples/fault_campaign [n] [trials] [degraded_probability]
//
// n must be one of 5, 10, 15, 20, 30 (default 15); trials (at least 1)
// defaults to 10,000 per fault count. A nonzero degraded_probability, at
// most 1, mixes degraded-flow faults into the single-valve draws (the
// paper's model is pure stuck-at, i.e. 0). Bad arguments print the usage
// line and exit with status 2.
#include <algorithm>
#include <iostream>
#include <optional>

#include "common/strings.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/campaign.h"

int main(int argc, char** argv) {
  using namespace fpva;
  const std::optional<int> n =
      argc > 1 ? common::parse_int(argv[1]) : std::optional<int>(15);
  const std::optional<int> trials =
      argc > 2 ? common::parse_int(argv[2]) : std::optional<int>(10000);
  const std::optional<double> degraded =
      argc > 3 ? common::parse_double(argv[3]) : std::optional<double>(0.0);
  const std::vector<int> sizes = grid::table1_sizes();
  const bool preset =
      n && std::find(sizes.begin(), sizes.end(), *n) != sizes.end();
  if (argc > 4 || !preset || !trials || *trials < 1 || !degraded ||
      *degraded < 0.0 || *degraded > 1.0) {
    std::cerr << "usage: fault_campaign [n=15, one of 5 10 15 20 30] "
                 "[trials=10000, >= 1] [degraded_probability=0, in [0, 1]]\n";
    return 2;
  }

  const grid::ValveArray array = grid::table1_array(*n);
  std::cout << "Array " << *n << "x" << *n << " with "
            << array.valve_count() << " valves; generating vectors...\n";

  core::GeneratorOptions options;
  options.hierarchical = true;
  const core::GeneratedTestSet set = core::generate_test_set(array, options);
  std::cout << set.total_vectors() << " vectors generated in "
            << common::to_fixed(set.total_seconds(), 2) << " s\n\n";

  const sim::Simulator simulator(array);
  sim::CampaignOptions campaign;
  campaign.trials_per_count = *trials;
  campaign.degraded_probability = *degraded;
  const sim::CampaignResult result =
      sim::run_campaign(simulator, set.vectors, campaign);

  std::cout << sim::summarize(result);
  std::cout << (result.all_detected()
                    ? "\nEvery injected fault combination was detected.\n"
                    : "\nSome combinations escaped -- see above.\n");
  return result.all_detected() ? 0 : 1;
}

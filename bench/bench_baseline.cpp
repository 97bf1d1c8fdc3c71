// E5 -- reproduces the Section IV baseline comparison: the naive method
// that targets one valve per vector needs ~2*n_v vectors, "a squared
// complexity compared with the proposed method". The paper puts the
// proposed method near 2*sqrt(n_v); here it measures N = 50 / 85 / 87 / 132
// on 10x10 .. 30x30, above both 2*sqrt(n_v) (printed for reference) and the
// paper's 26 / 44 / 70 / 98 -- see bench_table1 and the ROADMAP item
// "Make Table I true: ILP per subblock".
#include <cmath>
#include <iostream>

#include "common/strings.h"
#include "common/table.h"
#include "core/baseline.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/coverage.h"
#include "sim/simulator.h"

int main() {
  using namespace fpva;

  std::cout << "Baseline comparison -- proposed (hierarchical) vs "
               "one-valve-at-a-time\n\n";
  common::Table table({"Array", "n_v", "proposed N", "2*sqrt(n_v)",
                       "baseline N", "ratio", "baseline covers"});

  for (const int n : grid::table1_sizes()) {
    const grid::ValveArray array = grid::table1_array(n);
    core::GeneratorOptions options;
    options.hierarchical = true;
    const auto proposed = core::generate_test_set(array, options);
    const auto baseline = core::generate_baseline(array);

    // Verify the baseline actually achieves stuck-fault coverage (it is a
    // real method here, not just a vector count).
    const sim::Simulator simulator(array);
    const auto universe = sim::single_stuck_fault_universe(array);
    const auto report =
        sim::single_fault_coverage(simulator, baseline.vectors, universe);

    const double ratio =
        static_cast<double>(baseline.vectors.size()) /
        static_cast<double>(proposed.total_vectors());
    table.add_row(
        {common::cat(n, " x ", n), common::cat(array.valve_count()),
         common::cat(proposed.total_vectors()),
         common::to_fixed(2.0 * std::sqrt(array.valve_count()), 1),
         common::cat(baseline.vectors.size()),
         common::cat(common::to_fixed(ratio, 1), "x"),
         common::cat(common::to_fixed(100.0 * report.coverage(), 1), "%")});
  }
  std::cout << table.to_string() << "\n";
  std::cout << "The ratio grows with array size: the baseline is "
               "O(n_v); the proposed N stays within a small factor of "
               "2*sqrt(n_v) but above it (see bench_table1).\n";
  return 0;
}

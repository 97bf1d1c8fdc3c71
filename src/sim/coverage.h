// Fault-coverage analysis of a test set.
//
// The generator's repair loop and the property tests both need the same
// question answered: which faults from a given universe does a vector set
// detect? Detection is behavioral (simulated), not structural, so coverage
// here accounts for path interference, fluidic seas and masking exactly as
// a real chip would exhibit them.
//
// Every run is one fault-dropping step, BatchSimulator::undetected, the
// same step the campaigns use: each run builds one ActivationIndex of its
// vectors, every vector floods only the scenarios it could detect that are
// still undetected, and undetected results come back in universe (or
// enumeration) order.
#ifndef FPVA_SIM_COVERAGE_H
#define FPVA_SIM_COVERAGE_H

#include <span>
#include <vector>

#include "sim/simulator.h"

namespace fpva::sim {

/// All single stuck-at faults of the array (sa0 and sa1 per valve).
std::vector<Fault> single_stuck_fault_universe(const grid::ValveArray& array);

/// All control-leak faults under the nearest-neighbor routing model.
std::vector<Fault> control_leak_universe(const grid::ValveArray& array);

/// Result of a coverage run.
struct CoverageReport {
  int total_faults = 0;
  int detected_faults = 0;
  std::vector<Fault> undetected;  ///< faults no vector catches

  double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected_faults) / total_faults;
  }
  bool complete() const { return detected_faults == total_faults; }
};

/// Single-fault coverage of `vectors` over `universe`; `undetected` keeps
/// universe order.
CoverageReport single_fault_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe);

/// Exhaustive fault-set coverage: every size-`set_size` subset of
/// `universe` whose faults occupy pairwise-disjoint valves (a control leak
/// occupies both of its partners) is injected as one scenario, dropped in
/// bounded chunks of the depth-first enumeration; `undetected` keeps the
/// first `max_undetected_kept` undetected sets of that order. This is the
/// enumeration counterpart of the randomized campaign draw and the
/// brute-force oracle behind the masking cross-check tests. Combinatorial
/// in |universe| — intended for small grids.
struct SetCoverageReport {
  int set_size = 0;
  long total_sets = 0;
  long detected_sets = 0;
  std::vector<std::vector<Fault>> undetected;

  double coverage() const {
    return total_sets == 0
               ? 1.0
               : static_cast<double>(detected_sets) /
                     static_cast<double>(total_sets);
  }
  bool complete() const { return detected_sets == total_sets; }
};

SetCoverageReport fault_set_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe,
                                     int set_size,
                                     std::size_t max_undetected_kept = 100);

}  // namespace fpva::sim

#endif  // FPVA_SIM_COVERAGE_H

// Test-set generator: the end-to-end flow of Section III.
//
// Orchestrates the three vector families -- flow paths (stuck-at-0),
// cut-sets (stuck-at-1) and control-leakage vectors -- and closes the loop
// behaviorally: every claimed coverage is re-checked against the pressure
// simulator, and a repair pass emits targeted extra vectors for anything a
// first-round vector set misses.
#ifndef FPVA_CORE_GENERATOR_H
#define FPVA_CORE_GENERATOR_H

#include <vector>

#include "core/cut_planner.h"
#include "core/flow_path.h"
#include "core/path_planner.h"
#include "grid/array.h"
#include "sim/control_topology.h"
#include "sim/coverage.h"
#include "sim/simulator.h"

namespace fpva::core {

struct GeneratorOptions {
  /// Which engine produces the flow paths.
  enum class PathEngine {
    kConstructive,  ///< greedy snake (scalable; default)
    /// The paper's ILP model via ilp::solve, run with the default
    /// ilp::Options. Arrays above 60 valves fall back to the constructive
    /// engine (the paper's own motivation for the hierarchy).
    kIlp,
  };
  PathEngine path_engine = PathEngine::kConstructive;

  /// Partition the array into horizontal bands of `block_size` cell rows
  /// and cover band by band (the scalable hierarchical mode of III-B-4).
  bool hierarchical = false;
  int block_size = 5;
};

/// Wall-clock cost and output size of one generation stage (a Table-I
/// column pair, e.g. n_p / t_p).
struct StageStats {
  int vectors = 0;
  double seconds = 0.0;
};

struct GeneratedTestSet {
  std::vector<sim::TestVector> vectors;  ///< all families, emission order
  std::vector<FlowPath> paths;
  std::vector<CutSet> cuts;

  StageStats path_stage;  ///< n_p / t_p
  StageStats cut_stage;   ///< n_c / t_c
  StageStats leak_stage;  ///< n_l / t_l

  /// Faults provably untestable by pressure testing (an always-open channel
  /// bypasses the valve); excluded from the coverage targets below.
  std::vector<grid::ValveId> untestable;

  /// Control-leak pairs no vector can distinguish with this port hookup:
  /// neither pair member admits a simple source->sink path avoiding the
  /// other (typical example: the two valves of a port-less corner cell).
  /// Adding a pressure meter near such a pair makes it testable.
  std::vector<sim::Fault> untestable_leaks;

  /// Testable faults that remained undetected after repair (empty on all
  /// preset layouts).
  std::vector<sim::Fault> undetected;

  /// False when the ILP path engine produced the cover without an
  /// optimality certificate: the solver returned a feasible-but-unproven
  /// incumbent (ilp::ResultStatus::kFeasible after a limit), or a smaller
  /// budget was abandoned on limits instead of being proven infeasible.
  /// The vectors are still valid test vectors; only the "n_p is minimal"
  /// claim of the Table-I accounting is void. Always true when the
  /// constructive engine produced the paths.
  bool ilp_certified = true;

  int total_vectors() const { return static_cast<int>(vectors.size()); }
  double total_seconds() const {
    return path_stage.seconds + cut_stage.seconds + leak_stage.seconds;
  }
};

/// Valves whose two sides are connected through always-open channels alone;
/// no pressure test can distinguish such a valve's state, so both its
/// stuck-at faults are untestable by design.
std::vector<grid::ValveId> channel_bypassed_valves(
    const grid::ValveArray& array);

/// Runs the full generation flow on `array`.
GeneratedTestSet generate_test_set(const grid::ValveArray& array,
                                   const GeneratorOptions& options = {});

}  // namespace fpva::core

#endif  // FPVA_CORE_GENERATOR_H

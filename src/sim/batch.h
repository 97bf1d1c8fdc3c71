// Bit-parallel batched fault simulation.
//
// The Section IV campaigns evaluate tens of thousands of fault scenarios
// against the same vector set; doing that one BFS per scenario wastes the
// word width of the machine. BatchSimulator packs up to 64 scenarios into
// the bit lanes of a uint64_t -- lane L of open_lanes_[v] says "valve v is
// open in scenario L" -- and propagates pressure for all lanes at once with
// word-wide AND/OR over the flow adjacency, the classic bit-parallel
// pattern-simulation trick of electronic test.
//
// Lanes carry whole fault *sets*: any mix of stuck-at, control-leak and
// degraded-flow faults per scenario. Degraded-flow scenarios flood two lane
// words per cell (full pressure and weak = one-degraded-crossing pressure);
// scenarios without them take the original single-word path unchanged.
//
// Campaign shards, coverage runs and the test generator all ask the same
// question -- which of these scenarios does this vector set detect? -- and
// all answer it through one fault-dropping step, drop_detected().
//
// Semantics are bit-for-bit those of the scalar Simulator (which remains
// the differential-testing oracle); see tests/batch_sim_test.cpp and
// tests/sim_fuzz_test.cpp.
#ifndef FPVA_SIM_BATCH_H
#define FPVA_SIM_BATCH_H

#include <cstdint>
#include <span>
#include <vector>

#include "grid/array.h"
#include "sim/fault.h"
#include "sim/flow_topology.h"
#include "sim/test_vector.h"

namespace fpva::sim {

/// One injected fault combination (one campaign trial, one coverage probe).
using FaultScenario = std::vector<Fault>;

/// Simulates up to kLanes fault scenarios per pass over the grid.
///
/// Not thread-safe: scratch buffers are reused across calls. Create one
/// BatchSimulator per thread.
class BatchSimulator {
 public:
  /// Scenarios per batch: the bit width of the lane word.
  static constexpr int kLanes = 64;

  /// One bit per scenario lane; bit L refers to scenarios[L].
  using LaneMask = std::uint64_t;

  explicit BatchSimulator(const grid::ValveArray& array);

  const grid::ValveArray& array() const { return *array_; }

  /// Number of sink ports (arity of readings()).
  int sink_count() const {
    return static_cast<int>(topology_.sink_cells().size());
  }

  /// Mask with one bit set per active scenario; count must be <= kLanes.
  static LaneMask active_mask(std::size_t count);

  /// Pressure reading at each sink port for every scenario at once:
  /// bit L of readings()[s] = sink s pressurized in scenarios[L].
  /// Lanes beyond scenarios.size() simulate the fault-free chip.
  std::vector<LaneMask> readings(const ValveStates& states,
                                 std::span<const FaultScenario> scenarios)
      const;

  /// Lanes whose readings under `vector.states` differ from
  /// `vector.expected`, i.e. the scenarios this vector detects.
  LaneMask detect_lanes(const TestVector& vector,
                        std::span<const FaultScenario> scenarios) const;

  /// The fault-dropping step every "which of these scenarios does the
  /// vector set detect?" loop is built on: campaign shards, coverage runs
  /// and the generator all apply their vectors outermost and call this once
  /// per vector. `alive` holds indices into `pool` of still-undetected
  /// scenarios; every one `vector` detects is removed and the rest keep
  /// their order. An exact monotonicity screen skips scenarios that cannot
  /// change this vector's readings, and the survivors are packed into full
  /// kLanes-wide words, so later vectors flood only a few words.
  ///
  /// The Fault overload treats each fault as a one-fault scenario, without
  /// materializing a FaultScenario per fault.
  void drop_detected(const TestVector& vector,
                     std::span<const FaultScenario> pool,
                     std::vector<int>& alive) const;
  void drop_detected(const TestVector& vector, std::span<const Fault> pool,
                     std::vector<int>& alive) const;

 private:
  /// Resolves commanded `states` + per-lane faults into open_lanes_ and
  /// degraded_lanes_; lane L carries pool[lanes[L]] (a FaultScenario, or a
  /// single Fault). Sets any_degraded_.
  template <class Scenario>
  void resolve_open_lanes(const ValveStates& states,
                          std::span<const Scenario> pool,
                          std::span<const int> lanes) const;

  /// Lanes whose readings under `vector.states` differ from
  /// `vector.expected`; lane L simulates pool[lanes[L]].
  template <class Scenario>
  LaneMask detect_gathered(const TestVector& vector,
                           std::span<const Scenario> pool,
                           std::span<const int> lanes) const;

  template <class Scenario>
  void drop_gathered(const TestVector& vector, std::span<const Scenario> pool,
                     std::vector<int>& alive) const;

  /// Word-wide flood fill: pressurized_ = fixed point of propagating
  /// source lanes through open_lanes_-gated links. Dispatches to
  /// flood_degraded() when any lane carries a live degraded-flow fault.
  void flood() const;

  /// Two-word flood: full_flow_ tracks lanes reaching a cell with no
  /// degraded crossing, pressurized_ lanes reaching it with at most one
  /// (the meter-visible set). Crossing an open degraded valve moves full
  /// lanes into pressurized_-only; weak lanes die at a second crossing.
  void flood_degraded() const;

  const grid::ValveArray* array_;
  FlowTopology topology_;
  mutable std::vector<LaneMask> open_lanes_;      ///< per valve; scratch
  mutable std::vector<LaneMask> degraded_lanes_;  ///< per valve; scratch
  mutable bool degraded_dirty_ = false;  ///< degraded_lanes_ needs clearing
  mutable bool any_degraded_ = false;  ///< some open lane is degraded
  mutable std::vector<LaneMask> pressurized_;  ///< per cell; scratch
  mutable std::vector<LaneMask> full_flow_;    ///< per cell; scratch
  mutable std::vector<int> frontier_;          ///< scratch worklist
  mutable std::vector<char> queued_;           ///< cell in frontier_? scratch
};

}  // namespace fpva::sim

#endif  // FPVA_SIM_BATCH_H

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
// all answer it through one fault-dropping step over the whole vector set,
// undetected(). An ActivationIndex, built once per vector set, holds for
// every valve the vectors that command it open; from it a scenario's next
// activating vector (the next one that could change its readings at all)
// is a few word ORs away, so each scenario waits in the bucket of that
// vector and every vector floods only its own bucket. This is fault
// dropping with per-fault activation lists, as in electronic-test fault
// simulators such as PROOFS (Niermann, Cheng & Patel, IEEE TCAD 1992).
//
// Semantics are bit-for-bit those of the scalar Simulator (which remains
// the differential-testing oracle); see tests/batch_sim_test.cpp and
// tests/sim_fuzz_test.cpp.
#ifndef FPVA_SIM_BATCH_H
#define FPVA_SIM_BATCH_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/stop.h"
#include "grid/array.h"
#include "sim/fault.h"
#include "sim/flow_topology.h"
#include "sim/test_vector.h"

namespace fpva::sim {

/// One injected fault combination (one campaign trial, one coverage probe).
using FaultScenario = std::vector<Fault>;

/// The vectors of one vector set that could change a fault's readings, as
/// bit rows over the vector indices: per valve the vectors that command it
/// open, plus the vectors with some 1-expected sink (has_one) and with some
/// 0-expected sink (has_zero). Faults that only close valves shrink the
/// pressurized region, so they can only flip 1-expected sinks; faults that
/// only open valves can only flip 0-expected sinks; a scenario that changes
/// no effective state reads exactly `expected`. So a scenario's activating
/// vectors are the OR over its faults of
///   stuck-at-0, degraded-flow:  open[valve] & has_one
///   stuck-at-1:                 ~open[valve] & has_zero
///   control leak:               (open[valve] ^ open[partner]) & has_one
/// and every other vector provably leaves it undetected: an exact screen,
/// not a heuristic. (A degraded valve commanded closed matters only if a
/// stuck-at-1 in the same scenario opens it, and then that fault's own row
/// activates the vector.)
///
/// Holds a view of `vectors`, which must outlive the index. Memory is
/// valve_count x ceil(N / 64) words for N vectors.
class ActivationIndex {
 public:
  ActivationIndex(const grid::ValveArray& array,
                  std::span<const TestVector> vectors);

  std::span<const TestVector> vectors() const { return vectors_; }
  int size() const { return static_cast<int>(vectors_.size()); }
  int valve_count() const { return valve_count_; }

  /// Lowest vector index >= `from` that could change the readings of a
  /// scenario injecting `faults`, or size() when no such vector is left.
  int next_activating(std::span<const Fault> faults, int from) const;

 private:
  using Word = std::uint64_t;

  /// Word `word` of one fault's activating-vector row.
  Word activating(const Fault& fault, int word) const;

  std::span<const TestVector> vectors_;
  int valve_count_ = 0;
  int words_ = 0;               ///< ceil(size() / 64)
  std::vector<Word> open_;      ///< valve-major rows, words_ per valve
  std::vector<Word> has_one_;   ///< vectors with a 1-expected sink
  std::vector<Word> has_zero_;  ///< vectors with a 0-expected sink
};

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
  /// vector set detect?" question is answered by: campaign shards, coverage
  /// runs and, through coverage, the generator. Returns the indices into
  /// `pool` of the scenarios no vector of `vectors` detects, in pool order.
  ///
  /// Each scenario is queued on its next activating vector. Vector j
  /// floods only the scenarios queued on it, packed into full kLanes-wide
  /// words; a scenario that survives is re-queued on its next activating
  /// vector after j, and one with none left is undetected. So every flooded
  /// (scenario, vector) pair is one the vector could detect, and no other
  /// pair is looked at.
  ///
  /// `stop` is polled once per vector; a tripped token abandons the step
  /// and returns std::nullopt. The Fault overload treats each fault as a
  /// one-fault scenario, without materializing a FaultScenario per fault.
  std::optional<std::vector<int>> undetected(
      const ActivationIndex& vectors, std::span<const FaultScenario> pool,
      const common::StopToken& stop = {}) const;
  std::optional<std::vector<int>> undetected(
      const ActivationIndex& vectors, std::span<const Fault> pool,
      const common::StopToken& stop = {}) const;

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
  std::optional<std::vector<int>> undetected_in(
      const ActivationIndex& vectors, std::span<const Scenario> pool,
      const common::StopToken& stop) const;

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

#include "sim/batch.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/check.h"

namespace fpva::sim {

namespace {

constexpr BatchSimulator::LaneMask kAllLanes = ~0ULL;

constexpr std::array<int, BatchSimulator::kLanes> identity_lanes() {
  std::array<int, BatchSimulator::kLanes> lanes{};
  for (int i = 0; i < BatchSimulator::kLanes; ++i) lanes[i] = i;
  return lanes;
}
constexpr auto kIdentityLanes = identity_lanes();

/// The faults one lane injects.
std::span<const Fault> faults_of(const FaultScenario& scenario) {
  return scenario;
}
std::span<const Fault> faults_of(const Fault& fault) { return {&fault, 1}; }

/// True when `faults` could possibly change the readings of `vector`: an
/// exact monotonicity screen, not a heuristic. Faults that only close
/// valves shrink the pressurized region, so they can only flip sinks whose
/// expected reading is 1; faults that only open valves can only flip
/// 0-expected sinks; a scenario changing no effective state at all reads
/// exactly `expected`. Everything the screen rejects is provably
/// undetected, so skipping its flood keeps results bit-identical.
bool possibly_detectable(const TestVector& vector, bool has_one_expected,
                         bool has_zero_expected,
                         std::span<const Fault> faults) {
  bool closes = false;
  bool opens = false;
  for (const Fault& fault : faults) {
    const auto valve = static_cast<std::size_t>(fault.valve);
    common::check(valve < vector.states.size() &&
                      (fault.type != FaultType::kControlLeak ||
                       static_cast<std::size_t>(fault.partner) <
                           vector.states.size()),
                  "BatchSimulator: fault on invalid valve");
    switch (fault.type) {
      case FaultType::kStuckAt0:
        closes = closes || vector.states[valve];
        break;
      case FaultType::kStuckAt1:
        opens = opens || !vector.states[valve];
        break;
      case FaultType::kControlLeak: {
        const auto partner = static_cast<std::size_t>(fault.partner);
        // The leak fires when either partner is actuated; it changes an
        // effective state only if the other partner was commanded open.
        if ((!vector.states[valve] || !vector.states[partner]) &&
            (vector.states[valve] || vector.states[partner])) {
          closes = true;
        }
        break;
      }
      case FaultType::kDegradedFlow:
        // Weakening flow through a commanded-open valve only shrinks the
        // meter-visible region (monotone decrease). On a commanded-closed
        // valve it matters only if a stuck-at-1 in the same scenario opens
        // the valve, and then the readings stay a superset of expected --
        // covered by that fault's own `opens` contribution.
        closes = closes || vector.states[valve];
        break;
    }
  }
  return (closes && has_one_expected) || (opens && has_zero_expected);
}

}  // namespace

BatchSimulator::BatchSimulator(const grid::ValveArray& array)
    : array_(&array), topology_(array) {
  open_lanes_.assign(static_cast<std::size_t>(array.valve_count()), 0);
  degraded_lanes_.assign(static_cast<std::size_t>(array.valve_count()), 0);
  pressurized_.assign(static_cast<std::size_t>(topology_.cell_count()), 0);
  full_flow_.assign(static_cast<std::size_t>(topology_.cell_count()), 0);
  frontier_.reserve(static_cast<std::size_t>(topology_.cell_count()));
  queued_.assign(static_cast<std::size_t>(topology_.cell_count()), 0);
}

BatchSimulator::LaneMask BatchSimulator::active_mask(std::size_t count) {
  common::check(count <= kLanes, "BatchSimulator: too many scenarios");
  return count == kLanes ? kAllLanes : (LaneMask{1} << count) - 1;
}

template <class Scenario>
void BatchSimulator::resolve_open_lanes(const ValveStates& states,
                                        std::span<const Scenario> pool,
                                        std::span<const int> lanes) const {
  common::check(static_cast<int>(states.size()) == array_->valve_count(),
                "BatchSimulator: vector arity != valve count");
  common::check(lanes.size() <= kLanes,
                "BatchSimulator: too many scenarios");
  // Broadcast the commanded state into every lane. degraded_lanes_ is
  // cleared lazily so scenarios without degraded faults (the common case)
  // never touch it.
  if (degraded_dirty_) {
    std::fill(degraded_lanes_.begin(), degraded_lanes_.end(), 0);
    degraded_dirty_ = false;
  }
  for (int v = 0; v < array_->valve_count(); ++v) {
    open_lanes_[static_cast<std::size_t>(v)] =
        states[static_cast<std::size_t>(v)] ? kAllLanes : 0;
  }
  const auto valid = [&](grid::ValveId id) {
    return id >= 0 && id < array_->valve_count();
  };
  // Per-lane fault resolution in the scalar Simulator's order: control
  // leaks, then stuck-at-0 forces closed, then stuck-at-1 forces open.
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const LaneMask bit = LaneMask{1} << lane;
    const std::span<const Fault> scenario =
        faults_of(pool[static_cast<std::size_t>(lanes[lane])]);
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kControlLeak) continue;
      common::check(valid(fault.valve) && valid(fault.partner),
                    "BatchSimulator: control-leak fault on invalid valves");
      const bool either_actuated =
          !states[static_cast<std::size_t>(fault.valve)] ||
          !states[static_cast<std::size_t>(fault.partner)];
      if (either_actuated) {
        open_lanes_[static_cast<std::size_t>(fault.valve)] &= ~bit;
        open_lanes_[static_cast<std::size_t>(fault.partner)] &= ~bit;
      }
    }
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kStuckAt0) continue;
      common::check(valid(fault.valve), "BatchSimulator: sa0 on invalid valve");
      open_lanes_[static_cast<std::size_t>(fault.valve)] &= ~bit;
    }
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kStuckAt1) continue;
      common::check(valid(fault.valve), "BatchSimulator: sa1 on invalid valve");
      open_lanes_[static_cast<std::size_t>(fault.valve)] |= bit;
    }
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kDegradedFlow) continue;
      common::check(valid(fault.valve),
                    "BatchSimulator: degraded-flow fault on invalid valve");
      degraded_lanes_[static_cast<std::size_t>(fault.valve)] |= bit;
      degraded_dirty_ = true;
    }
  }
  // A degraded valve weakens flow only where it is effectively open; if no
  // lane has one, flood() takes the original single-word path.
  any_degraded_ = false;
  if (degraded_dirty_) {
    for (int v = 0; v < array_->valve_count(); ++v) {
      if (degraded_lanes_[static_cast<std::size_t>(v)] &
          open_lanes_[static_cast<std::size_t>(v)]) {
        any_degraded_ = true;
        break;
      }
    }
  }
}

void BatchSimulator::flood() const {
  if (any_degraded_) {
    flood_degraded();
    return;
  }
  std::fill(pressurized_.begin(), pressurized_.end(), 0);
  frontier_.clear();
  for (const int cell : topology_.source_cells()) {
    if (!queued_[static_cast<std::size_t>(cell)]) {
      queued_[static_cast<std::size_t>(cell)] = 1;
      frontier_.push_back(cell);
    }
    pressurized_[static_cast<std::size_t>(cell)] = kAllLanes;
  }
  // Fixed-point worklist: unlike the scalar BFS a cell can gain lanes after
  // it was first expanded, so popped cells may be re-queued; each pass
  // widens pressurized_ monotonically, hence termination.
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const int cell = frontier_[head];
    queued_[static_cast<std::size_t>(cell)] = 0;
    const LaneMask word = pressurized_[static_cast<std::size_t>(cell)];
    for (const FlowLink& link : topology_.links_of(cell)) {
      const LaneMask gate = link.valve == grid::kInvalidValve
                                ? kAllLanes
                                : open_lanes_[static_cast<std::size_t>(
                                      link.valve)];
      const LaneMask delta =
          word & gate & ~pressurized_[static_cast<std::size_t>(link.to)];
      if (delta) {
        pressurized_[static_cast<std::size_t>(link.to)] |= delta;
        if (!queued_[static_cast<std::size_t>(link.to)]) {
          queued_[static_cast<std::size_t>(link.to)] = 1;
          frontier_.push_back(link.to);
        }
      }
    }
  }
}

void BatchSimulator::flood_degraded() const {
  std::fill(pressurized_.begin(), pressurized_.end(), 0);
  std::fill(full_flow_.begin(), full_flow_.end(), 0);
  frontier_.clear();
  for (const int cell : topology_.source_cells()) {
    if (!queued_[static_cast<std::size_t>(cell)]) {
      queued_[static_cast<std::size_t>(cell)] = 1;
      frontier_.push_back(cell);
    }
    pressurized_[static_cast<std::size_t>(cell)] = kAllLanes;
    full_flow_[static_cast<std::size_t>(cell)] = kAllLanes;
  }
  // Same fixed-point worklist as flood(), over two monotone words per cell.
  // Invariant: pressurized_ (meter-visible, at most one degraded crossing)
  // is a superset of full_flow_ (no crossing) in every lane.
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const int cell = frontier_[head];
    queued_[static_cast<std::size_t>(cell)] = 0;
    const LaneMask visible = pressurized_[static_cast<std::size_t>(cell)];
    const LaneMask full = full_flow_[static_cast<std::size_t>(cell)];
    for (const FlowLink& link : topology_.links_of(cell)) {
      LaneMask clean = kAllLanes;  // open and undegraded: level preserved
      LaneMask demote = 0;         // open but degraded: full -> weak only
      if (link.valve != grid::kInvalidValve) {
        const LaneMask open =
            open_lanes_[static_cast<std::size_t>(link.valve)];
        const LaneMask degraded =
            degraded_lanes_[static_cast<std::size_t>(link.valve)];
        clean = open & ~degraded;
        demote = open & degraded;
      }
      const LaneMask full_delta =
          (full & clean) & ~full_flow_[static_cast<std::size_t>(link.to)];
      const LaneMask visible_delta =
          ((visible & clean) | (full & demote)) &
          ~pressurized_[static_cast<std::size_t>(link.to)];
      if (full_delta | visible_delta) {
        full_flow_[static_cast<std::size_t>(link.to)] |= full_delta;
        pressurized_[static_cast<std::size_t>(link.to)] |= visible_delta;
        if (!queued_[static_cast<std::size_t>(link.to)]) {
          queued_[static_cast<std::size_t>(link.to)] = 1;
          frontier_.push_back(link.to);
        }
      }
    }
  }
}

std::vector<BatchSimulator::LaneMask> BatchSimulator::readings(
    const ValveStates& states,
    std::span<const FaultScenario> scenarios) const {
  resolve_open_lanes(states, scenarios,
                     std::span<const int>(kIdentityLanes.data(),
                                          scenarios.size()));
  flood();
  const std::vector<int>& sink_cells = topology_.sink_cells();
  std::vector<LaneMask> result(sink_cells.size());
  for (std::size_t s = 0; s < sink_cells.size(); ++s) {
    result[s] = pressurized_[static_cast<std::size_t>(sink_cells[s])];
  }
  return result;
}

template <class Scenario>
BatchSimulator::LaneMask BatchSimulator::detect_gathered(
    const TestVector& vector, std::span<const Scenario> pool,
    std::span<const int> lanes) const {
  common::check(static_cast<int>(vector.expected.size()) == sink_count(),
                "BatchSimulator: vector expected-arity != sink count");
  resolve_open_lanes(vector.states, pool, lanes);
  flood();
  const std::vector<int>& sink_cells = topology_.sink_cells();
  LaneMask mismatch = 0;
  for (std::size_t s = 0; s < sink_cells.size(); ++s) {
    const LaneMask expected = vector.expected[s] ? kAllLanes : 0;
    mismatch |= pressurized_[static_cast<std::size_t>(sink_cells[s])] ^
                expected;
  }
  return mismatch & active_mask(lanes.size());
}

BatchSimulator::LaneMask BatchSimulator::detect_lanes(
    const TestVector& vector,
    std::span<const FaultScenario> scenarios) const {
  return detect_gathered(vector, scenarios,
                         std::span<const int>(kIdentityLanes.data(),
                                              scenarios.size()));
}

template <class Scenario>
void BatchSimulator::drop_gathered(const TestVector& vector,
                                   std::span<const Scenario> pool,
                                   std::vector<int>& alive) const {
  common::check(static_cast<int>(vector.states.size()) ==
                        array_->valve_count() &&
                    static_cast<int>(vector.expected.size()) == sink_count(),
                "BatchSimulator: vector arity != valve or sink count");
  bool has_one = false;
  bool has_zero = false;
  for (const bool expected : vector.expected) {
    (expected ? has_one : has_zero) = true;
  }
  // Screened scenarios are gathered kLanes at a time; position[L] is where
  // lane L's index sits in `alive`, so a detected lane is overwritten with
  // a -1 tombstone and one erase pass keeps the survivors in order.
  std::array<int, kLanes> lanes{};
  std::array<std::size_t, kLanes> position{};
  std::size_t count = 0;
  bool dropped = false;
  const auto flush = [&] {
    LaneMask detected = detect_gathered(
        vector, pool, std::span<const int>(lanes.data(), count));
    dropped = dropped || detected != 0;
    for (; detected != 0; detected &= detected - 1) {
      alive[position[static_cast<std::size_t>(std::countr_zero(detected))]] =
          -1;
    }
    count = 0;
  };
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (!possibly_detectable(
            vector, has_one, has_zero,
            faults_of(pool[static_cast<std::size_t>(alive[i])]))) {
      continue;
    }
    lanes[count] = alive[i];
    position[count] = i;
    if (++count == kLanes) flush();
  }
  if (count > 0) flush();
  if (dropped) std::erase(alive, -1);
}

void BatchSimulator::drop_detected(const TestVector& vector,
                                   std::span<const FaultScenario> pool,
                                   std::vector<int>& alive) const {
  drop_gathered(vector, pool, alive);
}

void BatchSimulator::drop_detected(const TestVector& vector,
                                   std::span<const Fault> pool,
                                   std::vector<int>& alive) const {
  drop_gathered(vector, pool, alive);
}

}  // namespace fpva::sim

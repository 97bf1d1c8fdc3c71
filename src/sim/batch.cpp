#include "sim/batch.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

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

}  // namespace

ActivationIndex::ActivationIndex(const grid::ValveArray& array,
                                 std::span<const TestVector> vectors)
    : vectors_(vectors),
      valve_count_(array.valve_count()),
      words_((size() + 63) / 64),
      open_(static_cast<std::size_t>(valve_count_) *
                static_cast<std::size_t>(words_),
            0),
      has_one_(static_cast<std::size_t>(words_), 0),
      has_zero_(static_cast<std::size_t>(words_), 0) {
  const std::size_t sinks = array.ports_of_kind(grid::PortKind::kSink).size();
  for (int j = 0; j < size(); ++j) {
    const TestVector& vector = vectors_[static_cast<std::size_t>(j)];
    common::check(static_cast<int>(vector.states.size()) == valve_count_ &&
                      vector.expected.size() == sinks,
                  "ActivationIndex: vector arity != valve or sink count");
    const auto word = static_cast<std::size_t>(j / 64);
    const Word bit = Word{1} << (j % 64);
    for (const bool expected : vector.expected) {
      (expected ? has_one_ : has_zero_)[word] |= bit;
    }
    for (std::size_t v = 0; v < vector.states.size(); ++v) {
      if (vector.states[v]) {
        open_[v * static_cast<std::size_t>(words_) + word] |= bit;
      }
    }
  }
}

ActivationIndex::Word ActivationIndex::activating(const Fault& fault,
                                                  int word) const {
  const auto w = static_cast<std::size_t>(word);
  const auto row = [&](grid::ValveId valve) {
    return open_[static_cast<std::size_t>(valve) *
                     static_cast<std::size_t>(words_) +
                 w];
  };
  switch (fault.type) {
    case FaultType::kStuckAt0:
    case FaultType::kDegradedFlow:
      return row(fault.valve) & has_one_[w];
    case FaultType::kStuckAt1:
      return ~row(fault.valve) & has_zero_[w];
    case FaultType::kControlLeak:
      // The leak fires when either partner is actuated; it changes an
      // effective state only if the other partner was commanded open.
      return (row(fault.valve) ^ row(fault.partner)) & has_one_[w];
  }
  return 0;
}

int ActivationIndex::next_activating(std::span<const Fault> faults,
                                     int from) const {
  for (int word = from / 64; word < words_; ++word) {
    Word candidates = 0;
    for (const Fault& fault : faults) candidates |= activating(fault, word);
    if (word == from / 64) candidates &= ~Word{0} << (from % 64);
    if (candidates != 0) return word * 64 + std::countr_zero(candidates);
  }
  return size();
}

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
std::optional<std::vector<int>> BatchSimulator::undetected_in(
    const ActivationIndex& vectors, std::span<const Scenario> pool,
    const common::StopToken& stop) const {
  common::check(vectors.valve_count() == array_->valve_count(),
                "BatchSimulator: activation index of another array");
  // Intrusive per-vector buckets: head[j] is the first pool index queued on
  // vector j, link[i] the next index in i's bucket.
  const int n = vectors.size();
  std::vector<int> head(static_cast<std::size_t>(n), -1);
  std::vector<int> link(pool.size(), -1);
  std::vector<int> survivors;
  std::size_t queued = 0;
  const auto enqueue = [&](int index, int from) {
    const int next = vectors.next_activating(
        faults_of(pool[static_cast<std::size_t>(index)]), from);
    if (next == n) {
      survivors.push_back(index);
      return;
    }
    int& bucket = head[static_cast<std::size_t>(next)];
    link[static_cast<std::size_t>(index)] = bucket;
    bucket = index;
    ++queued;
  };
  const auto valid = [&](grid::ValveId id) {
    return id >= 0 && id < array_->valve_count();
  };
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (const Fault& fault : faults_of(pool[i])) {
      common::check(valid(fault.valve) &&
                        (fault.type != FaultType::kControlLeak ||
                         valid(fault.partner)),
                    "BatchSimulator: fault on invalid valve");
    }
    enqueue(static_cast<int>(i), 0);
  }

  std::array<int, kLanes> lanes{};
  for (int j = 0; j < n && queued > 0; ++j) {
    if (stop.stop_requested()) return std::nullopt;
    const TestVector& vector = vectors.vectors()[static_cast<std::size_t>(j)];
    std::size_t count = 0;
    const auto flush = [&] {
      const LaneMask detected = detect_gathered(
          vector, pool, std::span<const int>(lanes.data(), count));
      for (std::size_t lane = 0; lane < count; ++lane) {
        if (((detected >> lane) & 1) == 0) enqueue(lanes[lane], j + 1);
      }
      count = 0;
    };
    // Survivors are re-queued on later buckets only, but re-queueing
    // rewrites link[], so the walk reads each successor before a flush.
    for (int index = std::exchange(head[static_cast<std::size_t>(j)], -1);
         index != -1;) {
      const int next = link[static_cast<std::size_t>(index)];
      --queued;
      lanes[count] = index;
      if (++count == kLanes) flush();
      index = next;
    }
    if (count > 0) flush();
  }
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

std::optional<std::vector<int>> BatchSimulator::undetected(
    const ActivationIndex& vectors, std::span<const FaultScenario> pool,
    const common::StopToken& stop) const {
  return undetected_in(vectors, pool, stop);
}

std::optional<std::vector<int>> BatchSimulator::undetected(
    const ActivationIndex& vectors, std::span<const Fault> pool,
    const common::StopToken& stop) const {
  return undetected_in(vectors, pool, stop);
}

}  // namespace fpva::sim

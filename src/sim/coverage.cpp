#include "sim/coverage.h"

#include <functional>
#include <utility>

#include "common/check.h"
#include "sim/batch.h"
#include "sim/control_topology.h"

namespace fpva::sim {

std::vector<Fault> single_stuck_fault_universe(
    const grid::ValveArray& array) {
  std::vector<Fault> universe;
  universe.reserve(static_cast<std::size_t>(array.valve_count()) * 2);
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    universe.push_back(stuck_at_0(v));
    universe.push_back(stuck_at_1(v));
  }
  return universe;
}

std::vector<Fault> control_leak_universe(const grid::ValveArray& array) {
  std::vector<Fault> universe;
  for (const LeakPair& pair : control_leak_pairs(array)) {
    universe.push_back(control_leak(pair.first, pair.second));
  }
  return universe;
}

namespace {

/// Scenarios per enumeration chunk of the multi-fault coverage runs: the
/// pool is dropped against every vector, then its survivors are reported
/// and the next chunk enumerated, so memory stays bounded however large
/// the enumeration grows.
constexpr std::size_t kChunkScenarios = 4096;

}  // namespace

CoverageReport single_fault_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe) {
  CoverageReport report;
  report.total_faults = static_cast<int>(universe.size());
  const BatchSimulator batch(simulator.array());
  const std::vector<int> alive =
      *batch.undetected(ActivationIndex(simulator.array(), vectors), universe);
  report.detected_faults = report.total_faults - static_cast<int>(alive.size());
  report.undetected.reserve(alive.size());
  for (const int index : alive) {
    report.undetected.push_back(universe[static_cast<std::size_t>(index)]);
  }
  return report;
}

SetCoverageReport fault_set_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe,
                                     int set_size,
                                     std::size_t max_undetected_kept) {
  common::check(set_size >= 1, "fault_set_coverage: set_size must be >= 1");
  SetCoverageReport report;
  report.set_size = set_size;
  const grid::ValveArray& array = simulator.array();
  const BatchSimulator batch(array);
  const ActivationIndex activation(array, vectors);

  std::vector<FaultScenario> pool;
  const auto flush = [&] {
    const std::vector<int> alive =
        *batch.undetected(activation, std::span<const FaultScenario>(pool));
    report.detected_sets += static_cast<long>(pool.size() - alive.size());
    for (const int index : alive) {
      if (report.undetected.size() >= max_undetected_kept) break;
      report.undetected.push_back(
          std::move(pool[static_cast<std::size_t>(index)]));
    }
    pool.clear();
  };

  // Depth-first subset enumeration in universe order; `used` rejects
  // subsets whose valve footprints overlap (the same physical-consistency
  // rule as draw_fault_set), so enumeration order — and with it every
  // undetected-sample prefix — is deterministic.
  std::vector<char> used(static_cast<std::size_t>(array.valve_count()), 0);
  FaultScenario current;
  current.reserve(static_cast<std::size_t>(set_size));
  const std::function<void(std::size_t, int)> extend =
      [&](std::size_t start, int remaining) {
        if (remaining == 0) {
          ++report.total_sets;
          pool.push_back(current);
          if (pool.size() == kChunkScenarios) flush();
          return;
        }
        for (std::size_t i = start;
             i + static_cast<std::size_t>(remaining) <= universe.size();
             ++i) {
          const Fault& fault = universe[i];
          const bool leak = fault.type == FaultType::kControlLeak;
          if (used[static_cast<std::size_t>(fault.valve)] ||
              (leak && used[static_cast<std::size_t>(fault.partner)])) {
            continue;
          }
          used[static_cast<std::size_t>(fault.valve)] = 1;
          if (leak) used[static_cast<std::size_t>(fault.partner)] = 1;
          current.push_back(fault);
          extend(i + 1, remaining - 1);
          current.pop_back();
          used[static_cast<std::size_t>(fault.valve)] = 0;
          if (leak) used[static_cast<std::size_t>(fault.partner)] = 0;
        }
      };
  extend(0, set_size);
  flush();
  return report;
}

}  // namespace fpva::sim

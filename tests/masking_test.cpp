#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/generator.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "sim/coverage.h"

namespace fpva::core {
namespace {

/// The audited fault universe: both stuck faults per testable valve
/// (structurally bypassed valves excluded).
std::vector<sim::Fault> audited_stuck_universe(const grid::ValveArray& array) {
  std::vector<bool> untestable(
      static_cast<std::size_t>(array.valve_count()), false);
  for (const grid::ValveId v : channel_bypassed_valves(array)) {
    untestable[static_cast<std::size_t>(v)] = true;
  }
  std::vector<sim::Fault> universe;
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    if (untestable[static_cast<std::size_t>(v)]) continue;
    universe.push_back(sim::stuck_at_0(v));
    universe.push_back(sim::stuck_at_1(v));
  }
  return universe;
}

std::string render(const std::vector<std::vector<sim::Fault>>& sets) {
  std::ostringstream out;
  for (const auto& faults : sets) out << sim::to_string(faults) << "\n";
  return out.str();
}

/// Asserts the paper's guarantee on the program `generate_test_set` emits
/// for `array`, with no repair step: every pair of stuck-at faults on
/// distinct testable valves is detected by brute-force pair simulation.
void expect_every_stuck_pair_detected(const grid::ValveArray& array) {
  const sim::Simulator simulator(array);
  const auto set = generate_test_set(array);
  const auto universe = audited_stuck_universe(array);
  const auto pairs =
      sim::fault_set_coverage(simulator, set.vectors, universe, 2);
  EXPECT_GT(pairs.total_sets, 0);
  EXPECT_TRUE(pairs.complete())
      << array.valve_count() << " valves; "
      << pairs.total_sets - pairs.detected_sets << " of " << pairs.total_sets
      << " pairs escape, the first:\n"
      << render(pairs.undetected);
}

// The paper's guarantee: any two simultaneous faults are detected. We check
// it exhaustively on small arrays.
TEST(MaskingTest, TwoFaultGuaranteeOnFullArrays) {
  for (const auto& [rows, cols] :
       {std::pair{2, 2}, std::pair{3, 3}, std::pair{3, 4}, std::pair{4, 4},
        std::pair{5, 5}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    expect_every_stuck_pair_detected(grid::full_array(rows, cols));
  }
}

TEST(MaskingTest, TwoFaultGuaranteeOnTable1_5x5) {
  expect_every_stuck_pair_detected(grid::table1_array(5));
}

TEST(MaskingTest, TwoFaultGuaranteeOnObstaclePocketArray) {
  // A constriction (obstacle wall with a single-valve gap) creates the
  // masking geometry of Fig. 5(c)/(d).
  const auto array = grid::LayoutBuilder(6, 6)
                         .obstacle_rect(grid::Cell{2, 0}, grid::Cell{2, 3})
                         .obstacle_rect(grid::Cell{2, 5}, grid::Cell{2, 5})
                         .default_ports()
                         .build();
  EXPECT_TRUE(generate_test_set(array).undetected.empty());
  expect_every_stuck_pair_detected(array);
}

TEST(MaskingCrossCheckTest, SetEnumeratorMatchesScalarPairLoop) {
  // The batched enumerator itself cross-checked against the slowest
  // possible oracle: a scalar any_detects call per disjoint-valve pair.
  const grid::ValveArray arrays[] = {grid::full_array(2, 2),
                                     grid::full_array(3, 3)};
  for (const grid::ValveArray& array : arrays) {
    const sim::Simulator simulator(array);
    auto set = generate_test_set(array);
    const auto universe = audited_stuck_universe(array);
    const auto brute =
        sim::fault_set_coverage(simulator, set.vectors, universe, 2);
    long total = 0;
    long detected = 0;
    std::vector<std::vector<sim::Fault>> undetected;
    for (std::size_t a = 0; a < universe.size(); ++a) {
      for (std::size_t b = a + 1; b < universe.size(); ++b) {
        if (universe[a].valve == universe[b].valve) continue;
        ++total;
        const sim::Fault injected[] = {universe[a], universe[b]};
        if (simulator.any_detects(set.vectors, injected)) {
          ++detected;
        } else {
          undetected.push_back({universe[a], universe[b]});
        }
      }
    }
    EXPECT_EQ(brute.total_sets, total);
    EXPECT_EQ(brute.detected_sets, detected)
        << "scalar says undetected:\n"
        << render(undetected) << "enumerator says undetected:\n"
        << render(brute.undetected);
    EXPECT_EQ(brute.undetected, undetected);
  }
}

TEST(MaskingCrossCheckTest, TripleSetsAreScalarConfirmed) {
  // Beyond the paper's pair guarantee: every triple the enumerator reports
  // as escaping really does escape under the scalar oracle (and detected
  // triples at least exist on a covered 3x3).
  const auto array = grid::full_array(3, 3);
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  const auto universe = audited_stuck_universe(array);
  const auto brute =
      sim::fault_set_coverage(simulator, set.vectors, universe, 3);
  EXPECT_GT(brute.total_sets, 0);
  EXPECT_GT(brute.detected_sets, 0);
  for (const auto& faults : brute.undetected) {
    EXPECT_FALSE(simulator.any_detects(set.vectors, faults))
        << sim::to_string(faults);
  }
}

}  // namespace
}  // namespace fpva::core

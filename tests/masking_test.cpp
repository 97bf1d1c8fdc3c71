#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/generator.h"
#include "core/masking.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "sim/coverage.h"

namespace fpva::core {
namespace {

/// The audit's fault universe: both stuck faults per testable valve
/// (structurally bypassed valves excluded), exactly as
/// audit_and_repair_two_faults builds it.
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

// The paper's guarantee: any two simultaneous faults are detected. We audit
// exhaustively on small arrays.
TEST(MaskingTest, TwoFaultGuaranteeOnFull5x5) {
  const auto array = grid::full_array(5, 5);
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  const auto audit =
      audit_and_repair_two_faults(array, simulator, set.vectors);
  EXPECT_TRUE(audit.after.complete())
      << audit.after.undetected.size() << " fault pairs escape";
  EXPECT_GT(audit.before.total_pairs, 0);
}

TEST(MaskingTest, TwoFaultGuaranteeOnTable1_5x5) {
  const auto array = grid::table1_array(5);
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  const auto audit =
      audit_and_repair_two_faults(array, simulator, set.vectors);
  EXPECT_TRUE(audit.after.complete());
}

TEST(MaskingTest, RepairAddsVectorsWhenSetIsWeak) {
  // Start from a deliberately weak set (the path-stage vectors only, no
  // cuts): stuck-at-1 faults are invisible, so pairs escape and the auditor
  // must add cut vectors.
  const auto array = grid::full_array(4, 4);
  const sim::Simulator simulator(array);
  const auto set = generate_test_set(array);
  std::vector<sim::TestVector> vectors(
      set.vectors.begin(), set.vectors.begin() + set.path_stage.vectors);
  const std::size_t before_count = vectors.size();
  const auto audit = audit_and_repair_two_faults(array, simulator, vectors);
  EXPECT_LT(audit.before.detected_pairs, audit.before.total_pairs);
  EXPECT_GT(audit.added_vectors, 0);
  EXPECT_GT(vectors.size(), before_count);
  EXPECT_GT(audit.after.detected_pairs, audit.before.detected_pairs);
}

TEST(MaskingTest, ObstaclePocketArrayStillAuditable) {
  // A constriction (obstacle wall with a single-valve gap) creates the
  // masking geometry of Fig. 5(c)/(d); the audit must converge anyway.
  const auto array = grid::LayoutBuilder(6, 6)
                         .obstacle_rect(grid::Cell{2, 0}, grid::Cell{2, 3})
                         .obstacle_rect(grid::Cell{2, 5}, grid::Cell{2, 5})
                         .default_ports()
                         .build();
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  EXPECT_TRUE(set.undetected.empty());
  const auto audit =
      audit_and_repair_two_faults(array, simulator, set.vectors);
  EXPECT_TRUE(audit.after.complete())
      << audit.after.undetected.size() << " pairs escape";
}

TEST(MaskingCrossCheckTest, AuditClaimsMatchBruteForceSetEnumeration) {
  // The audit's pair report and the independent fault-set enumerator must
  // agree exactly: same pair count, same detected count, and a complete()
  // claim must survive brute-force multi-fault simulation. Any divergence
  // fails with the escaping fault sets printed.
  const grid::ValveArray arrays[] = {
      grid::full_array(2, 2), grid::full_array(3, 3), grid::full_array(3, 4),
      grid::full_array(4, 4)};
  for (const grid::ValveArray& array : arrays) {
    const sim::Simulator simulator(array);
    auto set = generate_test_set(array);
    const auto audit =
        audit_and_repair_two_faults(array, simulator, set.vectors);
    const auto universe = audited_stuck_universe(array);
    const auto brute =
        sim::fault_set_coverage(simulator, set.vectors, universe, 2);
    EXPECT_EQ(brute.total_sets, audit.after.total_pairs)
        << array.valve_count() << " valves";
    EXPECT_EQ(brute.detected_sets, audit.after.detected_pairs)
        << array.valve_count() << " valves";
    EXPECT_EQ(brute.complete(), audit.after.complete())
        << array.valve_count() << " valves; escaping sets:\n"
        << render(brute.undetected);
  }
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

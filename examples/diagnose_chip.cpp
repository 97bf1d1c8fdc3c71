// Fault diagnosis: a failing chip comes back from test -- which defect
// explains the readings?
//
//   ./build/diagnose_chip
//
// Injects a hidden fault into a simulated 10x10 chip, applies the whole
// generated test program, and matches the observed responses against the
// single-fault universe. Then re-runs the same localization adaptively:
// instead of applying every vector, pick each next test by expected
// information gain over the surviving hypotheses.
#include <iostream>

#include "common/rng.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/diagnosis/adaptive.h"

int main() {
  using namespace fpva;
  const grid::ValveArray array = grid::table1_array(10);
  const core::GeneratedTestSet set = core::generate_test_set(array);

  // The "defective chip": a hidden fault we pretend not to know.
  common::Rng rng(20170331);
  const auto hidden_valve = static_cast<grid::ValveId>(
      rng.next_below(static_cast<std::uint64_t>(array.valve_count())));
  const sim::Fault hidden = rng.next_bool() ? sim::stuck_at_1(hidden_valve)
                                            : sim::stuck_at_0(hidden_valve);
  std::cout << "hidden defect (oracle only): " << to_string(hidden)
            << " at site "
            << grid::to_string(
                   array.valves()[static_cast<std::size_t>(hidden_valve)])
            << "\n\n";

  // Diagnose against all single stuck faults and control leaks.
  auto universe = sim::single_stuck_fault_universe(array);
  const auto leaks = sim::control_leak_universe(array);
  universe.insert(universe.end(), leaks.begin(), leaks.end());
  std::vector<sim::FaultScenario> hypotheses;
  hypotheses.reserve(universe.size());
  for (const sim::Fault& fault : universe) hypotheses.push_back({fault});

  // Apply the whole program in input order: the survivors are the faults
  // whose full response signature matches the chip's.
  sim::diagnosis::Options full_program;
  full_program.policy = sim::diagnosis::Policy::kStaticOrder;
  sim::diagnosis::AdaptiveDiagnoser matcher(array, set.vectors, hypotheses,
                                            full_program);
  const sim::diagnosis::SessionResult verdict = matcher.run({hidden});
  if (verdict.fault_free_consistent) {
    std::cout << "chip looks healthy?!\n";
    return 1;
  }
  std::cout << verdict.surviving.size()
            << " candidate defect(s) match the observed signature:\n";
  for (const int h : verdict.surviving) {
    std::cout << "  " << to_string(universe[static_cast<std::size_t>(h)])
              << "\n";
  }

  // How sharp is this test program as a diagnostic instrument?
  const sim::diagnosis::DiagnosabilityReport report =
      matcher.diagnosability();
  std::cout << "\ndiagnosability of the " << set.total_vectors()
            << "-vector program: " << report.equivalence_classes
            << " signature classes over " << report.detected_hypotheses
            << " detected faults ("
            << static_cast<int>(100.0 * report.resolution())
            << "% of fault pairs distinguished)\n";

  // Adaptive rerun: the signature match above applied all vectors; a
  // tester choosing each next vector by expected information gain reaches
  // the same surviving set after far fewer applications.
  sim::diagnosis::AdaptiveDiagnoser diagnoser(array, set.vectors,
                                              std::move(hypotheses));
  const sim::diagnosis::SessionResult session = diagnoser.run({hidden});
  std::cout << "\nadaptive session: " << session.tests_applied()
            << " of " << set.total_vectors() << " vectors applied, "
            << session.surviving.size() << " hypothesis(es) survive"
            << (session.isolated() ? " (isolated)" : "") << ":\n";
  for (const int h : session.surviving) {
    const sim::FaultScenario& scenario = diagnoser.universe()[
        static_cast<std::size_t>(h)];
    for (const sim::Fault& fault : scenario) {
      std::cout << "  " << to_string(fault) << "\n";
    }
  }
  return 0;
}

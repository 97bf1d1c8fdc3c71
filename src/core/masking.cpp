#include "core/masking.h"

#include "common/logging.h"
#include "common/strings.h"
#include "core/generator.h"

namespace fpva::core {

namespace {

/// Repair rounds before the audit gives up on the remaining pairs.
constexpr int kMaxRepairRounds = 3;

/// Candidate repair vectors for one undetected pair, most promising first.
std::vector<sim::TestVector> repair_candidates(
    const grid::ValveArray& array, const sim::Simulator& simulator,
    PathPlanner& paths, CutPlanner& cuts, const sim::Fault& f,
    const sim::Fault& g, int index) {
  std::vector<sim::TestVector> candidates;
  const auto add_path = [&](grid::ValveId through, grid::ValveId off) {
    std::vector<bool> avoid(
        static_cast<std::size_t>(array.valve_count()), false);
    avoid[static_cast<std::size_t>(off)] = true;
    auto path = paths.path_through(through, &avoid);
    if (path.has_value()) {
      candidates.push_back(to_test_vector(
          array, simulator, *path,
          common::cat("2F-repair path ", index)));
    }
  };
  const auto add_cut = [&](grid::ValveId through, grid::ValveId off) {
    std::vector<bool> avoid(
        static_cast<std::size_t>(array.valve_count()), false);
    avoid[static_cast<std::size_t>(off)] = true;
    auto cut = cuts.cut_through(through, &avoid);
    if (cut.has_value()) {
      candidates.push_back(to_test_vector(
          array, simulator, *cut, common::cat("2F-repair cut ", index)));
    }
    auto detecting = find_detecting_cut(cuts, simulator, through);
    if (detecting.has_value()) {
      candidates.push_back(to_test_vector(
          array, simulator, *detecting,
          common::cat("2F-repair cut ", index, 'b')));
    }
  };
  // For an sa0/sa1 pair, retest the sa0 valve on a path that avoids the
  // leaking valve and retest the sa1 valve with cuts shaped away from the
  // blocking valve (the two Fig. 5 masking directions).
  const sim::Fault& sa0 = f.type == sim::FaultType::kStuckAt0 ? f : g;
  const sim::Fault& sa1 = f.type == sim::FaultType::kStuckAt1 ? f : g;
  if (sa0.type == sim::FaultType::kStuckAt0 &&
      sa1.type == sim::FaultType::kStuckAt1) {
    add_path(sa0.valve, sa1.valve);
    add_cut(sa1.valve, sa0.valve);
  } else {
    // Same-type pairs: retest each fault with the other valve excluded.
    add_path(f.valve, g.valve);
    add_path(g.valve, f.valve);
    add_cut(f.valve, g.valve);
    add_cut(g.valve, f.valve);
  }
  return candidates;
}

}  // namespace

TwoFaultAudit audit_and_repair_two_faults(
    const grid::ValveArray& array, const sim::Simulator& simulator,
    std::vector<sim::TestVector>& vectors) {
  TwoFaultAudit audit;
  // Structurally untestable valves cannot participate in a guarantee.
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

  audit.before = sim::two_fault_coverage(simulator, vectors, universe);
  audit.after = audit.before;

  PathPlanner paths(array);
  CutPlanner cuts(array);
  int repair_index = 0;
  for (int round = 0;
       round < kMaxRepairRounds && !audit.after.complete();
       ++round) {
    bool progressed = false;
    for (const auto& [f, g] : audit.after.undetected) {
      const sim::Fault injected[] = {f, g};
      if (simulator.any_detects(vectors, injected)) continue;  // fixed since
      for (auto& candidate :
           repair_candidates(array, simulator, paths, cuts, f, g,
                             ++repair_index)) {
        if (simulator.detects(candidate, injected)) {
          vectors.push_back(std::move(candidate));
          ++audit.added_vectors;
          progressed = true;
          break;
        }
      }
    }
    audit.after = sim::two_fault_coverage(simulator, vectors, universe);
    if (!progressed) break;
  }
  return audit;
}

}  // namespace fpva::core

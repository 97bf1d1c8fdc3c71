#include "core/generator.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/ilp_models.h"
#include "graph/union_find.h"

namespace fpva::core {

using common::cat;
using grid::Cell;
using grid::Direction;
using grid::Site;

std::vector<grid::ValveId> channel_bypassed_valves(
    const grid::ValveArray& array) {
  // Union cells over channel links only; a valve with both sides in one
  // component is permanently bypassed by the fluidic sea.
  graph::UnionFind components(array.rows() * array.cols());
  for (int index = 0; index < array.rows() * array.cols(); ++index) {
    const Cell cell = array.cell_at_index(index);
    if (!array.is_fluid(cell)) continue;
    for (const Direction direction :
         {Direction::kRight, Direction::kDown}) {
      const auto next = array.neighbor(cell, direction);
      if (!next || !array.is_fluid(*next)) continue;
      if (array.site_kind(valve_site_of(cell, direction)) ==
          grid::SiteKind::kChannel) {
        components.unite(index, array.cell_index(*next));
      }
    }
  }
  std::vector<grid::ValveId> bypassed;
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    const Site site = array.valves()[static_cast<std::size_t>(v)];
    const auto [a, b] = array.sides(site);
    if (a && b && array.is_fluid(*a) && array.is_fluid(*b) &&
        components.connected(array.cell_index(*a), array.cell_index(*b))) {
      bypassed.push_back(v);
    }
  }
  return bypassed;
}

namespace {

/// Stuck-at-0 repair rounds before the remaining faults are reported as
/// undetected.
constexpr int kMaxRepairRounds = 3;

/// Valve-count ceiling for the ILP path engine before it falls back to the
/// constructive engine.
constexpr int kIlpValveLimit = 60;

/// Targets mask: every valve except the structurally untestable ones.
std::vector<bool> testable_mask(const grid::ValveArray& array,
                                const std::vector<grid::ValveId>& untestable) {
  std::vector<bool> mask(static_cast<std::size_t>(array.valve_count()), true);
  for (const grid::ValveId v : untestable) {
    mask[static_cast<std::size_t>(v)] = false;
  }
  return mask;
}

/// Horizontal band index of a valve for the hierarchical mode.
int band_of_valve(const grid::ValveArray& array, grid::ValveId valve,
                  int block_size) {
  const Site site = array.valves()[static_cast<std::size_t>(valve)];
  return ((site.row + 1) / 2 - 1) / block_size;
}

}  // namespace

GeneratedTestSet generate_test_set(const grid::ValveArray& array,
                                   const GeneratorOptions& options) {
  common::check(options.block_size >= 1,
                "generate_test_set: block_size must be >= 1");
  GeneratedTestSet out;
  const sim::Simulator simulator(array);
  PathPlanner path_planner(array);
  CutPlanner cut_planner(array);

  out.untestable = channel_bypassed_valves(array);
  const std::vector<bool> targets = testable_mask(array, out.untestable);

  // ---------------------------------------------------------------- paths
  common::Timer path_timer;
  std::vector<grid::ValveId> path_uncoverable;
  if (options.path_engine == GeneratorOptions::PathEngine::kIlp &&
      array.valve_count() <= kIlpValveLimit) {
    auto ilp_paths = find_minimum_flow_paths(
        array, 1, std::max(2, array.valve_count()));
    if (ilp_paths.has_value()) {
      out.paths = std::move(ilp_paths->paths);
      // A cover without an optimality certificate must not be reported as
      // the minimal n_p by downstream coverage accounting.
      out.ilp_certified = ilp_paths->proven_minimal;
      if (!out.ilp_certified) {
        common::log_warning(
            "ILP path engine returned a cover without an optimality "
            "certificate (solver limits); n_p is an upper bound only");
      }
    } else {
      common::log_warning(
          "ILP path engine found no cover; falling back to the "
          "constructive engine");
    }
  } else if (options.path_engine == GeneratorOptions::PathEngine::kIlp) {
    common::log_warning(cat("array has ", array.valve_count(),
                            " valves > ILP valve limit ",
                            kIlpValveLimit,
                            "; using the constructive engine"));
  }
  if (out.paths.empty()) {
    if (options.hierarchical) {
      int band_count = 0;
      for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
        band_count = std::max(
            band_count, band_of_valve(array, v, options.block_size) + 1);
      }
      std::vector<bool> covered(
          static_cast<std::size_t>(array.valve_count()), false);
      for (int band = 0; band < band_count; ++band) {
        std::vector<bool> band_targets(targets.size(), false);
        for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
          band_targets[static_cast<std::size_t>(v)] =
              targets[static_cast<std::size_t>(v)] &&
              band_of_valve(array, v, options.block_size) == band;
        }
        auto result = path_planner.cover_remaining(band_targets, covered);
        std::move(result.paths.begin(), result.paths.end(),
                  std::back_inserter(out.paths));
        path_uncoverable.insert(path_uncoverable.end(),
                                result.uncoverable.begin(),
                                result.uncoverable.end());
      }
    } else {
      auto result = path_planner.cover(targets);
      out.paths = std::move(result.paths);
      path_uncoverable = std::move(result.uncoverable);
    }
  }
  for (std::size_t i = 0; i < out.paths.size(); ++i) {
    out.vectors.push_back(to_test_vector(array, simulator, out.paths[i],
                                         cat("path ", i + 1)));
  }
  if (!path_uncoverable.empty()) {
    common::log_warning(cat(path_uncoverable.size(),
                            " valves admit no covering flow path"));
  }

  // Behavioral stuck-at-0 validation and repair.
  {
    std::vector<sim::Fault> sa0_universe;
    for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
      if (targets[static_cast<std::size_t>(v)]) {
        sa0_universe.push_back(sim::stuck_at_0(v));
      }
    }
    for (int round = 0; round < kMaxRepairRounds; ++round) {
      const auto report =
          single_fault_coverage(simulator, out.vectors, sa0_universe);
      if (report.complete()) break;
      bool progressed = false;
      for (const sim::Fault& fault : report.undetected) {
        auto path = path_planner.path_through(fault.valve);
        if (!path.has_value()) continue;
        auto vector = to_test_vector(
            array, simulator, *path,
            cat("path ", out.paths.size() + 1, " (repair)"));
        const sim::Fault injected[] = {fault};
        if (simulator.detects(vector, injected)) {
          out.paths.push_back(std::move(*path));
          out.vectors.push_back(std::move(vector));
          progressed = true;
        }
      }
      if (!progressed) break;
    }
  }
  out.path_stage.vectors = static_cast<int>(out.vectors.size());
  out.path_stage.seconds = path_timer.seconds();

  // ----------------------------------------------------------------- cuts
  common::Timer cut_timer;
  {
    // Phase A: the staircase family (well-shaped: one interface each).
    std::vector<bool> structurally_covered(targets.size(), false);
    const int max_diagonal = array.rows() + array.cols() - 2;
    for (int d = 1; d <= max_diagonal; ++d) {
      auto cut = cut_planner.staircase(d);
      if (!cut.has_value()) continue;
      bool useful = false;
      for (const grid::ValveId v : cut_valves(array, *cut)) {
        useful |= targets[static_cast<std::size_t>(v)] &&
                  !structurally_covered[static_cast<std::size_t>(v)];
      }
      if (!useful) continue;
      for (const grid::ValveId v : cut_valves(array, *cut)) {
        structurally_covered[static_cast<std::size_t>(v)] = true;
      }
      out.vectors.push_back(to_test_vector(array, simulator, *cut,
                                           cat("cut ", out.cuts.size() + 1)));
      out.cuts.push_back(std::move(*cut));
    }
    // Phase B: behavioral greedy -- one verified detecting cut at a time,
    // chained through as many still-undetected valves as possible.
    std::vector<sim::Fault> sa1_universe;
    for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
      if (targets[static_cast<std::size_t>(v)]) {
        sa1_universe.push_back(sim::stuck_at_1(v));
      }
    }
    auto report =
        single_fault_coverage(simulator, out.vectors, sa1_universe);
    std::vector<sim::Fault> remaining = std::move(report.undetected);
    std::size_t stuck_guard = remaining.size() + 8;
    while (!remaining.empty() && stuck_guard-- > 0) {
      std::vector<bool> wanted(targets.size(), false);
      for (const sim::Fault& fault : remaining) {
        wanted[static_cast<std::size_t>(fault.valve)] = true;
      }
      const grid::ValveId seed = remaining.front().valve;
      auto cut =
          find_detecting_cut(cut_planner, simulator, seed, 4, &wanted);
      if (!cut.has_value()) {
        // Chaining through other wanted valves can change the shape enough
        // to lose the seed; retry single-target before giving up.
        cut = find_detecting_cut(cut_planner, simulator, seed, 4);
      }
      if (!cut.has_value()) {
        remaining.erase(remaining.begin());  // final sweep will report it
        continue;
      }
      auto vector = to_test_vector(array, simulator, *cut,
                                   cat("cut ", out.cuts.size() + 1));
      const sim::TestVector just_added[] = {vector};
      remaining =
          single_fault_coverage(simulator, just_added, remaining).undetected;
      out.cuts.push_back(std::move(*cut));
      out.vectors.push_back(std::move(vector));
    }
  }
  out.cut_stage.vectors =
      static_cast<int>(out.vectors.size()) - out.path_stage.vectors;
  out.cut_stage.seconds = cut_timer.seconds();

  // ---------------------------------------------------------------- leaks
  common::Timer leak_timer;
  {
    const std::vector<sim::Fault> leak_universe =
        sim::control_leak_universe(array);
    auto report =
        single_fault_coverage(simulator, out.vectors, leak_universe);
    int leak_index = 0;
    std::vector<sim::TestVector> leak_vectors;
    std::vector<sim::Fault> remaining = std::move(report.undetected);
    while (!remaining.empty()) {
      const sim::Fault fault = remaining.front();
      // Separate the pair: route a path through one partner while the
      // other stays commanded-closed off the path. Prefer crossing valves
      // of other still-uncovered pairs so one vector separates many.
      // Prefer one member per pending pair; chaining both members would
      // open partner valves too and separate nothing.
      std::vector<bool> prefer(
          static_cast<std::size_t>(array.valve_count()), false);
      for (const sim::Fault& pending : remaining) {
        prefer[static_cast<std::size_t>(pending.valve)] = true;
      }
      std::vector<bool> avoid(
          static_cast<std::size_t>(array.valve_count()), false);
      const sim::Fault injected[] = {fault};
      bool detected = false;
      for (int attempt = 0; attempt < 4 && !detected; ++attempt) {
        const grid::ValveId on_path =
            attempt % 2 == 0 ? fault.valve : fault.partner;
        const grid::ValveId off_path =
            attempt % 2 == 0 ? fault.partner : fault.valve;
        std::fill(avoid.begin(), avoid.end(), false);
        avoid[static_cast<std::size_t>(off_path)] = true;
        // Attempts 0-1 chain other pending pairs; attempts 2-3 are the
        // minimal single-target probes whose failure proves the pair
        // untestable.
        auto path = path_planner.path_through(
            on_path, &avoid, attempt < 2 ? &prefer : nullptr);
        if (!path.has_value()) continue;
        auto vector = to_test_vector(array, simulator, *path,
                                     cat("leak ", ++leak_index));
        vector.kind = sim::VectorKind::kControlLeak;
        if (simulator.detects(vector, injected)) {
          const sim::TestVector just_added[] = {vector};
          remaining = single_fault_coverage(simulator, just_added, remaining)
                          .undetected;
          leak_vectors.push_back(std::move(vector));
          detected = true;
        } else {
          --leak_index;
        }
      }
      if (!detected) {
        // Neither partner admits a simple path avoiding the other: no
        // pressure test can distinguish this pair (see untestable_leaks).
        out.untestable_leaks.push_back(fault);
        remaining.erase(remaining.begin());
      }
    }
    std::move(leak_vectors.begin(), leak_vectors.end(),
              std::back_inserter(out.vectors));
  }
  out.leak_stage.vectors = static_cast<int>(out.vectors.size()) -
                           out.path_stage.vectors - out.cut_stage.vectors;
  out.leak_stage.seconds = leak_timer.seconds();

  // --------------------------------------------- final verification sweep
  std::vector<sim::Fault> full_universe;
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    if (targets[static_cast<std::size_t>(v)]) {
      full_universe.push_back(sim::stuck_at_0(v));
      full_universe.push_back(sim::stuck_at_1(v));
    }
  }
  for (const sim::Fault& leak : sim::control_leak_universe(array)) {
    const bool untestable_pair =
        std::find(out.untestable_leaks.begin(),
                  out.untestable_leaks.end(),
                  leak) != out.untestable_leaks.end();
    if (!untestable_pair) {
      full_universe.push_back(leak);
    }
  }
  out.undetected =
      single_fault_coverage(simulator, out.vectors, full_universe)
          .undetected;
  return out;
}

}  // namespace fpva::core

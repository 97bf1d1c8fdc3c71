// certify: certified minimum test-vector counts on a suite of small full
// arrays, because solver work is judged on several instances, never one.
// Cut-set minima (masking exclusion on) on 3x3..5x5 and flow-path minima on
// 4x4..7x7, each through core::find_minimum_* with default ilp::Options
// (one thread, no certificate store). The time is almost all `lp`/`ilp`,
// split between refutation stages (infeasible budgets) and the final
// optimality stage; `sim` and the generator are never entered.
//
// Excluded, see README.md: table1_array(5) cuts (unproven after 243 s) and
// full 3x6 / 4x6 cuts (10 s / 31 s, which would make a repeat too long).
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/ilp_models.h"
#include "grid/presets.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

using fpva::common::Timer;

namespace {

/// Set-ups per repeat: building the suite's arrays takes well under a
/// millisecond.
constexpr int kSetupsPerRepeat = 50;

struct Instance {
  const char* name;
  bool cuts;  ///< cut-set minimum (else flow-path minimum)
  int rows;
  int cols;
  int expected_minimum;
};

// Minima committed from proven runs; any other answer is a failure.
constexpr Instance kSuite[] = {
    {"cut3x3", true, 3, 3, 4},    {"cut3x4", true, 3, 4, 3},
    {"cut4x4", true, 4, 4, 4},    {"cut4x5", true, 4, 5, 3},
    {"cut5x5", true, 5, 5, 4},    {"path4x4", false, 4, 4, 2},
    {"path5x5", false, 5, 5, 2},  {"path6x6", false, 6, 6, 2},
    {"path7x7", false, 7, 7, 2},
};
constexpr int kSuiteSize = static_cast<int>(std::size(kSuite));
constexpr int kFirstBudget = 1;
constexpr int kLastBudget = 10;

/// One instance's answer, reduced to what the checks and counts need.
struct Answer {
  bool found = false;
  bool proven = false;
  int budget = 0;
  std::vector<fpva::core::BudgetStage> stages;
  fpva::ilp::Result final_stage;
  std::vector<fpva::core::CutSet> cuts;
  std::vector<fpva::core::FlowPath> paths;
};

Answer certify(const Instance& instance, const fpva::grid::ValveArray& array) {
  const fpva::ilp::Options options;  // default: one thread, no store
  if (instance.cuts) {
    auto result = fpva::core::find_minimum_cut_sets(
        array, kFirstBudget, kLastBudget, /*masking_exclusion=*/true,
        options);
    if (!result) return {};
    return {true, result->proven_minimal, result->cut_budget,
            std::move(result->stages), std::move(result->ilp),
            std::move(result->cuts), {}};
  }
  auto result = fpva::core::find_minimum_flow_paths(array, kFirstBudget,
                                                    kLastBudget, options);
  if (!result) return {};
  return {true, result->proven_minimal, result->path_budget,
          std::move(result->stages), std::move(result->ilp), {},
          std::move(result->paths)};
}

/// Oracle replay of a certified cover through the scalar simulator.
struct Replay {
  std::string defect;  ///< first defect found, empty when the cover holds
  /// Valves whose single stuck-at fault of the cover's kind some vector
  /// exposes (stuck-at-1 for cuts, stuck-at-0 for paths).
  long exposed = 0;
};

/// A path cover must open a pressurized route through every valve, so a
/// stuck-at-0 anywhere must show. A cut cover must close every valve in
/// some cut while every meter stays dry; it need not expose every
/// stuck-at-1 (a cut may enclose a pocket of cells, which is why the
/// generator keeps its behavioural repair loop), so that is counted, not
/// required.
Replay replay(const Instance& instance, const fpva::grid::ValveArray& array,
              const Answer& answer) {
  const fpva::sim::Simulator simulator(array);
  std::vector<fpva::sim::TestVector> vectors;
  std::vector<char> closed_by_a_cut(array.valve_count(), 0);
  for (const fpva::core::CutSet& cut : answer.cuts) {
    if (auto defect = fpva::core::validate_cut_set(array, cut)) {
      return {*defect, 0};
    }
    vectors.push_back(fpva::core::to_test_vector(array, simulator, cut, "cut"));
    for (const bool pressurized : simulator.readings(vectors.back().states)) {
      if (pressurized) return {"a cut leaves a meter pressurized", 0};
    }
    for (const fpva::grid::ValveId valve : fpva::core::cut_valves(array, cut)) {
      closed_by_a_cut[valve] = 1;
    }
  }
  for (const fpva::core::FlowPath& path : answer.paths) {
    if (auto defect = fpva::core::validate_flow_path(array, path)) {
      return {*defect, 0};
    }
    vectors.push_back(
        fpva::core::to_test_vector(array, simulator, path, "path"));
  }
  Replay result;
  for (int valve = 0; valve < array.valve_count(); ++valve) {
    const std::vector<fpva::sim::Fault> faults = {
        instance.cuts ? fpva::sim::stuck_at_1(valve)
                      : fpva::sim::stuck_at_0(valve)};
    const bool exposed = simulator.any_detects(vectors, faults);
    result.exposed += exposed ? 1 : 0;
    if (result.defect.empty() &&
        (instance.cuts ? !closed_by_a_cut[valve] : !exposed)) {
      result.defect = "cover misses " + fpva::sim::to_string(faults);
    }
  }
  return result;
}

}  // namespace

void run_certify(Run& run) {
  Tracer& tracer = run.tracer();
  // The suite is fixed (its minima are known); the seed only decides the
  // order the instances run in, the same in every repeat.
  std::vector<int> order(kSuiteSize);
  for (int i = 0; i < kSuiteSize; ++i) order[i] = i;
  fpva::common::Rng rng(run.config().seed);
  rng.shuffle(order);

  while (run.next_repeat()) {
    std::vector<fpva::grid::ValveArray> arrays;
    std::vector<Answer> answers(kSuiteSize);
    {
      Tracer::Scope root(tracer, "certify", Layer::kBench);
      {
        Tracer::Scope phase(tracer, "setup", Layer::kBench);
        for (int k = 0; k < kSetupsPerRepeat; ++k) {
          Timer setup;
          arrays.clear();
          for (const Instance& instance : kSuite) {
            Tracer::Scope call(tracer, "grid::full_array", Layer::kGrid);
            arrays.push_back(
                fpva::grid::full_array(instance.rows, instance.cols));
          }
          run.setup_done(setup.seconds());
        }
      }
      Timer pass;
      Tracer::Scope phase(tracer, "certify suite", Layer::kBench);
      for (const int i : order) {
        const Instance& instance = kSuite[i];
        Tracer::Scope span(tracer, instance.name, Layer::kBench);
        Timer call;
        {
          Tracer::Scope call_span(tracer,
                                  instance.cuts
                                      ? "core::find_minimum_cut_sets"
                                      : "core::find_minimum_flow_paths",
                                  Layer::kIlp);
          answers[i] = certify(instance, arrays[i]);
        }
        const double seconds = call.seconds();
        run.case_done(i, seconds);
        run.stage(std::string("certify.") + instance.name + "_pct", seconds);
        double staged = 0.0;
        const std::vector<fpva::core::BudgetStage>& stages = answers[i].stages;
        for (std::size_t k = 0; k < stages.size(); ++k) {
          run.stage(k + 1 == stages.size() ? "ilp.final_pct" : "ilp.refute_pct",
                    stages[k].seconds);
          staged += stages[k].seconds;
        }
        // Model building and witness extraction around the stages.
        run.stage("ilp.other_pct", seconds - staged);
      }
      run.pass_done(pass.seconds());
    }

    long nodes = 0, conflicts = 0, pivots = 0, refactorizations = 0,
         basis_updates = 0, fallbacks = 0, pruned = 0, final_nodes = 0,
         vectors = 0, proven = 0;
    for (int i = 0; i < kSuiteSize; ++i) {
      const Instance& instance = kSuite[i];
      const Answer& answer = answers[i];
      const std::string name = instance.name;
      const Replay replayed = replay(instance, arrays[i], answer);
      const std::string& defect = replayed.defect;
      run.check(answer.found && answer.proven &&
                    answer.budget == instance.expected_minimum &&
                    defect.empty(),
                name + ": expected a proven minimum of " +
                    std::to_string(instance.expected_minimum) + ", got " +
                    std::to_string(answer.budget) +
                    (answer.proven ? "" : " unproven") +
                    (defect.empty() ? "" : ", " + defect));
      long instance_nodes = 0;
      for (const fpva::core::BudgetStage& stage : answer.stages) {
        instance_nodes += stage.nodes;
        conflicts += stage.conflicts;
        pivots += stage.lp_pivots;
      }
      run.count("certify." + name + ".nodes", instance_nodes);
      run.count("certify." + name + ".minimum", answer.budget);
      run.count("certify." + name + ".exposed", replayed.exposed);
      nodes += instance_nodes;
      // Only the final stage's Result carries the LP factorization counters.
      const fpva::ilp::Result& final_stage = answer.final_stage;
      refactorizations += final_stage.lp_refactorizations;
      basis_updates += final_stage.lp_basis_updates;
      fallbacks +=
          final_stage.lp_eta_fallbacks + final_stage.lp_dense_fallbacks;
      pruned += final_stage.nodes_pruned_by_propagation;
      final_nodes += final_stage.nodes;
      vectors += answer.budget;
      proven += answer.proven ? 1 : 0;
    }
    run.count("ilp.nodes", nodes);
    run.count("ilp.conflicts", conflicts);
    run.count("ilp.final_nodes", final_nodes);
    run.count("ilp.prop_pruned", pruned);
    run.count("lp.pivots", pivots);
    run.count("lp.refactorizations", refactorizations);
    run.count("lp.basis_updates", basis_updates);
    run.count("lp.fallbacks", fallbacks);
    run.count("vectors", vectors);
    run.count("proven", proven);
  }

  const double final_nodes =
      static_cast<double>(run.count_of("ilp.final_nodes"));
  const double pruned = static_cast<double>(run.count_of("ilp.prop_pruned"));
  run.end_to_end("vectors", static_cast<double>(run.count_of("vectors")),
                 "count");
  run.end_to_end("goal_frac",
                 static_cast<double>(run.count_of("proven")) / kSuiteSize,
                 "frac");
  run.layer("ilp.prop_prune_ratio",
            final_nodes > 0 ? pruned / final_nodes : 0.0, "frac");
  run.layer("lp.pivots_per_s",
            static_cast<double>(run.count_of("lp.pivots")) /
                run.median_pass_seconds(),
            "1/s");
}

}  // namespace perfbench

// Property tests for warm row addition (the cutting-loop half of the
// Forrest-Tomlin work): appending cut rows to a live factorized basis and
// dual-repairing must be indistinguishable — in reported optimum and in
// the validity of the final basis — from crashing the extended LP cold
// each round, and the ILP pipeline built on it must find the enumerated
// optimum across the options switch matrix and the known minima of the
// paper's Table-I / full-array presets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/ilp_models.h"
#include "grid/presets.h"
#include "ilp/branch_and_bound.h"
#include "ilp/model.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "random_mip.h"

namespace fpva {
namespace {

lp::SolveOptions ft_options() {
  lp::SolveOptions options;
  options.algorithm = lp::Algorithm::kRevised;
  options.factorization = lp::Factorization::kForrestTomlin;
  return options;
}

/// Random packing-flavored LP: binaries-shaped boxes with knapsack rows,
/// the shape the root cutting loop actually sees.
lp::Model random_packing_lp(common::Rng& rng, int n) {
  lp::Model model;
  for (int j = 0; j < n; ++j) {
    model.add_variable(0.0, 1.0, -(1.0 + rng.next_double() * 4.0));
  }
  const int m = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bool(0.5)) {
        terms.push_back({j, 1.0 + rng.next_double() * 3.0});
      }
    }
    if (terms.size() < 2) terms = {{0, 1.0}, {n - 1, 1.0}};
    double total = 0.0;
    for (const lp::Term& term : terms) total += term.coefficient;
    model.add_constraint(std::move(terms), lp::Sense::kLessEqual,
                         total * (0.3 + rng.next_double() * 0.3));
  }
  return model;
}

// A synthetic cutting loop: each round appends a currently-binding row to
// the warm solver and to a pristine model copy. After every round the warm
// reoptimize must match a cold dual crash of the extended model, and the
// warm solver's final basis, restored into a fresh solver and
// refactorized, must reproduce the optimum without a single pivot — the
// basis itself is optimal, not just the reported number.
TEST(WarmRowAdditionTest, EveryCutRoundMatchesColdCrash) {
  for (int trial = 0; trial < 40; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 6364136223846793005ULL +
                    1442695040888963407ULL);
    lp::Model model = random_packing_lp(rng, 6 + static_cast<int>(rng.next_below(8)));
    lp::RevisedSimplex warm(model, ft_options());
    lp::Solution current = warm.solve_cold();
    ASSERT_EQ(current.status, lp::SolveStatus::kOptimal) << "trial " << trial;

    for (int round = 0; round < 4; ++round) {
      // Cut off the current optimum with a valid-looking <= row.
      std::vector<lp::Term> terms;
      double activity = 0.0;
      for (int j = 0; j < model.variable_count(); ++j) {
        const double v = current.values[static_cast<std::size_t>(j)];
        if (v > 0.01) {
          terms.push_back({j, 1.0});
          activity += v;
        }
      }
      if (terms.size() < 2) break;  // nothing left to cut
      const double rhs = activity - 0.5;
      warm.add_row(terms, lp::Sense::kLessEqual, rhs);
      model.add_constraint(terms, lp::Sense::kLessEqual, rhs);

      const lp::Solution warm_solution = warm.reoptimize();
      ASSERT_FALSE(warm.numerical_trouble())
          << "trial " << trial << " round " << round;

      // Cold oracle: dual crash over the extended model from scratch.
      lp::RevisedSimplex cold(model, ft_options());
      const lp::Solution cold_solution = cold.solve_cold();
      ASSERT_EQ(warm_solution.status, cold_solution.status)
          << "trial " << trial << " round " << round;
      if (warm_solution.status != lp::SolveStatus::kOptimal) break;
      EXPECT_NEAR(warm_solution.objective, cold_solution.objective, 1e-7)
          << "trial " << trial << " round " << round;

      // Basis validity: the warm basis, refactorized from scratch in a
      // fresh solver, is already optimal — zero pivots, and (being the
      // same basis refactorized the same way twice) a bit-identical
      // objective on a second restore.
      lp::RevisedSimplex check(model, ft_options());
      ASSERT_TRUE(check.restore_basis(warm.snapshot_basis()))
          << "trial " << trial << " round " << round;
      const lp::Solution restored = check.reoptimize();
      ASSERT_EQ(restored.status, lp::SolveStatus::kOptimal)
          << "trial " << trial << " round " << round;
      EXPECT_EQ(restored.iterations, 0)
          << "warm basis was not optimal (trial " << trial << " round "
          << round << ")";
      EXPECT_NEAR(restored.objective, warm_solution.objective, 1e-8)
          << "trial " << trial << " round " << round;

      lp::RevisedSimplex again(model, ft_options());
      ASSERT_TRUE(again.restore_basis(warm.snapshot_basis()));
      const lp::Solution replay = again.reoptimize();
      // Same basis, same bounds, same code path: bit-identical.
      EXPECT_EQ(replay.objective, restored.objective)
          << "trial " << trial << " round " << round;

      current = warm_solution;
    }
  }
}

// The warm-row pipeline must find the enumerated optimum: warm rows change
// how the LP reaches the answer, never the answer.
TEST(WarmRowAdditionTest, OptimaMatchBruteForce) {
  for (int instance = 0; instance < 6; ++instance) {
    common::Rng rng(static_cast<std::uint64_t>(instance) * 982451653ULL + 29);
    const ilp::Model model = test_support::random_mip(rng);
    const std::optional<double> best = test_support::brute_force_optimum(model);
    const ilp::Result result = ilp::solve(model);
    if (!best.has_value()) {
      EXPECT_EQ(result.status, ilp::ResultStatus::kInfeasible)
          << "instance " << instance;
      continue;
    }
    ASSERT_EQ(result.status, ilp::ResultStatus::kOptimal)
        << "instance " << instance;
    EXPECT_EQ(result.objective, *best) << "instance " << instance;
  }
}

// Table-I / full-array presets through the real pipeline: the minimum
// budgets and their certificates must not depend on the switches around
// the warm-row node LPs, and they stay pinned at their known values. The
// 3x3 cut-set model runs under the default config only: with every switch
// off it exhausts the 120 s default time limit before the proof closes.
TEST(WarmRowAdditionTest, PresetBudgetsIdenticalAllSwitchesOnAndOff) {
  ilp::Options all_on;
  ilp::Options all_off = test_support::all_switches_off();

  const grid::ValveArray table1 = grid::table1_array(5);
  const grid::ValveArray full2 = grid::full_array(2, 2);
  const grid::ValveArray full3 = grid::full_array(3, 3);
  for (const ilp::Options* options : {&all_on, &all_off}) {
    const auto paths = core::find_minimum_flow_paths(table1, 1, 8, *options);
    ASSERT_TRUE(paths.has_value());
    EXPECT_EQ(paths->path_budget, 2);
    EXPECT_TRUE(paths->proven_minimal);

    const auto cuts = core::find_minimum_cut_sets(full2, 1, 8, true, *options);
    ASSERT_TRUE(cuts.has_value());
    EXPECT_EQ(cuts->cut_budget, 2);
    EXPECT_TRUE(cuts->proven_minimal);
  }
  const auto cuts = core::find_minimum_cut_sets(full3, 1, 8, true, all_on);
  ASSERT_TRUE(cuts.has_value());
  EXPECT_EQ(cuts->cut_budget, 4);
  EXPECT_TRUE(cuts->proven_minimal);
}

}  // namespace
}  // namespace fpva

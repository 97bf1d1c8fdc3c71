// Tests for the revised simplex engine (lp/revised_simplex.h): degeneracy
// and anti-cycling, warm-start-vs-cold-start equivalence under randomized
// bound changes, and differential agreement with the retained dense
// tableau oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace fpva::lp {
namespace {

SolveOptions dense_options() {
  SolveOptions options;
  options.algorithm = Algorithm::kDenseTableau;
  return options;
}

SolveOptions revised_options() {
  SolveOptions options;
  options.algorithm = Algorithm::kRevised;
  return options;
}

TEST(RevisedSimplexTest, MatchesDenseOnTransportation) {
  Model model;
  const int x11 = model.add_variable(0.0, 30.0, 1.0);
  const int x12 = model.add_variable(0.0, 30.0, 4.0);
  const int x21 = model.add_variable(0.0, 30.0, 2.0);
  const int x22 = model.add_variable(0.0, 30.0, 1.0);
  model.add_constraint({{x11, 1.0}, {x12, 1.0}}, Sense::kEqual, 10.0);
  model.add_constraint({{x21, 1.0}, {x22, 1.0}}, Sense::kEqual, 20.0);
  model.add_constraint({{x11, 1.0}, {x21, 1.0}}, Sense::kEqual, 15.0);
  model.add_constraint({{x12, 1.0}, {x22, 1.0}}, Sense::kEqual, 15.0);
  const Solution revised = solve(model);
  const Solution dense = solve(model, dense_options());
  ASSERT_EQ(revised.status, SolveStatus::kOptimal);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(revised.objective, dense.objective, 1e-6);
  EXPECT_NEAR(revised.objective, 35.0, 1e-6);
}

// Beale's classic cycling example: Dantzig pricing cycles forever on this
// LP without an anti-cycling rule. The solver must terminate at the known
// optimum (z = -0.05 at x1 = 1/25, x3 = 1).
TEST(RevisedSimplexTest, BealeCyclingExampleTerminates) {
  Model model;
  const int x1 = model.add_variable(0.0, 10.0, -0.75);
  const int x2 = model.add_variable(0.0, 10.0, 150.0);
  const int x3 = model.add_variable(0.0, 10.0, -0.02);
  const int x4 = model.add_variable(0.0, 10.0, 6.0);
  model.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                       Sense::kLessEqual, 0.0);
  model.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                       Sense::kLessEqual, 0.0);
  model.add_constraint({{x3, 1.0}}, Sense::kLessEqual, 1.0);
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -0.05, 1e-6);
  EXPECT_LE(model.max_violation(solution.values), 1e-6);
}

// Many redundant constraints through one vertex: heavy primal degeneracy.
TEST(RevisedSimplexTest, DegenerateVertexTerminates) {
  Model model;
  const int x = model.add_variable(0.0, 10.0, -1.0);
  const int y = model.add_variable(0.0, 10.0, -1.0);
  for (int k = 1; k <= 12; ++k) {
    model.add_constraint({{x, static_cast<double>(k)}, {y, 1.0}},
                         Sense::kLessEqual, static_cast<double>(k));
  }
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -1.0, 1e-6);
}

TEST(RevisedSimplexTest, WarmStartAfterBoundChange) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> min -(x+y), optimum -2.8.
  Model model;
  const int x = model.add_variable(0.0, 10.0, -1.0);
  const int y = model.add_variable(0.0, 10.0, -1.0);
  model.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::kLessEqual, 4.0);
  model.add_constraint({{x, 3.0}, {y, 1.0}}, Sense::kLessEqual, 6.0);

  RevisedSimplex solver(model);
  const Solution first = solver.reoptimize();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, -2.8, 1e-6);
  EXPECT_TRUE(solver.has_basis());

  // Tighten x like a branch-and-bound "down" child: x <= 1.
  solver.set_bounds(x, 0.0, 1.0);
  const Solution warm = solver.reoptimize();
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  // New optimum: x = 1, y = 1.5 -> -2.5.
  EXPECT_NEAR(warm.objective, -2.5, 1e-6);

  // And back: relaxing to the original domain restores the old optimum.
  solver.set_bounds(x, 0.0, 10.0);
  const Solution relaxed = solver.reoptimize();
  ASSERT_EQ(relaxed.status, SolveStatus::kOptimal);
  EXPECT_NEAR(relaxed.objective, -2.8, 1e-6);
}

TEST(RevisedSimplexTest, WarmStartDetectsInfeasibilityAndRecovers) {
  Model model;
  const int x = model.add_variable(0.0, 10.0, 1.0);
  const int y = model.add_variable(0.0, 10.0, 1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 5.0);

  RevisedSimplex solver(model);
  ASSERT_EQ(solver.reoptimize().status, SolveStatus::kOptimal);

  // x + y >= 5 cannot hold with both variables capped at 1.
  solver.set_bounds(x, 0.0, 1.0);
  solver.set_bounds(y, 0.0, 1.0);
  EXPECT_EQ(solver.reoptimize().status, SolveStatus::kInfeasible);

  // Relax y again: feasible, optimum x = 0 or 1 with x + y = 5.
  solver.set_bounds(y, 0.0, 10.0);
  const Solution recovered = solver.reoptimize();
  ASSERT_EQ(recovered.status, SolveStatus::kOptimal);
  EXPECT_NEAR(recovered.objective, 5.0, 1e-6);
}

/// Builds a random bounded LP (shared by the differential sweeps below).
Model random_model(common::Rng& rng) {
  Model model;
  const int vars = 3 + static_cast<int>(rng.next_below(6));
  for (int j = 0; j < vars; ++j) {
    const double lo = static_cast<double>(rng.next_in(-5, 0));
    const double hi = lo + static_cast<double>(rng.next_in(0, 8));
    model.add_variable(lo, hi, static_cast<double>(rng.next_in(-4, 4)));
  }
  const int rows = 2 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j) {
      if (rng.next_bool(0.7)) {
        terms.push_back({j, static_cast<double>(rng.next_in(-3, 3))});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const auto sense = static_cast<Sense>(rng.next_below(3));
    model.add_constraint(std::move(terms), sense,
                         static_cast<double>(rng.next_in(-6, 6)));
  }
  return model;
}

class RevisedVsDenseTest : public ::testing::TestWithParam<int> {};

// Differential: both engines must agree on feasibility, and on the optimal
// objective when feasible.
TEST_P(RevisedVsDenseTest, AgreesWithDenseOracle) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Model model = random_model(rng);
  const Solution revised = solve(model, revised_options());
  const Solution dense = solve(model, dense_options());
  ASSERT_NE(revised.status, SolveStatus::kIterationLimit);
  ASSERT_NE(dense.status, SolveStatus::kIterationLimit);
  EXPECT_EQ(revised.status, dense.status);
  if (revised.status == SolveStatus::kOptimal &&
      dense.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(revised.objective, dense.objective, 1e-5);
    EXPECT_LE(model.max_violation(revised.values), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, RevisedVsDenseTest,
                         ::testing::Range(0, 60));

class WarmStartDifferentialTest : public ::testing::TestWithParam<int> {};

// The warm-started engine walks a random sequence of bound changes; after
// every step its result must match a dense cold solve of the same model.
TEST_P(WarmStartDifferentialTest, WarmEqualsColdOverBoundChanges) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 71);
  Model model = random_model(rng);
  const int vars = model.variable_count();
  RevisedSimplex solver(model, revised_options());

  Model scratch = model;  // dense oracle sees the same bound trajectory
  for (int step = 0; step < 12; ++step) {
    const int var = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(vars)));
    const double orig_lo = model.variable(var).lower;
    const double orig_hi = model.variable(var).upper;
    // Random sub-interval of the original domain (occasionally restore).
    double lo = orig_lo;
    double hi = orig_hi;
    if (!rng.next_bool(0.25)) {
      const double width = orig_hi - orig_lo;
      const double a = orig_lo + width * 0.25 * rng.next_below(4);
      const double b = orig_lo + width * 0.25 * rng.next_below(4);
      lo = std::min(a, b);
      hi = std::max(a, b);
    }
    solver.set_bounds(var, lo, hi);
    scratch.set_bounds(var, lo, hi);

    const Solution warm = solver.reoptimize();
    const Solution cold = solve(scratch, dense_options());
    ASSERT_NE(warm.status, SolveStatus::kIterationLimit);
    ASSERT_EQ(warm.status, cold.status)
        << "step " << step << " var " << var << " [" << lo << ", " << hi
        << "]";
    if (warm.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-5)
          << "step " << step << " var " << var;
      EXPECT_LE(scratch.max_violation(warm.values), 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWalks, WarmStartDifferentialTest,
                         ::testing::Range(0, 40));

class WarmRestoreDifferentialTest : public ::testing::TestWithParam<int> {};

// Snapshot/restore differential: along a random bound walk, checkpoints
// taken at earlier steps are restored (bounds stay wherever the walk put
// them — exactly the branch-and-bound backjump pattern) and the solver is
// reoptimized from the restored basis. Every restore runs twice in a row,
// so the second call exercises the identical-basis fast path; either way
// the reoptimized result must match a cold dense crash of the same bounds.
// Any devex state left stale by the fast path shows up here as
// a wrong objective or status.
TEST_P(WarmRestoreDifferentialTest, RestoredBasisEqualsColdCrash) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 50021 + 9);
  Model model = random_model(rng);
  const int vars = model.variable_count();
  RevisedSimplex solver(model, revised_options());

  Model scratch = model;  // cold-crash oracle tracks the live bounds
  std::vector<BasisSnapshot> snapshots;
  for (int step = 0; step < 14; ++step) {
    const int var = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(vars)));
    const double orig_lo = model.variable(var).lower;
    const double orig_hi = model.variable(var).upper;
    double lo = orig_lo;
    double hi = orig_hi;
    if (!rng.next_bool(0.25)) {
      const double width = orig_hi - orig_lo;
      const double a = orig_lo + width * 0.25 * rng.next_below(4);
      const double b = orig_lo + width * 0.25 * rng.next_below(4);
      lo = std::min(a, b);
      hi = std::max(a, b);
    }
    solver.set_bounds(var, lo, hi);
    scratch.set_bounds(var, lo, hi);

    const Solution warm = solver.reoptimize();
    const Solution cold = solve(scratch, dense_options());
    ASSERT_NE(warm.status, SolveStatus::kIterationLimit);
    ASSERT_EQ(warm.status, cold.status) << "step " << step;
    if (warm.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-5) << "step " << step;
      EXPECT_LE(scratch.max_violation(warm.values), 1e-5);
    }
    if (solver.has_basis() && rng.next_bool(0.5)) {
      snapshots.push_back(solver.snapshot_basis());
    }
    if (!snapshots.empty() && rng.next_bool(0.4)) {
      const BasisSnapshot& snap = snapshots[static_cast<std::size_t>(
          rng.next_below(snapshots.size()))];
      if (!solver.restore_basis(snap)) continue;
      // Immediately restoring the checkpoint that is now live must take
      // the identical-basis fast path and leave the solver just as usable.
      ASSERT_TRUE(solver.restore_basis(snap)) << "step " << step;
      const Solution again = solver.reoptimize();
      ASSERT_NE(again.status, SolveStatus::kIterationLimit);
      ASSERT_EQ(again.status, cold.status) << "restore at step " << step;
      if (again.status == SolveStatus::kOptimal) {
        EXPECT_NEAR(again.objective, cold.objective, 1e-5)
            << "restore at step " << step;
        EXPECT_LE(scratch.max_violation(again.values), 1e-5);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRestores, WarmRestoreDifferentialTest,
                         ::testing::Range(0, 30));

// Regression for the perturbed-cost path: the dual reoptimize runs on
// leaned (anti-degeneracy) costs, and the exact-cost primal polish may hit
// the pivot budget. Whatever the truncation point, any reported objective
// must be computed from the true objective vector — the perturbation must
// never leak into result.objective — and once a retry loop (mirroring the
// branch-and-bound budget escalation) reaches optimality, the objective
// must bit-match the dense tableau oracle.
TEST(RevisedSimplexTest, TinyPolishBudgetNeverLeaksPerturbedCosts) {
  // Integral data with +-1 coefficients and a bound-defined unique optimum
  // (x = 5, y = 3, objective -8): every iterate stays on exact dyadic
  // values, so bitwise comparison against the dense oracle is meaningful.
  Model model;
  const int x = model.add_variable(0.0, 5.0, -1.0);
  const int y = model.add_variable(0.0, 5.0, -1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 8.0);
  // Redundant rows through the optimum keep the polish degenerate.
  model.add_constraint({{x, 1.0}}, Sense::kLessEqual, 5.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 9.0);
  const Solution dense = solve(model, dense_options());
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);

  SolveOptions options = revised_options();
  options.max_iterations = 1;  // absurdly small: every phase truncates
  RevisedSimplex solver(model, options);
  Solution solution;
  bool reached_optimal = false;
  for (long budget = 1; budget <= 1024 && !reached_optimal; budget *= 2) {
    solver.set_iteration_limit(budget);
    solution = solver.reoptimize();
    ASSERT_FALSE(solver.numerical_trouble());
    if (solution.status == SolveStatus::kIterationLimit &&
        !solution.values.empty()) {
      // A truncated-but-feasible report must price its own point with
      // the exact objective vector.
      EXPECT_EQ(solution.objective, model.objective_value(solution.values));
      EXPECT_LE(model.max_violation(solution.values), 1e-6);
    }
    reached_optimal = solution.status == SolveStatus::kOptimal;
  }
  ASSERT_TRUE(reached_optimal);
  EXPECT_EQ(solution.objective, dense.objective)
      << "objective must bit-match the dense tableau";
}

// A budget-truncated warm reoptimize after bound changes must also report
// exact-cost objectives (this is the exact call pattern of the node LPs).
TEST(RevisedSimplexTest, TruncatedReoptimizeReportsExactObjective) {
  Model model;
  const int x = model.add_variable(0.0, 4.0, -1.0);
  const int y = model.add_variable(0.0, 4.0, -2.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 6.0);
  RevisedSimplex solver(model);
  ASSERT_EQ(solver.reoptimize().status, SolveStatus::kOptimal);

  Model scratch = model;
  solver.set_bounds(y, 0.0, 3.0);
  scratch.set_bounds(y, 0.0, 3.0);
  for (long budget = 1; budget <= 1024; budget *= 2) {
    solver.set_iteration_limit(budget);
    const Solution warm = solver.reoptimize();
    if (warm.status == SolveStatus::kIterationLimit && !warm.values.empty()) {
      EXPECT_EQ(warm.objective, scratch.objective_value(warm.values));
    }
    if (warm.status == SolveStatus::kOptimal) {
      const Solution cold = solve(scratch, dense_options());
      EXPECT_EQ(warm.objective, cold.objective);
      return;
    }
  }
  FAIL() << "warm reoptimize never reached optimality";
}

}  // namespace
}  // namespace fpva::lp

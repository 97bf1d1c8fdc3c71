// Tests for the MILP presolve/propagation layer (ilp/presolve.h).
#include <gtest/gtest.h>

#include "ilp/branch_and_bound.h"
#include "ilp/model.h"
#include "ilp/presolve.h"

namespace fpva::ilp {
namespace {

TEST(PropagatorTest, TightensIntegerBoundsFromSingleConstraint) {
  Model model;
  const int x = model.add_integer(0.0, 10.0, 0.0);
  const int y = model.add_integer(0.0, 10.0, 0.0);
  // 2x + 3y <= 7  =>  x <= 3, y <= 2.
  model.add_constraint({{x, 2.0}, {y, 3.0}}, lp::Sense::kLessEqual, 7.0);
  Propagator propagator(model);
  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {10.0, 10.0};
  ASSERT_TRUE(propagator.propagate(lower, upper, {}));
  EXPECT_DOUBLE_EQ(upper[0], 3.0);
  EXPECT_DOUBLE_EQ(upper[1], 2.0);
}

TEST(PropagatorTest, FixesImpliedBinaries) {
  Model model;
  const int a = model.add_binary(0.0);
  const int b = model.add_binary(0.0);
  // a + b >= 2 forces both to 1.
  model.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kGreaterEqual, 2.0);
  Propagator propagator(model);
  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0};
  ASSERT_TRUE(propagator.propagate(lower, upper, {}));
  EXPECT_DOUBLE_EQ(lower[0], 1.0);
  EXPECT_DOUBLE_EQ(lower[1], 1.0);
}

TEST(PropagatorTest, DetectsInfeasibility) {
  Model model;
  const int a = model.add_binary(0.0);
  const int b = model.add_binary(0.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kGreaterEqual, 3.0);
  Propagator propagator(model);
  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0};
  EXPECT_FALSE(propagator.propagate(lower, upper, {}));
}

TEST(PropagatorTest, SeededPropagationCascades) {
  Model model;
  const int a = model.add_binary(0.0);
  const int b = model.add_binary(0.0);
  const int c = model.add_binary(0.0);
  // b >= a, c >= b: fixing a to 1 cascades through both rows.
  model.add_constraint({{b, 1.0}, {a, -1.0}}, lp::Sense::kGreaterEqual, 0.0);
  model.add_constraint({{c, 1.0}, {b, -1.0}}, lp::Sense::kGreaterEqual, 0.0);
  Propagator propagator(model);
  std::vector<double> lower = {1.0, 0.0, 0.0};  // a branched to 1
  std::vector<double> upper = {1.0, 1.0, 1.0};
  ASSERT_TRUE(propagator.propagate(lower, upper, {a}));
  EXPECT_DOUBLE_EQ(lower[1], 1.0);
  EXPECT_DOUBLE_EQ(lower[2], 1.0);
}

TEST(PresolveTest, FixesAndSubstitutesVariables) {
  Model model;
  const int a = model.add_binary(2.0);
  const int b = model.add_binary(3.0);
  const int c = model.add_binary(5.0);
  // a is forced to 1; the surviving model is over {b, c}.
  model.add_constraint({{a, 1.0}}, lp::Sense::kGreaterEqual, 1.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}},
                       lp::Sense::kGreaterEqual, 2.0);
  const Presolved pres = presolve(model, Propagator(model));
  ASSERT_FALSE(pres.infeasible);
  ASSERT_FALSE(pres.is_identity);
  EXPECT_EQ(pres.stats.variables_fixed, 1);
  EXPECT_EQ(pres.reduced.variable_count(), 2);
  EXPECT_DOUBLE_EQ(pres.objective_offset, 2.0);

  // Restore maps a reduced point back to the original indices.
  const std::vector<double> restored = pres.restore({1.0, 0.0});
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_DOUBLE_EQ(restored[static_cast<std::size_t>(a)], 1.0);
  EXPECT_DOUBLE_EQ(restored[static_cast<std::size_t>(b)], 1.0);
  EXPECT_DOUBLE_EQ(restored[static_cast<std::size_t>(c)], 0.0);
}

TEST(PresolveTest, RemovesSingletonAndRedundantRows) {
  Model model;
  const int x = model.add_integer(0.0, 10.0, 1.0);
  const int y = model.add_integer(0.0, 10.0, 1.0);
  model.add_constraint({{x, 1.0}}, lp::Sense::kLessEqual, 4.0);  // singleton
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kLessEqual,
                       100.0);  // redundant
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGreaterEqual, 3.0);
  const Presolved pres = presolve(model, Propagator(model));
  ASSERT_FALSE(pres.infeasible);
  ASSERT_FALSE(pres.is_identity);
  EXPECT_EQ(pres.stats.rows_removed, 2);
  EXPECT_EQ(pres.reduced.constraint_count(), 1);
  // The singleton row survives as a tightened bound.
  EXPECT_DOUBLE_EQ(pres.reduced.lp().variable(0).upper, 4.0);
}

TEST(PresolveTest, DetectsRootInfeasibility) {
  Model model;
  const int x = model.add_integer(0.0, 1.0, 0.0);
  model.add_constraint({{x, 3.0}}, lp::Sense::kGreaterEqual, 4.0);
  model.add_constraint({{x, 3.0}}, lp::Sense::kLessEqual, 5.0);
  const Presolved pres = presolve(model, Propagator(model));
  EXPECT_TRUE(pres.infeasible);
}

TEST(PresolveTest, IdentityOnTightModels) {
  // A knapsack whose bounds cannot be tightened: presolve should hand the
  // original model back instead of rebuilding it.
  Model model;
  std::vector<lp::Term> weight;
  for (int i = 0; i < 6; ++i) {
    weight.push_back({model.add_binary(-1.0), 2.0});
  }
  model.add_constraint(std::move(weight), lp::Sense::kLessEqual, 7.0);
  const Presolved pres = presolve(model, Propagator(model));
  EXPECT_FALSE(pres.infeasible);
  EXPECT_TRUE(pres.is_identity);
  EXPECT_EQ(pres.reduced.variable_count(), 0);
}

TEST(PresolveTest, FullyFixedModelSolvesWithAndWithoutPresolve) {
  // Constraints pin every variable; the reduced model has zero variables.
  // Both code paths must still report the (trivially optimal) point.
  Model model;
  const int a = model.add_binary(2.0);
  const int b = model.add_binary(-1.0);
  model.add_constraint({{a, 1.0}}, lp::Sense::kGreaterEqual, 1.0);
  model.add_constraint({{b, 1.0}}, lp::Sense::kLessEqual, 0.0);
  for (const bool use_presolve : {true, false}) {
    Options options;
    options.presolve = use_presolve;
    const Result result = solve(model, options);
    ASSERT_EQ(result.status, ResultStatus::kOptimal)
        << "presolve=" << use_presolve;
    EXPECT_DOUBLE_EQ(result.objective, 2.0);
    ASSERT_EQ(result.values.size(), 2u);
    EXPECT_DOUBLE_EQ(result.values[static_cast<std::size_t>(a)], 1.0);
    EXPECT_DOUBLE_EQ(result.values[static_cast<std::size_t>(b)], 0.0);
  }
}

TEST(PresolveTest, ZeroVariableModelIsTriviallyOptimal) {
  // Degenerate but reachable: presolve can hand the search an empty model
  // (every variable fixed). An empty incumbent is still an incumbent.
  Model model;
  for (const bool use_presolve : {true, false}) {
    Options options;
    options.presolve = use_presolve;
    const Result result = solve(model, options);
    EXPECT_EQ(result.status, ResultStatus::kOptimal)
        << "presolve=" << use_presolve;
    EXPECT_DOUBLE_EQ(result.objective, 0.0);
  }
}

TEST(PresolveTest, SolveThroughPresolveMatchesDirectSolve) {
  // End to end: a model with fixings and redundant rows must produce the
  // same optimum with and without the presolve layer.
  Model model;
  const int a = model.add_binary(-3.0);
  const int b = model.add_binary(-2.0);
  const int c = model.add_binary(-1.0);
  model.add_constraint({{a, 1.0}}, lp::Sense::kGreaterEqual, 1.0);  // fix a
  model.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}},
                       lp::Sense::kLessEqual, 2.0);
  Options with_presolve;
  Options without = with_presolve;
  without.presolve = false;
  const Result on = solve(model, with_presolve);
  const Result off = solve(model, without);
  ASSERT_EQ(on.status, ResultStatus::kOptimal);
  ASSERT_EQ(off.status, ResultStatus::kOptimal);
  EXPECT_DOUBLE_EQ(on.objective, off.objective);
  EXPECT_DOUBLE_EQ(on.objective, -5.0);  // a=1 + b=1
  ASSERT_EQ(on.values.size(), 3u);
  EXPECT_NEAR(on.values[static_cast<std::size_t>(a)], 1.0, 1e-9);
}

// ----------------------------------------------------------------- probing

TEST(ProbingTest, UnionTighteningFixesWhatNoSingleRowCan) {
  // z <= x and z <= 1 - x: each row alone leaves z free, but both probe
  // branches force z = 0, so the union fixes it.
  Model model;
  const int x = model.add_binary(0.0);
  const int z = model.add_binary(0.0);
  model.add_constraint({{z, 1.0}, {x, -1.0}}, lp::Sense::kLessEqual, 0.0);
  model.add_constraint({{z, 1.0}, {x, 1.0}}, lp::Sense::kLessEqual, 1.0);
  Propagator propagator(model);
  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0};
  ProbeStats stats;
  ASSERT_TRUE(
      probe_binaries(model, propagator, lower, upper, nullptr, &stats));
  EXPECT_DOUBLE_EQ(upper[static_cast<std::size_t>(z)], 0.0);
  EXPECT_GE(stats.tightenings, 1);
  EXPECT_GE(stats.probed, 1);
}

TEST(ProbingTest, BothBranchesInfeasibleProvesModelInfeasible) {
  // a = b (two inequality rows) plus a + b = 1: no binary assignment works,
  // but no single constraint detects it — probing must.
  Model model;
  const int a = model.add_binary(0.0);
  const int b = model.add_binary(0.0);
  model.add_constraint({{a, 1.0}, {b, -1.0}}, lp::Sense::kLessEqual, 0.0);
  model.add_constraint({{b, 1.0}, {a, -1.0}}, lp::Sense::kLessEqual, 0.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kEqual, 1.0);
  Propagator propagator(model);
  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0};
  EXPECT_FALSE(
      probe_binaries(model, propagator, lower, upper, nullptr, nullptr));
}

TEST(ProbingTest, RecordsImplicationEdges) {
  Model model;
  const int x = model.add_binary(0.0);
  const int y = model.add_binary(0.0);
  const int free = model.add_binary(0.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kLessEqual, 1.0);
  model.add_constraint({{free, 1.0}, {x, 1.0}, {y, 1.0}},
                       lp::Sense::kLessEqual, 2.0);
  Propagator propagator(model);
  std::vector<double> lower = {0.0, 0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0, 1.0};
  std::vector<std::pair<int, int>> implications;
  ProbeStats stats;
  ASSERT_TRUE(
      probe_binaries(model, propagator, lower, upper, &implications, &stats));
  // x = 1 forces y = 0: the edge {x=1, y=1} must be in the list.
  const std::pair<int, int> expected{Lit::make(x, true), Lit::make(y, true)};
  bool found = false;
  for (const auto& edge : implications) {
    found |= edge == expected;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(stats.fixings, 0);
}

// -------------------------------------------------------------- clique table

TEST(CliqueTableTest, ExtractsPackingRowAsMaterializedClique) {
  Model model;
  const int a = model.add_binary(0.0);
  const int b = model.add_binary(0.0);
  const int c = model.add_binary(0.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, lp::Sense::kLessEqual,
                       1.0);
  const std::vector<double> lower = {0.0, 0.0, 0.0};
  const std::vector<double> upper = {1.0, 1.0, 1.0};
  const CliqueTable table = build_clique_table(model, lower, upper);
  ASSERT_EQ(table.cliques.size(), 1u);
  EXPECT_EQ(table.cliques[0].literals.size(), 3u);
  // Identical to the source row: separation must skip it.
  EXPECT_TRUE(table.cliques[0].materialized);
}

TEST(CliqueTableTest, BigMIndicatorRowYieldsComplementCliques) {
  // v1 + v2 - 10 p <= 0 complements to 10 p' + v1 + v2 <= 10: each v
  // conflicts with p' (= "p is 0") but not with the other v.
  Model model;
  const int v1 = model.add_binary(0.0);
  const int v2 = model.add_binary(0.0);
  const int p = model.add_binary(1.0);
  model.add_constraint({{v1, 1.0}, {v2, 1.0}, {p, -10.0}},
                       lp::Sense::kLessEqual, 0.0);
  const std::vector<double> lower = {0.0, 0.0, 0.0};
  const std::vector<double> upper = {1.0, 1.0, 1.0};
  const CliqueTable table = build_clique_table(model, lower, upper);
  ASSERT_EQ(table.cliques.size(), 2u);
  for (const Clique& clique : table.cliques) {
    ASSERT_EQ(clique.literals.size(), 2u);
    EXPECT_FALSE(clique.materialized);  // strictly stronger than the row
    // Every clique pairs some v=1 with p=0.
    EXPECT_TRUE(clique.literals[1] == Lit::make(p, false));
    EXPECT_TRUE(Lit::positive(clique.literals[0]));
  }
}

TEST(CliqueTableTest, MergesPairwiseConflictsAndDropsDominated) {
  // The three edges a-b, a-c, b-c merge into the triangle {a, b, c}; the
  // pair cliques are then dominated and dropped.
  Model model;
  const int a = model.add_binary(0.0);
  const int b = model.add_binary(0.0);
  const int c = model.add_binary(0.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Sense::kLessEqual, 1.0);
  model.add_constraint({{a, 1.0}, {c, 1.0}}, lp::Sense::kLessEqual, 1.0);
  model.add_constraint({{b, 1.0}, {c, 1.0}}, lp::Sense::kLessEqual, 1.0);
  const std::vector<double> lower = {0.0, 0.0, 0.0};
  const std::vector<double> upper = {1.0, 1.0, 1.0};
  const CliqueTable table = build_clique_table(model, lower, upper);
  ASSERT_EQ(table.cliques.size(), 1u);
  EXPECT_EQ(table.cliques[0].literals,
            (std::vector<int>{Lit::make(a, true), Lit::make(b, true),
                              Lit::make(c, true)}));
}

TEST(CliqueTableTest, ChainEqualityYieldsSiteNodeImplications) {
  // The chaining row v1 + v2 - 2c = 0 of the paper's models: its <=
  // reading complements c and produces the v <= c implications.
  Model model;
  const int v1 = model.add_binary(0.0);
  const int v2 = model.add_binary(0.0);
  const int c = model.add_binary(0.0);
  model.add_constraint({{v1, 1.0}, {v2, 1.0}, {c, -2.0}}, lp::Sense::kEqual,
                       0.0);
  const std::vector<double> lower = {0.0, 0.0, 0.0};
  const std::vector<double> upper = {1.0, 1.0, 1.0};
  const CliqueTable table = build_clique_table(model, lower, upper);
  // {v1, c=0} and {v2, c=0}: v can only be crossed on an active node.
  int implication_cliques = 0;
  for (const Clique& clique : table.cliques) {
    if (clique.literals.size() == 2 &&
        clique.literals[1] == Lit::make(c, false)) {
      ++implication_cliques;
    }
  }
  EXPECT_EQ(implication_cliques, 2);
}

TEST(NormalizePackingRowTest, ComplementsAndFoldsFixedVariables) {
  Model model;
  const int a = model.add_binary(0.0);
  const int b = model.add_binary(0.0);
  const int fixed = model.add_binary(0.0);
  const std::vector<lp::Term> terms = {{a, 2.0}, {b, -3.0}, {fixed, 1.0}};
  const std::vector<double> lower = {0.0, 0.0, 1.0};
  const std::vector<double> upper = {1.0, 1.0, 1.0};
  std::vector<PackedTerm> items;
  double rhs = 0.0;
  ASSERT_TRUE(
      normalize_packing_row(model, terms, 4.0, lower, upper, &items, &rhs));
  // 2a - 3b + fixed(=1) <= 4  ->  2a + 3(1-b) <= 4 - 1 + 3 = 6.
  EXPECT_DOUBLE_EQ(rhs, 6.0);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].literal, Lit::make(a, true));
  EXPECT_DOUBLE_EQ(items[0].coefficient, 2.0);
  EXPECT_EQ(items[1].literal, Lit::make(b, false));
  EXPECT_DOUBLE_EQ(items[1].coefficient, 3.0);
}

}  // namespace
}  // namespace fpva::ilp

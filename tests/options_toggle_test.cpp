// Every ilp::Options switch must be toggleable, and toggling must not
// change the optimum — only the route the search takes to it. fpva_lint's
// untested-option rule cross-references each Options field against the test
// tree. The search switches (presolve, conflict learning, backjumping) are
// exercised by the brute-force differentials in ilp_test, warm_row_test and
// conflict_test; this file keeps the seed literals.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "ilp/branch_and_bound.h"
#include "ilp/model.h"

namespace fpva::ilp {
namespace {

TEST(OptionsToggleTest, SeedLiteralsPinProvablyZeroItem) {
  // Knapsack with an item heavier than the capacity: x4 = 0 in every
  // feasible point, so the refutation "x4 >= 1 admits no feasible point"
  // is model-implied — exactly what a truncated solve of this model would
  // export via Result::unit_nogoods. Presolve stays off so the seed index
  // refers to the unreduced variable space and the tightening actually
  // applies (instead of presolve eliminating the variable first).
  Model model;
  const double values[] = {10, 13, 7, 11};
  const double weights[] = {5, 6, 4, 5};
  std::vector<lp::Term> weight_terms;
  for (int i = 0; i < 4; ++i) {
    const int x = model.add_binary(-values[i]);
    weight_terms.push_back({x, weights[i]});
  }
  const int oversized = model.add_binary(-100.0);  // tempting but infeasible
  weight_terms.push_back({oversized, 11.0});
  model.add_constraint(std::move(weight_terms), lp::Sense::kLessEqual, 10.0);

  Options options;
  options.presolve = false;
  options.seed_literals = {{oversized, /*is_lower=*/true, 1.0}};
  const Result seeded = solve(model, options);
  ASSERT_EQ(seeded.status, ResultStatus::kOptimal);
  EXPECT_NEAR(seeded.objective, -21.0, 1e-6);
  EXPECT_NEAR(seeded.values[static_cast<std::size_t>(oversized)], 0.0, 1e-6);
}

}  // namespace
}  // namespace fpva::ilp

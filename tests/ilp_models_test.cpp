#include <gtest/gtest.h>

#include "core/ilp_models.h"
#include "grid/presets.h"

namespace fpva::core {
namespace {

ilp::Options fast_options() {
  ilp::Options options;
  options.time_limit_seconds = 60.0;
  return options;
}

TEST(IlpPathModelTest, TwoByTwoNeedsTwoPaths) {
  // A full 2x2 array has 4 valves; one simple source->sink path covers at
  // most 3 of them (cells are only 4), so the minimum cover is 2 paths.
  const auto array = grid::full_array(2, 2);
  EXPECT_FALSE(solve_flow_path_model(array, 1, fast_options()).has_value());
  const auto result = find_minimum_flow_paths(array, 1, 4, fast_options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->path_budget, 2);
  ASSERT_EQ(result->paths.size(), 2u);
  std::vector<bool> covered(static_cast<std::size_t>(array.valve_count()),
                            false);
  for (const FlowPath& path : result->paths) {
    EXPECT_EQ(validate_flow_path(array, path), std::nullopt);
    for (const grid::ValveId v : path_valves(array, path)) {
      covered[static_cast<std::size_t>(v)] = true;
    }
  }
  for (const bool c : covered) EXPECT_TRUE(c);
}

TEST(IlpPathModelTest, ThreeByThreeOptimalCover) {
  const auto array = grid::full_array(3, 3);
  const auto result = find_minimum_flow_paths(array, 1, 6, fast_options());
  ASSERT_TRUE(result.has_value());
  // 12 valves; a path through k cells covers k+1 sites of which at most
  // k-1... empirically the optimum is 2; assert it stays minimal.
  EXPECT_LE(result->path_budget, 3);
  std::vector<bool> covered(static_cast<std::size_t>(array.valve_count()),
                            false);
  for (const FlowPath& path : result->paths) {
    EXPECT_EQ(validate_flow_path(array, path), std::nullopt);
    for (const grid::ValveId v : path_valves(array, path)) {
      covered[static_cast<std::size_t>(v)] = true;
    }
  }
  for (const bool c : covered) EXPECT_TRUE(c);
}

TEST(IlpCutModelTest, TwoByTwoStaircaseStructure) {
  const auto array = grid::full_array(2, 2);
  const auto result =
      find_minimum_cut_sets(array, 1, 4, /*masking_exclusion=*/true,
                            fast_options());
  ASSERT_TRUE(result.has_value());
  // 2n-2 = 2 staircase cuts are optimal for a full 2x2.
  EXPECT_EQ(result->cut_budget, 2);
  std::vector<bool> covered(static_cast<std::size_t>(array.valve_count()),
                            false);
  for (const CutSet& cut : result->cuts) {
    EXPECT_EQ(validate_cut_set(array, cut), std::nullopt);
    for (const grid::ValveId v : cut_valves(array, cut)) {
      covered[static_cast<std::size_t>(v)] = true;
    }
  }
  for (const bool c : covered) EXPECT_TRUE(c);
}

TEST(IlpPathModelTest, FindMinimumCertifiesTheBudget) {
  const auto array = grid::full_array(2, 2);
  const auto result = find_minimum_flow_paths(array, 1, 4, fast_options());
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->proven_minimal);
  EXPECT_EQ(result->ilp.status, ilp::ResultStatus::kOptimal);
}

TEST(IlpCutModelTest, MaskingExclusionStillFeasible) {
  const auto array = grid::full_array(2, 2);
  const auto with = find_minimum_cut_sets(array, 1, 4, true, fast_options());
  ASSERT_TRUE(with.has_value());
  const auto without =
      find_minimum_cut_sets(array, 1, 4, false, fast_options());
  ASSERT_TRUE(without.has_value());
  // Constraint (9) can only restrict the feasible set.
  EXPECT_GE(with->cut_budget, without->cut_budget);
}

TEST(IlpCutModelTest, PresolveOptionReachesTheChainModels) {
  // find_minimum_* hands the model to ilp::solve with the caller's options,
  // so presolve runs there (once) and reports its reductions; switching it
  // off removes them without changing the certified minimum.
  const auto array = grid::full_array(3, 3);
  ilp::Options off = fast_options();
  off.presolve = false;
  const auto with = find_minimum_cut_sets(array, 1, 8, true, fast_options());
  const auto without = find_minimum_cut_sets(array, 1, 8, true, off);
  ASSERT_TRUE(with.has_value());
  ASSERT_TRUE(without.has_value());
  EXPECT_TRUE(with->proven_minimal);
  EXPECT_TRUE(without->proven_minimal);
  EXPECT_EQ(with->cut_budget, without->cut_budget);
  const ilp::PresolveStats& on_stats = with->ilp.presolve_stats;
  EXPECT_GT(on_stats.bounds_tightened + on_stats.variables_fixed +
                on_stats.rows_removed,
            0);
  const ilp::PresolveStats& off_stats = without->ilp.presolve_stats;
  EXPECT_EQ(off_stats.bounds_tightened, 0);
  EXPECT_EQ(off_stats.variables_fixed, 0);
  EXPECT_EQ(off_stats.rows_removed, 0);
}

}  // namespace
}  // namespace fpva::core

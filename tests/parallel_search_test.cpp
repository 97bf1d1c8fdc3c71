// Determinism and cancellation tests for the parallel search layers:
//
//  * subtree parallelism in ilp::solve (Options.threads) must reach the
//    serial optimum at every thread count, and threads == 1 must stay
//    bit-identical to the default serial solver — same nodes, pivots,
//    conflict counters, values;
//  * concurrent III-B-3 budget escalation (Options.escalation_threads)
//    must reproduce the serial stage sequence exactly — same per-stage
//    status/node/pivot/conflict counters, same certificate — because the
//    parallel pre-solve only substitutes for a serial stage when it ran
//    the identical (budget, floor) model to completion;
//  * stop tokens cancel both layers promptly without leaking threads
//    (the TSan CI leg runs this binary).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stop.h"
#include "core/ilp_models.h"
#include "grid/presets.h"
#include "ilp/branch_and_bound.h"
#include "ilp/model.h"
#include "random_mip.h"

namespace fpva {
namespace {

using test_support::random_mip;

/// A model whose tree is too large to finish within the cancellation
/// tests' grace period: the parity row 2 * sum x = 25 has no integer
/// point, but every node LP that fixes at most 12 binaries to each value
/// is feasible at sum x = 12.5. Single-row propagation, probing and the root
/// clique/cover cuts see nothing to tighten, so the default search has to
/// enumerate tens of thousands of nodes to refute it.
ilp::Model slow_model() {
  ilp::Model model;
  std::vector<lp::Term> sum;
  for (int i = 0; i < 25; ++i) {
    sum.push_back({model.add_binary(-1.0), 2.0});
  }
  model.add_constraint(std::move(sum), lp::Sense::kEqual, 25.0);
  return model;
}

TEST(ParallelBnbTest, SameOptimumAcrossThreadCounts) {
  for (int instance = 0; instance < 6; ++instance) {
    common::Rng rng(static_cast<std::uint64_t>(instance) * 7919 + 11);
    const ilp::Model model = random_mip(rng);
    ilp::Options serial;
    serial.objective_is_integral = true;
    const ilp::Result reference = ilp::solve(model, serial);
    ASSERT_EQ(reference.status, ilp::ResultStatus::kOptimal) << instance;
    for (const int threads : {2, 4, 8}) {
      ilp::Options options = serial;
      options.threads = threads;
      const ilp::Result result = ilp::solve(model, options);
      ASSERT_EQ(result.status, ilp::ResultStatus::kOptimal)
          << instance << " @" << threads;
      // Integral objectives: the optima must agree bit-for-bit even
      // though node order (and the incumbent point) may differ.
      EXPECT_EQ(result.objective, reference.objective)
          << instance << " @" << threads;
      EXPECT_TRUE(model.is_feasible(result.values, 1e-6))
          << instance << " @" << threads;
      EXPECT_EQ(result.threads_used, threads) << instance;
    }
  }
}

TEST(ParallelBnbTest, HardwareThreadCountResolvesAndSolves) {
  common::Rng rng(2017);
  const ilp::Model model = random_mip(rng);
  ilp::Options serial;
  serial.objective_is_integral = true;
  const ilp::Result reference = ilp::solve(model, serial);
  ilp::Options options = serial;
  options.threads = 0;  // hardware concurrency
  const ilp::Result result = ilp::solve(model, options);
  ASSERT_EQ(result.status, reference.status);
  EXPECT_EQ(result.objective, reference.objective);
  EXPECT_GE(result.threads_used, 1);
}

TEST(ParallelBnbTest, OneThreadBitIdenticalToSerialDefault) {
  // threads == 1 must route through the serial search untouched: every
  // counter of the Result bit-identical to the default configuration.
  for (int instance = 0; instance < 4; ++instance) {
    common::Rng rng(static_cast<std::uint64_t>(instance) * 104729 + 3);
    const ilp::Model model = random_mip(rng);
    ilp::Options defaults;
    defaults.objective_is_integral = true;
    ilp::Options explicit_one = defaults;
    explicit_one.threads = 1;
    explicit_one.escalation_threads = 1;
    explicit_one.stop = common::StopToken();  // empty token, never trips
    const ilp::Result a = ilp::solve(model, defaults);
    const ilp::Result b = ilp::solve(model, explicit_one);
    ASSERT_EQ(a.status, b.status) << instance;
    EXPECT_EQ(a.objective, b.objective) << instance;
    EXPECT_EQ(a.nodes, b.nodes) << instance;
    EXPECT_EQ(a.lp_pivots, b.lp_pivots) << instance;
    EXPECT_EQ(a.nodes_pruned_by_propagation, b.nodes_pruned_by_propagation)
        << instance;
    EXPECT_EQ(a.conflicts, b.conflicts) << instance;
    EXPECT_EQ(a.nogoods_learned, b.nogoods_learned) << instance;
    EXPECT_EQ(a.nogoods_deleted, b.nogoods_deleted) << instance;
    EXPECT_EQ(a.backjumps, b.backjumps) << instance;
    EXPECT_EQ(a.backjump_nodes_skipped, b.backjump_nodes_skipped) << instance;
    EXPECT_EQ(a.lp_refactorizations, b.lp_refactorizations) << instance;
    EXPECT_EQ(a.lp_basis_updates, b.lp_basis_updates) << instance;
    ASSERT_EQ(a.values.size(), b.values.size()) << instance;
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      EXPECT_EQ(a.values[i], b.values[i]) << instance << " value " << i;
    }
    // The serial path must never touch the parallel machinery.
    EXPECT_EQ(b.threads_used, 1) << instance;
    EXPECT_EQ(b.nogoods_imported, 0) << instance;
    EXPECT_EQ(b.subtrees_donated, 0) << instance;
  }
}

TEST(ParallelBnbTest, PreTrippedStopTokenStopsPromptly) {
  const ilp::Model model = slow_model();
  for (const int threads : {1, 4}) {
    common::StopSource source;
    source.request_stop();
    ilp::Options options;
    options.threads = threads;
    options.stop = source.token();
    const ilp::Result result = ilp::solve(model, options);
    // The search winds down like a time limit: maybe a rounded incumbent,
    // never a certificate.
    EXPECT_TRUE(result.status == ilp::ResultStatus::kFeasible ||
                result.status == ilp::ResultStatus::kUnknown)
        << threads;
    EXPECT_LE(result.nodes, threads) << threads;
  }
}

TEST(ParallelBnbTest, MidRunCancellationWindsDown) {
  const ilp::Model model = slow_model();
  for (const int threads : {1, 4}) {
    common::StopSource source;
    ilp::Options options;
    options.threads = threads;
    options.stop = source.token();
    options.max_nodes = 500000;  // safety net if cancellation regresses
    std::thread canceller([&source] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      source.request_stop();
    });
    const ilp::Result result = ilp::solve(model, options);
    canceller.join();
    EXPECT_TRUE(result.status == ilp::ResultStatus::kFeasible ||
                result.status == ilp::ResultStatus::kUnknown)
        << threads;
    EXPECT_LT(result.nodes, options.max_nodes) << threads;
  }
}

void expect_same_stages(const std::vector<core::BudgetStage>& actual,
                        const std::vector<core::BudgetStage>& expected,
                        int escalation_threads) {
  ASSERT_EQ(actual.size(), expected.size()) << "@" << escalation_threads;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "stage " << i << " @"
                                    << escalation_threads << " threads");
    EXPECT_EQ(actual[i].budget, expected[i].budget);
    EXPECT_EQ(actual[i].status, expected[i].status);
    EXPECT_EQ(actual[i].nodes, expected[i].nodes);
    EXPECT_EQ(actual[i].lp_pivots, expected[i].lp_pivots);
    EXPECT_EQ(actual[i].conflicts, expected[i].conflicts);
    EXPECT_EQ(actual[i].nogoods_learned, expected[i].nogoods_learned);
    EXPECT_EQ(actual[i].backjumps, expected[i].backjumps);
  }
}

TEST(ParallelEscalationTest, CutSetStagesIdenticalAcrossThreadCounts) {
  // The concurrent escalation must replay the exact serial stage
  // sequence: speculative pinned stages only substitute when every
  // smaller budget refuted, which on this instance is always true.
  // (Full 3x3: budgets 1-3 refuted, 4 feasible — four stages.)
  const auto array = grid::full_array(3, 3);
  ilp::Options serial;
  serial.time_limit_seconds = 120.0;
  const auto reference =
      core::find_minimum_cut_sets(array, 1, 6, /*masking_exclusion=*/true,
                                  serial);
  ASSERT_TRUE(reference.has_value());
  ASSERT_TRUE(reference->proven_minimal);
  for (const int threads : {2, 4, 8}) {
    ilp::Options options = serial;
    options.escalation_threads = threads;
    const auto result =
        core::find_minimum_cut_sets(array, 1, 6, true, options);
    ASSERT_TRUE(result.has_value()) << threads;
    EXPECT_EQ(result->cut_budget, reference->cut_budget) << threads;
    EXPECT_EQ(result->proven_minimal, reference->proven_minimal) << threads;
    EXPECT_EQ(result->cuts.size(), reference->cuts.size()) << threads;
    expect_same_stages(result->stages, reference->stages, threads);
    // Whole-escalation accumulators fold the same stage sums.
    EXPECT_EQ(result->ilp.nodes, reference->ilp.nodes) << threads;
    EXPECT_EQ(result->ilp.lp_pivots, reference->ilp.lp_pivots) << threads;
    EXPECT_EQ(result->ilp.conflicts, reference->ilp.conflicts) << threads;
    EXPECT_EQ(result->ilp.nogoods_learned, reference->ilp.nogoods_learned)
        << threads;
    EXPECT_EQ(result->ilp.backjumps, reference->ilp.backjumps) << threads;
    EXPECT_EQ(result->ilp.lp_refactorizations,
              reference->ilp.lp_refactorizations)
        << threads;
    EXPECT_EQ(result->ilp.lp_basis_updates, reference->ilp.lp_basis_updates)
        << threads;
  }
}

TEST(ParallelEscalationTest, FlowPathStagesIdenticalAcrossThreadCounts) {
  const auto array = grid::full_array(3, 3);
  ilp::Options serial;
  const auto reference = core::find_minimum_flow_paths(array, 1, 6, serial);
  ASSERT_TRUE(reference.has_value());
  for (const int threads : {4}) {
    ilp::Options options = serial;
    options.escalation_threads = threads;
    const auto result = core::find_minimum_flow_paths(array, 1, 6, options);
    ASSERT_TRUE(result.has_value()) << threads;
    EXPECT_EQ(result->path_budget, reference->path_budget) << threads;
    EXPECT_EQ(result->proven_minimal, reference->proven_minimal) << threads;
    expect_same_stages(result->stages, reference->stages, threads);
    EXPECT_EQ(result->ilp.nodes, reference->ilp.nodes) << threads;
    EXPECT_EQ(result->ilp.lp_pivots, reference->ilp.lp_pivots) << threads;
  }
}

TEST(ParallelEscalationTest, StageAndSubtreeParallelismCompose) {
  // Both layers on at once: counters are scheduling-dependent, but the
  // certified minimum must not move.
  const auto array = grid::full_array(3, 3);
  ilp::Options serial;
  const auto reference =
      core::find_minimum_cut_sets(array, 1, 6, true, serial);
  ASSERT_TRUE(reference.has_value());
  ilp::Options options;
  options.threads = 2;
  options.escalation_threads = 2;
  const auto result = core::find_minimum_cut_sets(array, 1, 6, true, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cut_budget, reference->cut_budget);
  EXPECT_EQ(result->proven_minimal, reference->proven_minimal);
  ASSERT_EQ(result->stages.size(), reference->stages.size());
  for (std::size_t i = 0; i < result->stages.size(); ++i) {
    EXPECT_EQ(result->stages[i].status, reference->stages[i].status) << i;
  }
}

TEST(ParallelEscalationTest, PreTrippedStopTokenReturnsNothing) {
  const auto array = grid::full_array(3, 3);
  for (const int threads : {1, 4}) {
    common::StopSource source;
    source.request_stop();
    ilp::Options options;
    options.escalation_threads = threads;
    options.stop = source.token();
    const auto result = core::find_minimum_cut_sets(array, 1, 6, true,
                                                    options);
    EXPECT_FALSE(result.has_value()) << threads;
  }
}

}  // namespace
}  // namespace fpva

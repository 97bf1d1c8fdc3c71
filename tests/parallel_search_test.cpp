// Determinism and cancellation tests for the parallel tree search:
//
//  * subtree parallelism in ilp::solve (Options.threads) must reach the
//    serial optimum at every thread count, and threads == 1 must stay
//    bit-identical to the default serial solver — same nodes, pivots,
//    conflict counters, values;
//  * the III-B-3 budget escalation in find_minimum_* runs its stages in
//    budget order, each a `threads`-worker search, so every thread count
//    must certify the same minimum through the same stage statuses;
//  * stop tokens cancel the search and the escalation promptly without
//    leaking threads (the TSan CI leg runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
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
    ilp::Options explicit_one = defaults;
    explicit_one.threads = 1;
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

/// Same stage budgets and statuses, in order; counters may differ, since
/// a multi-threaded search schedules its nodes differently.
void expect_same_stage_statuses(const std::vector<core::BudgetStage>& actual,
                                const std::vector<core::BudgetStage>& expected,
                                int threads) {
  ASSERT_EQ(actual.size(), expected.size()) << "@" << threads;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].budget, expected[i].budget) << i << " @" << threads;
    EXPECT_EQ(actual[i].status, expected[i].status) << i << " @" << threads;
  }
}

TEST(ParallelEscalationTest, CertifiedMinimumSameAcrossThreadCounts) {
  // Full 3x3: cut budgets 1-3 refuted, 4 feasible.
  const auto array = grid::full_array(3, 3);
  const ilp::Options serial;
  const auto cut_reference =
      core::find_minimum_cut_sets(array, 1, 6, /*masking_exclusion=*/true,
                                  serial);
  const auto path_reference =
      core::find_minimum_flow_paths(array, 1, 6, serial);
  ASSERT_TRUE(cut_reference.has_value());
  ASSERT_TRUE(cut_reference->proven_minimal);
  ASSERT_TRUE(path_reference.has_value());
  for (const int threads : {2, 4}) {
    ilp::Options options = serial;
    options.threads = threads;
    const auto cut = core::find_minimum_cut_sets(array, 1, 6, true, options);
    ASSERT_TRUE(cut.has_value()) << threads;
    EXPECT_EQ(cut->cut_budget, cut_reference->cut_budget) << threads;
    EXPECT_EQ(cut->proven_minimal, cut_reference->proven_minimal) << threads;
    expect_same_stage_statuses(cut->stages, cut_reference->stages, threads);
    const auto path = core::find_minimum_flow_paths(array, 1, 6, options);
    ASSERT_TRUE(path.has_value()) << threads;
    EXPECT_EQ(path->path_budget, path_reference->path_budget) << threads;
    EXPECT_EQ(path->proven_minimal, path_reference->proven_minimal)
        << threads;
    expect_same_stage_statuses(path->stages, path_reference->stages,
                               threads);
  }
}

TEST(ParallelEscalationTest, PreTrippedStopTokenReturnsNothing) {
  const auto array = grid::full_array(3, 3);
  for (const int threads : {1, 4}) {
    common::StopSource source;
    source.request_stop();
    ilp::Options options;
    options.threads = threads;
    options.stop = source.token();
    const auto result = core::find_minimum_cut_sets(array, 1, 6, true,
                                                    options);
    EXPECT_FALSE(result.has_value()) << threads;
  }
}

TEST(ParallelEscalationTest, MidRunStopReturnsPromptly) {
  // The full 5x5 cut-set escalation takes seconds, so every trip below
  // lands mid-run: the escalation must give up its certificate and return
  // within the grace period of the trip.
  using Clock = std::chrono::steady_clock;
  constexpr auto kGrace = std::chrono::seconds(2);
  const auto array = grid::full_array(5, 5);
  Clock::duration worst{};
  for (const int threads : {1, 4}) {
    for (const int delay_ms : {20, 80, 200, 500}) {
      common::StopSource source;
      ilp::Options options;
      options.threads = threads;
      options.stop = source.token();
      Clock::time_point tripped_at;
      std::thread canceller([&source, &tripped_at, delay_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        tripped_at = Clock::now();
        source.request_stop();
      });
      const auto result = core::find_minimum_cut_sets(
          array, 1, 10, /*masking_exclusion=*/true, options);
      const Clock::time_point returned_at = Clock::now();
      canceller.join();
      EXPECT_TRUE(!result || !result->proven_minimal)
          << threads << " threads, " << delay_ms << " ms";
      const Clock::duration latency = returned_at - tripped_at;
      EXPECT_LT(latency, kGrace) << threads << " threads, " << delay_ms
                                 << " ms";
      worst = std::max(worst, latency);
    }
  }
  std::printf("max escalation stop latency: %.1f ms\n",
              std::chrono::duration<double, std::milli>(worst).count());
}

}  // namespace
}  // namespace fpva

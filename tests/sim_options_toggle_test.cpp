// Every sim::CampaignOptions and sim::diagnosis::Options knob must be
// toggleable, and toggling must keep the engines on their contracts (batch
// == scalar, adaptive == static where promised). fpva_lint's
// untested-option rule cross-references each field of both structs against
// the test tree; this file is where the simulation-side fields get their
// mandated exercise.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/campaign.h"
#include "sim/control_topology.h"
#include "sim/coverage.h"
#include "sim/diagnosis/adaptive.h"
#include "sim/simulator.h"

namespace fpva::sim {
namespace {

std::vector<TestVector> weak_vector_set(const Simulator& simulator) {
  TestVector vector;
  vector.states = ValveStates(
      static_cast<std::size_t>(simulator.array().valve_count()), true);
  vector.expected = simulator.expected(vector.states);
  return {vector};
}

TEST(SimOptionsToggleTest, DegradedProbabilityExtremes) {
  // At probability 1 every single-valve draw is a degraded-flow fault; at 0
  // none is (and the stream matches the historical two-arg draw).
  const auto array = grid::table1_array(5);
  common::Rng all(campaign_trial_seed(7, 3, 0));
  for (const Fault& fault : draw_fault_set(all, array, 3, {}, 0.5, 1.0)) {
    EXPECT_EQ(fault.type, FaultType::kDegradedFlow) << to_string(fault);
  }
  common::Rng none(campaign_trial_seed(7, 3, 0));
  for (const Fault& fault : draw_fault_set(none, array, 3, {}, 0.5, 0.0)) {
    EXPECT_NE(fault.type, FaultType::kDegradedFlow) << to_string(fault);
  }
}

TEST(SimOptionsToggleTest, DegradedProbabilityLowersDetection) {
  // A lone degraded valve is meter-invisible, so mixing degraded faults
  // into a single-fault campaign can only lower the detection count.
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  const auto set = core::generate_test_set(array);
  CampaignOptions clean;
  clean.trials_per_count = 500;
  clean.min_faults = 1;
  clean.max_faults = 1;
  CampaignOptions degraded = clean;
  degraded.degraded_probability = 1.0;
  const auto without = run_campaign(simulator, set.vectors, clean);
  const auto with = run_campaign(simulator, set.vectors, degraded);
  ASSERT_EQ(with.rows.size(), 1u);
  EXPECT_LT(with.rows[0].detected, without.rows[0].detected);
  EXPECT_EQ(with.rows[0].set_cardinality, 1);
}

TEST(SimOptionsToggleTest, StuckAt1ProbabilityExtremes) {
  const auto array = grid::table1_array(5);
  common::Rng rng(11);
  for (const Fault& fault : draw_fault_set(rng, array, 4, {}, 1.0, 0.0)) {
    EXPECT_EQ(fault.type, FaultType::kStuckAt1) << to_string(fault);
  }
  for (const Fault& fault : draw_fault_set(rng, array, 4, {}, 0.0, 0.0)) {
    EXPECT_EQ(fault.type, FaultType::kStuckAt0) << to_string(fault);
  }
  // And through the campaign: with the probability pinned to 0, every
  // undetected sample is stuck-at-0 only.
  const Simulator simulator(array);
  CampaignOptions options;
  options.trials_per_count = 100;
  options.min_faults = 2;
  options.max_faults = 2;
  options.stuck_at_1_probability = 0.0;
  const auto result = run_campaign(simulator, {}, options);
  for (const auto& faults : result.rows[0].undetected_samples) {
    for (const Fault& fault : faults) {
      EXPECT_EQ(fault.type, FaultType::kStuckAt0) << to_string(fault);
    }
  }
}

TEST(SimOptionsToggleTest, LeakPairsRestrictTheDraw) {
  // With an explicit leak_pairs list, every drawn leak comes from it.
  const auto array = grid::table1_array(5);
  const auto all_pairs = control_leak_pairs(array);
  ASSERT_GT(all_pairs.size(), 2u);
  const std::vector<LeakPair> restricted = {all_pairs[0], all_pairs[1]};
  common::Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    for (const Fault& fault :
         draw_fault_set(rng, array, 2, restricted, 0.5, 0.0)) {
      if (fault.type != FaultType::kControlLeak) continue;
      const LeakPair pair{fault.valve, fault.partner};
      EXPECT_NE(std::find(restricted.begin(), restricted.end(), pair),
                restricted.end())
          << to_string(fault);
    }
  }
}

TEST(SimOptionsToggleTest, MaxUndetectedKeptCapsSamples) {
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  CampaignOptions options;
  options.trials_per_count = 300;
  options.min_faults = 2;
  options.max_faults = 2;
  options.max_undetected_kept = 3;
  // No vectors: every trial goes undetected, yet only 3 samples are kept.
  const auto result = run_campaign(simulator, {}, options);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].detected, 0);
  EXPECT_EQ(result.rows[0].undetected_samples.size(), 3u);
}

TEST(SimOptionsToggleTest, SeedSelectsTheTrialStreams) {
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  const auto vectors = weak_vector_set(simulator);
  CampaignOptions options;
  options.trials_per_count = 400;
  options.max_faults = 2;
  options.include_control_leaks = true;
  const auto base = run_campaign(simulator, vectors, options);
  options.seed += 1;
  const auto shifted = run_campaign(simulator, vectors, options);
  // Same shape, different draws (identical counts for every row would mean
  // the seed is ignored; detection counts differ for at least one row).
  ASSERT_EQ(base.rows.size(), shifted.rows.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < base.rows.size(); ++i) {
    EXPECT_EQ(base.rows[i].trials, shifted.rows[i].trials);
    any_difference = any_difference ||
                     base.rows[i].detected != shifted.rows[i].detected ||
                     base.rows[i].undetected_samples !=
                         shifted.rows[i].undetected_samples;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SimOptionsToggleTest, MinFaultsSkipsLowCardinalities) {
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  const auto vectors = weak_vector_set(simulator);
  CampaignOptions options;
  options.trials_per_count = 100;
  options.min_faults = 3;
  options.max_faults = 4;
  const auto result = run_campaign(simulator, vectors, options);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].fault_count, 3);
  EXPECT_EQ(result.rows[0].set_cardinality, 3);
  EXPECT_EQ(result.rows[1].fault_count, 4);
  EXPECT_EQ(result.rows[1].set_cardinality, 4);
}

// --------------------------------------------- diagnosis::Options toggles

std::vector<FaultScenario> stuck_hypotheses(
    const grid::ValveArray& array) {
  std::vector<FaultScenario> universe;
  for (const Fault& fault : single_stuck_fault_universe(array)) {
    universe.push_back({fault});
  }
  return universe;
}

TEST(SimOptionsToggleTest, DiagnosisPolicyToggle) {
  // kStaticOrder applies the whole program in input order; kInfoGain is
  // free to reorder and stop early but must end with the same surviving
  // set for the same truth.
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  diagnosis::Options fixed;
  fixed.policy = diagnosis::Policy::kStaticOrder;
  diagnosis::Options greedy;
  greedy.policy = diagnosis::Policy::kInfoGain;
  diagnosis::AdaptiveDiagnoser a(array, set.vectors,
                                 stuck_hypotheses(array), fixed);
  diagnosis::AdaptiveDiagnoser b(array, set.vectors,
                                 stuck_hypotheses(array), greedy);
  for (const auto& truth : a.universe()) {
    const auto fixed_run = a.run(truth);
    const auto greedy_run = b.run(truth);
    ASSERT_EQ(fixed_run.tests_applied(),
              static_cast<int>(set.vectors.size()))
        << to_string(truth);
    for (int t = 0; t < fixed_run.tests_applied(); ++t) {
      EXPECT_EQ(fixed_run.applied[static_cast<std::size_t>(t)].vector_index,
                t);
    }
    EXPECT_LT(greedy_run.tests_applied(), fixed_run.tests_applied())
        << to_string(truth);
    EXPECT_EQ(fixed_run.surviving, greedy_run.surviving) << to_string(truth);
  }
}

TEST(SimOptionsToggleTest, DiagnosisThreadsToggle) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  diagnosis::Options serial;
  serial.threads = 1;
  diagnosis::Options parallel;
  parallel.threads = 4;
  diagnosis::AdaptiveDiagnoser a(array, set.vectors,
                                 stuck_hypotheses(array), serial);
  diagnosis::AdaptiveDiagnoser b(array, set.vectors,
                                 stuck_hypotheses(array), parallel);
  for (const auto& truth : a.universe()) {
    const auto x = a.run(truth);
    const auto y = b.run(truth);
    ASSERT_EQ(x.tests_applied(), y.tests_applied()) << to_string(truth);
    ASSERT_EQ(x.surviving, y.surviving) << to_string(truth);
  }
  EXPECT_EQ(a.cache_nodes(), b.cache_nodes());
}

TEST(SimOptionsToggleTest, DiagnosisStopTokenToggle) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  common::StopSource source;
  diagnosis::Options options;
  options.stop = source.token();
  diagnosis::AdaptiveDiagnoser diagnoser(array, set.vectors,
                                         stuck_hypotheses(array), options);
  const auto before = diagnoser.run(diagnoser.universe()[0]);
  EXPECT_FALSE(before.interrupted);
  source.request_stop();
  const auto after = diagnoser.run(diagnoser.universe()[0]);
  EXPECT_TRUE(after.interrupted);
}

}  // namespace
}  // namespace fpva::sim

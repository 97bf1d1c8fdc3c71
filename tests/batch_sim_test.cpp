// Differential and determinism tests for the bit-parallel batch engine:
// BatchSimulator and the campaign paths built on it must agree bit-for-bit
// with the scalar Simulator oracle on every array shape and fault mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/check.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/stop.h"
#include "core/generator.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "sim/batch.h"
#include "sim/campaign.h"
#include "sim/control_topology.h"
#include "sim/coverage.h"

namespace fpva::sim {
namespace {

using grid::Cell;
using grid::Site;

std::vector<grid::ValveArray> test_arrays() {
  std::vector<grid::ValveArray> arrays;
  arrays.push_back(grid::full_array(1, 3));
  arrays.push_back(grid::full_array(4, 4));
  arrays.push_back(grid::full_array(3, 9));
  arrays.push_back(grid::table1_array(5));
  arrays.push_back(grid::LayoutBuilder(6, 6)
                       .channel_run(Site{5, 4}, Site{5, 8})
                       .obstacle_rect(Cell{1, 1}, Cell{2, 2})
                       .default_ports()
                       .build());
  arrays.push_back(grid::LayoutBuilder(5, 5)
                       .port(Site{1, 0}, grid::PortKind::kSource, "src")
                       .port(Site{9, 10}, grid::PortKind::kSink, "m1")
                       .port(Site{10, 9}, grid::PortKind::kSink, "m2")
                       .build());
  return arrays;
}

/// Random commanded states for one vector.
ValveStates random_states(common::Rng& rng, const grid::ValveArray& array) {
  ValveStates states(static_cast<std::size_t>(array.valve_count()));
  for (std::size_t v = 0; v < states.size(); ++v) {
    states[v] = rng.next_bool(0.7);  // bias open so flow reaches sinks
  }
  return states;
}

TEST(BatchSimulatorTest, ActiveMask) {
  EXPECT_EQ(BatchSimulator::active_mask(0), 0u);
  EXPECT_EQ(BatchSimulator::active_mask(1), 1u);
  EXPECT_EQ(BatchSimulator::active_mask(5), 0x1fu);
  EXPECT_EQ(BatchSimulator::active_mask(64), ~0ULL);
}

TEST(BatchSimulatorTest, DifferentialReadingsAgainstScalarOracle) {
  common::Rng rng(42);
  for (const grid::ValveArray& array : test_arrays()) {
    const Simulator scalar(array);
    const BatchSimulator batch(array);
    const auto leak_pairs = control_leak_pairs(array);
    // 4 random vectors x full 64-lane batches of random fault scenarios.
    for (int round = 0; round < 4; ++round) {
      const ValveStates states = random_states(rng, array);
      std::vector<FaultScenario> scenarios;
      for (int lane = 0; lane < BatchSimulator::kLanes; ++lane) {
        const int k = 1 + static_cast<int>(rng.next_below(5));
        scenarios.push_back(draw_fault_set(
            rng, array, std::min(k, array.valve_count() / 2), leak_pairs,
            0.5));
      }
      const auto words = batch.readings(states, scenarios);
      ASSERT_EQ(words.size(), static_cast<std::size_t>(batch.sink_count()));
      for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
        const auto expected = scalar.readings(states, scenarios[lane]);
        for (std::size_t s = 0; s < words.size(); ++s) {
          ASSERT_EQ(((words[s] >> lane) & 1) != 0, expected[s])
              << "lane " << lane << " sink " << s << " faults "
              << to_string(scenarios[lane]);
        }
      }
    }
  }
}

TEST(BatchSimulatorTest, DifferentialWithDegradedFaults) {
  // Same sweep with degraded-flow faults mixed in: the two-word flood of
  // flood_degraded() must agree with the scalar weak/full-level BFS.
  common::Rng rng(1717);
  for (const grid::ValveArray& array : test_arrays()) {
    const Simulator scalar(array);
    const BatchSimulator batch(array);
    const auto leak_pairs = control_leak_pairs(array);
    for (int round = 0; round < 4; ++round) {
      const ValveStates states = random_states(rng, array);
      std::vector<FaultScenario> scenarios;
      for (int lane = 0; lane < BatchSimulator::kLanes; ++lane) {
        const int k = 1 + static_cast<int>(rng.next_below(5));
        scenarios.push_back(draw_fault_set(
            rng, array, std::min(k, array.valve_count() / 2), leak_pairs,
            0.5, 0.5));
      }
      const auto words = batch.readings(states, scenarios);
      for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
        const auto expected = scalar.readings(states, scenarios[lane]);
        for (std::size_t s = 0; s < words.size(); ++s) {
          ASSERT_EQ(((words[s] >> lane) & 1) != 0, expected[s])
              << "lane " << lane << " sink " << s << " faults "
              << to_string(scenarios[lane]);
        }
      }
    }
  }
}

TEST(BatchSimulatorTest, MixedDegradedAndCleanLanesStayIndependent) {
  // One degraded lane must not perturb its 63 neighbors: run a batch where
  // only lane 17 carries degraded faults and compare every lane scalar-wise.
  const auto array = grid::table1_array(5);
  const Simulator scalar(array);
  const BatchSimulator batch(array);
  common::Rng rng(5150);
  const ValveStates states = random_states(rng, array);
  std::vector<FaultScenario> scenarios;
  for (int lane = 0; lane < BatchSimulator::kLanes; ++lane) {
    scenarios.push_back(
        draw_fault_set(rng, array, 2, {}, 0.5,
                       lane == 17 ? 1.0 : 0.0));
  }
  const auto words = batch.readings(states, scenarios);
  for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
    const auto expected = scalar.readings(states, scenarios[lane]);
    for (std::size_t s = 0; s < words.size(); ++s) {
      ASSERT_EQ(((words[s] >> lane) & 1) != 0, expected[s])
          << "lane " << lane << " sink " << s;
    }
  }
}

TEST(BatchSimulatorTest, DetectLanesMatchesScalarDetects) {
  common::Rng rng(7);
  for (const grid::ValveArray& array : test_arrays()) {
    const Simulator scalar(array);
    const BatchSimulator batch(array);
    TestVector vector;
    vector.states = random_states(rng, array);
    vector.expected = scalar.expected(vector.states);
    std::vector<FaultScenario> scenarios;
    for (int lane = 0; lane < 40; ++lane) {
      scenarios.push_back(
          draw_fault_set(rng, array, 1 + static_cast<int>(rng.next_below(2)),
                         {}, 0.5));
    }
    const auto detected = batch.detect_lanes(vector, scenarios);
    EXPECT_EQ(detected & ~BatchSimulator::active_mask(scenarios.size()), 0u);
    for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
      EXPECT_EQ(((detected >> lane) & 1) != 0,
                scalar.detects(vector, scenarios[lane]));
    }
  }
}

TEST(BatchSimulatorTest, PartialBatchLanesBeyondScenariosAreInactive) {
  const auto array = grid::full_array(3, 3);
  const BatchSimulator batch(array);
  const Simulator scalar(array);
  TestVector vector;
  vector.states = ValveStates(static_cast<std::size_t>(array.valve_count()),
                              true);
  vector.expected = scalar.expected(vector.states);
  const std::vector<FaultScenario> scenarios = {{stuck_at_0(0)}};
  const auto detected = batch.detect_lanes(vector, scenarios);
  EXPECT_EQ(detected & ~1ULL, 0u) << "inactive lanes must stay clear";
}

TEST(CampaignEquivalenceTest, BatchedMatchesScalarOracle) {
  for (const grid::ValveArray& array : test_arrays()) {
    if (array.valve_count() < 5) continue;
    const Simulator simulator(array);
    // A deliberately weak vector set so both detected and undetected
    // trials occur.
    TestVector vector;
    vector.states = ValveStates(
        static_cast<std::size_t>(array.valve_count()), true);
    vector.expected = simulator.expected(vector.states);
    const TestVector vectors[] = {vector};
    CampaignOptions options;
    options.trials_per_count = 300;  // exercises partial final batches
    options.max_faults = 3;
    options.include_control_leaks = true;
    const auto batched = run_campaign(simulator, vectors, options);
    const auto scalar = run_campaign_scalar(simulator, vectors, options);
    ASSERT_EQ(batched.rows.size(), scalar.rows.size());
    for (std::size_t i = 0; i < batched.rows.size(); ++i) {
      EXPECT_EQ(batched.rows[i].fault_count, scalar.rows[i].fault_count);
      EXPECT_EQ(batched.rows[i].trials, scalar.rows[i].trials);
      EXPECT_EQ(batched.rows[i].detected, scalar.rows[i].detected);
      EXPECT_EQ(batched.rows[i].undetected_samples,
                scalar.rows[i].undetected_samples);
    }
  }
}

TEST(CampaignEquivalenceTest, GeneratedProgramBatchedMatchesScalar) {
  // The Section-IV configuration: a hierarchical Table-I program and 1-5
  // faults per trial. A real program drops most trials within its first
  // vectors and keeps a few alive to the end, so the drop step recompacts
  // across many vectors, which the one-vector programs above never reach.
  // The second options set adds control leaks and degraded faults, so
  // some trials escape and undetected_samples is compared on real content.
  core::GeneratorOptions generator;
  generator.hierarchical = true;
  generator.block_size = 5;
  for (const int preset : {5, 10}) {
    const auto array = grid::table1_array(preset);
    const Simulator simulator(array);
    const auto program = core::generate_test_set(array, generator);
    CampaignOptions stuck_at;
    stuck_at.trials_per_count = 400;
    CampaignOptions mixed = stuck_at;
    mixed.include_control_leaks = true;
    mixed.degraded_probability = 0.5;
    for (const CampaignOptions& options : {stuck_at, mixed}) {
      const auto batched = run_campaign(simulator, program.vectors, options);
      const auto scalar =
          run_campaign_scalar(simulator, program.vectors, options);
      ASSERT_EQ(batched.rows.size(), 5u);
      ASSERT_EQ(scalar.rows.size(), 5u);
      for (std::size_t i = 0; i < batched.rows.size(); ++i) {
        EXPECT_EQ(batched.rows[i].trials, scalar.rows[i].trials);
        EXPECT_EQ(batched.rows[i].detected, scalar.rows[i].detected)
            << "preset " << preset << " row " << i;
        EXPECT_EQ(batched.rows[i].undetected_samples,
                  scalar.rows[i].undetected_samples)
            << "preset " << preset << " row " << i;
      }
      EXPECT_GT(scalar.total_detected(), 0) << "preset " << preset;
      if (options.degraded_probability > 0.0) {
        EXPECT_LT(scalar.total_detected(), scalar.total_trials())
            << "preset " << preset << ": the mixed draw must leave escapes";
      }
    }
  }
}

TEST(CampaignEquivalenceTest, DegradedCampaignBatchedMatchesScalar) {
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  TestVector vector;
  vector.states =
      ValveStates(static_cast<std::size_t>(array.valve_count()), true);
  vector.expected = simulator.expected(vector.states);
  const TestVector vectors[] = {vector};
  CampaignOptions options;
  options.trials_per_count = 300;
  options.max_faults = 4;
  options.include_control_leaks = true;
  options.degraded_probability = 0.35;
  const auto batched = run_campaign(simulator, vectors, options);
  const auto scalar = run_campaign_scalar(simulator, vectors, options);
  ASSERT_EQ(batched.rows.size(), scalar.rows.size());
  for (std::size_t i = 0; i < batched.rows.size(); ++i) {
    EXPECT_EQ(batched.rows[i].detected, scalar.rows[i].detected);
    EXPECT_EQ(batched.rows[i].set_cardinality, scalar.rows[i].set_cardinality);
    EXPECT_EQ(batched.rows[i].undetected_samples,
              scalar.rows[i].undetected_samples);
  }
}

TEST(CampaignEquivalenceTest, ZeroDegradedProbabilityPreservesRngStream) {
  // degraded_probability = 0 must consume exactly the historical RNG
  // stream: the drawn fault sets are identical with and without the option
  // present in the draw call.
  const auto array = grid::table1_array(5);
  const auto leak_pairs = control_leak_pairs(array);
  for (int trial = 0; trial < 50; ++trial) {
    common::Rng a(campaign_trial_seed(99, 3, trial));
    common::Rng b(campaign_trial_seed(99, 3, trial));
    const auto legacy = draw_fault_set(a, array, 3, leak_pairs, 0.5);
    const auto gated = draw_fault_set(b, array, 3, leak_pairs, 0.5, 0.0);
    EXPECT_EQ(legacy, gated) << "trial " << trial;
  }
}

TEST(CampaignEquivalenceTest, DrawStreamDigestPinned) {
  // Golden FNV-1a 64 over to_string of 20 000 draws (4 000 per fault count
  // k = 1..5) on the 10x10 preset, with leak pairs and degraded draws on:
  // every branch of draw_fault_set -- leak, degraded, stuck-at, and the
  // retries on an occupied valve -- shows in the digest, so a rewrite of
  // the draw that moves any RNG call or any drawn fault fails here.
  const auto array = grid::table1_array(10);
  const auto leak_pairs = control_leak_pairs(array);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int k = 1; k <= 5; ++k) {
    for (int trial = 0; trial < 4000; ++trial) {
      common::Rng rng(campaign_trial_seed(20170327, k, trial));
      const std::string text =
          to_string(draw_fault_set(rng, array, k, leak_pairs, 0.5, 0.3));
      for (const char c : text) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      }
      hash = (hash ^ '\n') * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(hash, 0xe79bd1b1f6cf8076ULL);
}

/// The faults one coverage scenario injects.
std::span<const Fault> faults_of(const FaultScenario& scenario) {
  return scenario;
}
std::span<const Fault> faults_of(const Fault& fault) { return {&fault, 1}; }

/// Scalar reference for the coverage runs: the scenarios no vector
/// detects, in input order.
template <class Scenario>
std::vector<Scenario> scalar_undetected(const Simulator& simulator,
                                        std::span<const TestVector> vectors,
                                        std::span<const Scenario> pool) {
  std::vector<Scenario> undetected;
  for (const Scenario& scenario : pool) {
    if (!simulator.any_detects(vectors, faults_of(scenario))) {
      undetected.push_back(scenario);
    }
  }
  return undetected;
}

std::vector<TestVector> random_vectors(common::Rng& rng,
                                       const Simulator& simulator,
                                       int count) {
  std::vector<TestVector> vectors;
  for (int i = 0; i < count; ++i) {
    TestVector vector;
    vector.states = random_states(rng, simulator.array());
    vector.expected = simulator.expected(vector.states);
    vectors.push_back(std::move(vector));
  }
  return vectors;
}

TEST(CampaignEquivalenceTest, CoverageMatchesScalarBruteForce) {
  // single_fault_coverage runs vector-major through the batched drop step;
  // cross-check count and undetected order against a direct scalar loop
  // over universes wider than one lane word (with a partial last word),
  // for a generated program (whose vectors the monotonicity screen
  // rejects most faults against), random vectors, and no vectors at all.
  for (const int preset : {5, 10}) {
    const auto array = grid::table1_array(preset);
    const Simulator simulator(array);
    const std::vector<Fault> stuck = single_stuck_fault_universe(array);
    const std::vector<Fault> leaks = control_leak_universe(array);
    std::vector<Fault> degraded;
    for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
      degraded.push_back(degraded_flow(v));
    }
    std::vector<Fault> mixed;
    for (const std::vector<Fault>* family :
         std::initializer_list<const std::vector<Fault>*>{&stuck, &leaks,
                                                          &degraded}) {
      mixed.insert(mixed.end(), family->begin(), family->end());
    }
    ASSERT_GT(mixed.size(), std::size_t{2 * BatchSimulator::kLanes});
    ASSERT_NE(mixed.size() % BatchSimulator::kLanes, 0u);  // partial word
    common::Rng rng(static_cast<std::uint64_t>(preset) + 3);
    const std::vector<std::vector<TestVector>> vector_sets = {
        core::generate_test_set(array).vectors,
        random_vectors(rng, simulator, 6),
        {},
    };
    for (const std::vector<Fault>* universe :
         std::initializer_list<const std::vector<Fault>*>{
             &stuck, &leaks, &degraded, &mixed}) {
      for (std::size_t set = 0; set < vector_sets.size(); ++set) {
        const std::span<const Fault> faults = *universe;
        const auto report =
            single_fault_coverage(simulator, vector_sets[set], faults);
        const auto expected =
            scalar_undetected(simulator,
                              std::span<const TestVector>(vector_sets[set]),
                              faults);
        EXPECT_EQ(report.total_faults, static_cast<int>(faults.size()));
        EXPECT_EQ(report.detected_faults,
                  static_cast<int>(faults.size() - expected.size()))
            << "preset " << preset << " set " << set;
        EXPECT_EQ(report.undetected, expected)
            << "preset " << preset << " set " << set;
      }
    }
  }
}

TEST(CampaignEquivalenceTest, MultiFaultCoverageMatchesScalarBruteForce) {
  // Both enumerations cross the 4 096-scenario chunk boundary; the kept
  // undetected list must be the scalar list's prefix for any cap.
  const auto array = grid::full_array(6, 6);
  const Simulator simulator(array);
  common::Rng rng(17);
  const std::vector<TestVector> vectors = random_vectors(rng, simulator, 4);
  std::vector<Fault> universe = single_stuck_fault_universe(array);
  const std::vector<Fault> leaks = control_leak_universe(array);
  universe.insert(universe.end(), leaks.begin(), leaks.begin() + 10);

  // Both enumerations follow fault_set_coverage: universe order,
  // pairwise-disjoint valve footprints (a leak occupies its partner too).
  const auto footprint_overlaps = [](const FaultScenario& set,
                                     const Fault& fault) {
    const auto on = [&](grid::ValveId v) {
      return v == fault.valve ||
             (fault.type == FaultType::kControlLeak && v == fault.partner);
    };
    for (const Fault& other : set) {
      if (on(other.valve) ||
          (other.type == FaultType::kControlLeak && on(other.partner))) {
        return true;
      }
    }
    return false;
  };
  std::vector<FaultScenario> pairs;
  for (std::size_t a = 0; a < universe.size(); ++a) {
    for (std::size_t b = a + 1; b < universe.size(); ++b) {
      if (!footprint_overlaps({universe[a]}, universe[b])) {
        pairs.push_back({universe[a], universe[b]});
      }
    }
  }
  ASSERT_GT(pairs.size(), 4096u);
  const auto pair_expected = scalar_undetected(
      simulator, std::span<const TestVector>(vectors),
      std::span<const FaultScenario>(pairs));
  ASSERT_GT(pair_expected.size(), 3u);
  for (const std::size_t kept : {std::size_t{3}, pair_expected.size()}) {
    const auto report =
        fault_set_coverage(simulator, vectors, universe, 2, kept);
    EXPECT_EQ(report.total_sets, static_cast<long>(pairs.size()));
    EXPECT_EQ(report.detected_sets,
              static_cast<long>(pairs.size() - pair_expected.size()));
    EXPECT_EQ(report.undetected,
              std::vector<FaultScenario>(
                  pair_expected.begin(),
                  pair_expected.begin() + static_cast<std::ptrdiff_t>(kept)));
  }

  // Size-3 sets over a smaller universe.
  const std::span<const Fault> small(universe.data(), 48);
  std::vector<FaultScenario> triples;
  for (std::size_t a = 0; a < small.size(); ++a) {
    for (std::size_t b = a + 1; b < small.size(); ++b) {
      if (footprint_overlaps({small[a]}, small[b])) continue;
      for (std::size_t c = b + 1; c < small.size(); ++c) {
        if (!footprint_overlaps({small[a], small[b]}, small[c])) {
          triples.push_back({small[a], small[b], small[c]});
        }
      }
    }
  }
  ASSERT_GT(triples.size(), 4096u);
  const auto set_expected = scalar_undetected(
      simulator, std::span<const TestVector>(vectors),
      std::span<const FaultScenario>(triples));
  ASSERT_GT(set_expected.size(), 3u);
  for (const std::size_t kept : {std::size_t{3}, set_expected.size()}) {
    const auto report = fault_set_coverage(simulator, vectors, small, 3, kept);
    EXPECT_EQ(report.total_sets, static_cast<long>(triples.size()));
    EXPECT_EQ(report.detected_sets,
              static_cast<long>(triples.size() - set_expected.size()));
    EXPECT_EQ(report.undetected,
              std::vector<FaultScenario>(
                  set_expected.begin(),
                  set_expected.begin() + static_cast<std::ptrdiff_t>(kept)));
  }
}

TEST(CampaignEquivalenceTest, UndetectedCapAgreesAcrossRunners) {
  // Each shard keeps at most max_undetected_kept undetected scenarios. The
  // cap must be exact for a row spanning several 4 096-trial shards: with
  // nothing kept, with one kept, and with a cap that the first shard alone
  // cannot fill, so the kept prefix runs into the second shard.
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  TestVector vector;
  vector.states =
      ValveStates(static_cast<std::size_t>(array.valve_count()), true);
  vector.expected = simulator.expected(vector.states);
  const TestVector vectors[] = {vector};
  CampaignOptions options;
  options.max_faults = 1;
  options.max_undetected_kept = static_cast<std::size_t>(-1);
  options.trials_per_count = 4096;
  const std::size_t first_shard =
      run_campaign(simulator, vectors, options).rows[0]
          .undetected_samples.size();
  options.trials_per_count = 3 * 4096 + 100;
  const std::size_t all =
      run_campaign(simulator, vectors, options).rows[0]
          .undetected_samples.size();
  ASSERT_GT(first_shard, 1u);
  ASSERT_GT(all, first_shard + 1);

  for (const std::size_t kept :
       {std::size_t{0}, std::size_t{1}, (first_shard + all) / 2}) {
    options.max_undetected_kept = kept;
    const auto scalar = run_campaign_scalar(simulator, vectors, options);
    const auto batched = run_campaign(simulator, vectors, options);
    ASSERT_EQ(scalar.rows.size(), 1u);
    EXPECT_EQ(scalar.rows[0].undetected_samples.size(), kept) << kept;
    EXPECT_EQ(batched.rows[0].detected, scalar.rows[0].detected) << kept;
    EXPECT_EQ(batched.rows[0].undetected_samples,
              scalar.rows[0].undetected_samples)
        << kept;
  }
}

TEST(CampaignStopTest, TrippedTokenInterruptsEveryRunner) {
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  TestVector vector;
  vector.states =
      ValveStates(static_cast<std::size_t>(array.valve_count()), true);
  vector.expected = simulator.expected(vector.states);
  const TestVector vectors[] = {vector};
  CampaignOptions options;
  options.trials_per_count = 200;
  options.max_faults = 3;
  options.stop =
      common::StopToken{}.with_deadline(common::Deadline::after(0.0));

  const auto check = [&](const CampaignResult& result, const char* name) {
    EXPECT_TRUE(result.interrupted) << name;
    // One row per fault count always; no trial ran, none is reported.
    ASSERT_EQ(result.rows.size(), 3u) << name;
    for (const CampaignRow& row : result.rows) {
      EXPECT_EQ(row.trials, 0) << name;
      EXPECT_EQ(row.detected, 0) << name;
      EXPECT_TRUE(row.undetected_samples.empty()) << name;
    }
  };
  check(run_campaign(simulator, vectors, options), "batched");
  check(run_campaign_scalar(simulator, vectors, options), "scalar");
}

TEST(CampaignStopTest, UntrippedTokenChangesNothing) {
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  TestVector vector;
  vector.states =
      ValveStates(static_cast<std::size_t>(array.valve_count()), true);
  vector.expected = simulator.expected(vector.states);
  const TestVector vectors[] = {vector};
  CampaignOptions options;
  options.trials_per_count = 300;
  options.max_faults = 3;
  options.include_control_leaks = true;
  const auto reference = run_campaign(simulator, vectors, options);
  ASSERT_FALSE(reference.interrupted);

  options.stop =
      common::StopToken{}.with_deadline(common::Deadline::after(3600.0));
  const auto guarded = run_campaign(simulator, vectors, options);
  EXPECT_FALSE(guarded.interrupted);
  ASSERT_EQ(guarded.rows.size(), reference.rows.size());
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    EXPECT_EQ(guarded.rows[i].trials, reference.rows[i].trials);
    EXPECT_EQ(guarded.rows[i].detected, reference.rows[i].detected);
    EXPECT_EQ(guarded.rows[i].undetected_samples,
              reference.rows[i].undetected_samples);
  }
}

TEST(CampaignStopTest, TokenTrippedBeforeStartRunsNoShard) {
  // A token tripped before the campaign starts stops it at the first shard
  // boundary: the campaign reports interrupted with no trial in any row.
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  TestVector vector;
  vector.states =
      ValveStates(static_cast<std::size_t>(array.valve_count()), true);
  vector.expected = simulator.expected(vector.states);
  const TestVector vectors[] = {vector};
  CampaignOptions options;
  options.trials_per_count = 20000;
  options.max_faults = 5;
  common::StopSource source;
  options.stop = source.token();
  source.request_stop();
  const auto result = run_campaign(simulator, vectors, options);
  EXPECT_TRUE(result.interrupted);
  ASSERT_EQ(result.rows.size(), 5u);
  for (const CampaignRow& row : result.rows) {
    EXPECT_EQ(row.trials, 0) << row.fault_count << " faults";
    EXPECT_EQ(row.detected, 0) << row.fault_count << " faults";
  }
}

TEST(CampaignStopTest, MidRunStopReturnsPromptly) {
  // The 30x30 preset program against 5 x 400 000 trials runs about 1.8 s
  // uninterrupted in Release on a 4-core x86 VM, so every trip below lands
  // mid-run: the campaign must report interrupted and return within the
  // grace period of the trip.
  using Clock = std::chrono::steady_clock;
  constexpr auto kGrace = std::chrono::seconds(2);
  const auto array = grid::table1_array(30);
  const Simulator simulator(array);
  core::GeneratorOptions generator;
  generator.hierarchical = true;
  const auto set = core::generate_test_set(array, generator);
  Clock::duration worst{};
  for (const int delay_ms : {20, 80, 200}) {
    common::StopSource source;
    CampaignOptions options;
    options.trials_per_count = 400000;
    options.stop = source.token();
    Clock::time_point tripped_at;
    std::thread canceller([&source, &tripped_at, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      tripped_at = Clock::now();
      source.request_stop();
    });
    const CampaignResult result =
        run_campaign(simulator, set.vectors, options);
    const Clock::time_point returned_at = Clock::now();
    canceller.join();
    EXPECT_TRUE(result.interrupted) << delay_ms << " ms";
    const Clock::duration latency = returned_at - tripped_at;
    EXPECT_LT(latency, kGrace) << delay_ms << " ms";
    worst = std::max(worst, latency);
  }
  std::printf("max campaign stop latency: %.1f ms\n",
              std::chrono::duration<double, std::milli>(worst).count());
}

TEST(CampaignStopTest, TrippedTokenAbandonsTheDropStep) {
  // The drop step polls the token once per vector: with work queued, a
  // tripped token abandons the whole step instead of returning a partial
  // survivor list, and a campaign whose token trips reports interrupted
  // with no trial folded.
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  const BatchSimulator batch(array);
  core::GeneratorOptions generator;
  generator.hierarchical = true;
  const auto set = core::generate_test_set(array, generator);
  const ActivationIndex index(array, set.vectors);
  const std::vector<Fault> universe = single_stuck_fault_universe(array);
  const common::StopToken tripped =
      common::StopToken{}.with_deadline(common::Deadline::after(0.0));
  EXPECT_FALSE(batch.undetected(index, universe, tripped).has_value());
  const auto untripped = batch.undetected(index, universe);
  ASSERT_TRUE(untripped.has_value());
  EXPECT_TRUE(untripped->empty());

  CampaignOptions options;
  options.trials_per_count = 100;
  options.max_faults = 2;
  options.stop = tripped;
  const CampaignResult result =
      run_campaign(simulator, set.vectors, options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.total_trials(), 0L);
}

TEST(CampaignOptionsTest, RejectsInvalidOptions) {
  const auto array = grid::table1_array(5);
  const Simulator simulator(array);
  TestVector vector;
  vector.states =
      ValveStates(static_cast<std::size_t>(array.valve_count()), true);
  vector.expected = simulator.expected(vector.states);
  const TestVector vectors[] = {vector};
  const auto rejected = [&](auto&& edit) {
    CampaignOptions options;
    options.trials_per_count = 10;
    edit(options);
    EXPECT_THROW(run_campaign(simulator, vectors, options), common::Error);
    EXPECT_THROW(run_campaign_scalar(simulator, vectors, options),
                 common::Error);
  };
  rejected([](CampaignOptions& o) { o.min_faults = 0; });
  rejected([](CampaignOptions& o) {
    o.min_faults = 3;
    o.max_faults = 2;
  });
  rejected([&](CampaignOptions& o) {
    o.max_faults = array.valve_count() + 1;
  });
  rejected([](CampaignOptions& o) { o.degraded_probability = 1.5; });
  // A negative count used to report a 100% rate over zero trials.
  rejected([](CampaignOptions& o) { o.trials_per_count = -1; });
  // next_bool clamps, so these used to run as probability 0 or 1.
  rejected([](CampaignOptions& o) { o.stuck_at_1_probability = -0.1; });
  rejected([](CampaignOptions& o) { o.stuck_at_1_probability = 1.1; });
}

TEST(StreamSeedTest, DistinctStreamsDecorrelate) {
  // Adjacent streams must not produce identical or trivially-shifted
  // sequences.
  common::Rng a(common::stream_seed(123, 0));
  common::Rng b(common::stream_seed(123, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
  // Same (base, stream) is reproducible.
  EXPECT_EQ(common::stream_seed(9, 7), common::stream_seed(9, 7));
  EXPECT_NE(common::stream_seed(9, 7), common::stream_seed(10, 7));
}

}  // namespace
}  // namespace fpva::sim

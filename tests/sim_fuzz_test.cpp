// Seeded differential fuzzing of the simulator stack: for every seed the
// bit-parallel BatchSimulator, its fault-dropping step and the campaign
// built on it are replayed against the scalar Simulator oracle on
// randomized arrays, vectors and multi-fault scenarios (stuck-at,
// control-leak and degraded-flow faults, including sets that pile several
// faults onto one valve). Any divergence fails with the seed and fault set
// printed so the case can be replayed via FPVA_SIM_FUZZ_SEEDS.
//
// Seeds come from FPVA_SIM_SEED_FILE (one uint64 per line) and/or
// FPVA_SIM_FUZZ_SEEDS (whitespace-separated inline); with neither set the
// sweep is a no-op. CI's sanitize leg points FPVA_SIM_SEED_FILE at the
// committed tests/sim_fuzz_seeds.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "sim/batch.h"
#include "sim/campaign.h"
#include "sim/control_topology.h"
#include "sim/simulator.h"

namespace fpva::sim {
namespace {

using grid::Cell;
using grid::Site;

/// The faults one drop-step scenario injects.
std::span<const Fault> faults_of(const FaultScenario& scenario) {
  return scenario;
}
std::span<const Fault> faults_of(const Fault& fault) { return {&fault, 1}; }

/// Random array: mostly full grids, sometimes with an obstacle block so
/// flood fill has to route around dead cells.
grid::ValveArray random_array(common::Rng& rng) {
  const int rows = 1 + static_cast<int>(rng.next_below(4));
  const int cols = 2 + static_cast<int>(rng.next_below(5));
  if (rows >= 3 && cols >= 3 && rng.next_bool(0.3)) {
    return grid::LayoutBuilder(rows, cols)
        .obstacle_rect(Cell{1, 1}, Cell{1, 1})
        .default_ports()
        .build();
  }
  return grid::full_array(rows, cols);
}

ValveStates random_states(common::Rng& rng, const grid::ValveArray& array) {
  ValveStates states(static_cast<std::size_t>(array.valve_count()));
  for (std::size_t v = 0; v < states.size(); ++v) {
    states[v] = rng.next_bool(0.7);
  }
  return states;
}

/// A fault set with no structural guarantees: kinds drawn uniformly and
/// valves drawn with replacement, so the same valve can carry e.g. a
/// stuck-at-1 and a degraded-flow fault at once. Exercises resolution-order
/// corners draw_fault_set's distinct-valve invariant never reaches.
FaultScenario random_overlapping_set(common::Rng& rng,
                                     const grid::ValveArray& array,
                                     std::span<const LeakPair> leak_pairs,
                                     int fault_count) {
  FaultScenario faults;
  for (int i = 0; i < fault_count; ++i) {
    const auto valve = static_cast<grid::ValveId>(
        rng.next_below(static_cast<std::uint64_t>(array.valve_count())));
    switch (rng.next_below(leak_pairs.empty() ? 3 : 4)) {
      case 0:
        faults.push_back(stuck_at_0(valve));
        break;
      case 1:
        faults.push_back(stuck_at_1(valve));
        break;
      case 2:
        faults.push_back(degraded_flow(valve));
        break;
      default: {
        const auto& [a, b] = leak_pairs[static_cast<std::size_t>(
            rng.next_below(leak_pairs.size()))];
        faults.push_back(control_leak(a, b));
        break;
      }
    }
  }
  return faults;
}

/// One fuzz case: random array, random vectors, random fault sets; batch
/// readings and detect_lanes must match the scalar oracle lane-for-lane.
void fuzz_batch_vs_scalar(std::uint64_t seed) {
  common::Rng rng(seed);
  const grid::ValveArray array = random_array(rng);
  const Simulator scalar(array);
  const BatchSimulator batch(array);
  const auto leak_pairs = control_leak_pairs(array);
  const double degraded = rng.next_bool(0.5) ? 0.4 : 0.0;
  for (int round = 0; round < 3; ++round) {
    const ValveStates states = random_states(rng, array);
    std::vector<FaultScenario> scenarios;
    const int lanes = 1 + static_cast<int>(rng.next_below(
                              BatchSimulator::kLanes));
    for (int lane = 0; lane < lanes; ++lane) {
      const int k = 1 + static_cast<int>(rng.next_below(5));
      if (rng.next_bool(0.5)) {
        scenarios.push_back(random_overlapping_set(rng, array, leak_pairs,
                                                   k));
      } else {
        scenarios.push_back(draw_fault_set(
            rng, array, std::min(k, std::max(1, array.valve_count() / 2)),
            leak_pairs, 0.5, degraded));
      }
    }
    const auto words = batch.readings(states, scenarios);
    ASSERT_EQ(words.size(), static_cast<std::size_t>(batch.sink_count()));
    for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
      const auto expected = scalar.readings(states, scenarios[lane]);
      for (std::size_t s = 0; s < words.size(); ++s) {
        ASSERT_EQ(((words[s] >> lane) & 1) != 0, expected[s])
            << "seed=" << seed << " round=" << round << " lane=" << lane
            << " sink=" << s << " faults=" << to_string(scenarios[lane]);
      }
    }
    TestVector vector;
    vector.states = states;
    vector.expected = scalar.expected(states);
    const auto detected = batch.detect_lanes(vector, scenarios);
    EXPECT_EQ(detected & ~BatchSimulator::active_mask(scenarios.size()), 0u)
        << "seed=" << seed;
    for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
      ASSERT_EQ(((detected >> lane) & 1) != 0,
                scalar.detects(vector, scenarios[lane]))
          << "seed=" << seed << " round=" << round << " lane=" << lane
          << " faults=" << to_string(scenarios[lane]);
    }
  }
}

/// Scalar oracle for the drop step: the pool indices no vector detects,
/// in pool order.
template <class Scenario>
std::vector<int> scalar_undetected(const Simulator& scalar,
                                   std::span<const TestVector> vectors,
                                   std::span<const Scenario> pool) {
  std::vector<int> undetected;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const bool detected =
        std::any_of(vectors.begin(), vectors.end(), [&](const TestVector& v) {
          return scalar.detects(v, faults_of(pool[i]));
        });
    if (!detected) undetected.push_back(static_cast<int>(i));
  }
  return undetected;
}

/// One drop-step case: a pool of up to 200 overlapping multi-fault
/// scenarios mixing all four fault kinds is dropped against a random set
/// of 1-8 vectors in one BatchSimulator::undetected step. The
/// survivors must be exactly the entries no vector detects under the
/// scalar oracle, in pool order; the single-fault overload is held to the
/// same rule on a pool of lone faults. The activation index must also be
/// sound: a vector that detects a scenario is always one of its
/// activating vectors.
void fuzz_drop_step(std::uint64_t seed) {
  common::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const grid::ValveArray array = random_array(rng);
  const Simulator scalar(array);
  const BatchSimulator batch(array);
  const auto leak_pairs = control_leak_pairs(array);
  std::vector<FaultScenario> pool;
  const int pool_size = 1 + static_cast<int>(rng.next_below(200));
  for (int i = 0; i < pool_size; ++i) {
    pool.push_back(random_overlapping_set(
        rng, array, leak_pairs, 1 + static_cast<int>(rng.next_below(4))));
  }
  std::vector<Fault> singles;
  for (const FaultScenario& scenario : pool) singles.push_back(scenario[0]);
  std::vector<TestVector> vectors(1 + rng.next_below(8));
  for (TestVector& vector : vectors) {
    vector.states = random_states(rng, array);
    vector.expected = scalar.expected(vector.states);
  }
  const ActivationIndex index(array, vectors);

  const auto alive =
      batch.undetected(index, std::span<const FaultScenario>(pool));
  const auto alive_singles =
      batch.undetected(index, std::span<const Fault>(singles));
  ASSERT_TRUE(alive.has_value() && alive_singles.has_value())
      << "seed=" << seed;
  // The oracle lists are in pool order, so equality pins the order too.
  ASSERT_EQ(*alive, scalar_undetected(scalar, vectors,
                                      std::span<const FaultScenario>(pool)))
      << "seed=" << seed;
  ASSERT_EQ(*alive_singles,
            scalar_undetected(scalar, vectors,
                              std::span<const Fault>(singles)))
      << "seed=" << seed;
  for (const FaultScenario& scenario : pool) {
    for (int j = 0; j < index.size(); ++j) {
      if (scalar.detects(vectors[static_cast<std::size_t>(j)], scenario)) {
        ASSERT_EQ(index.next_activating(scenario, j), j)
            << "seed=" << seed << " vector=" << j
            << " faults=" << to_string(scenario);
      }
    }
  }
}

/// One campaign case: batched and scalar runners over the same options must
/// produce bit-identical rows (trials, detections, kept samples).
void fuzz_campaign(std::uint64_t seed) {
  common::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  const grid::ValveArray array = random_array(rng);
  const Simulator simulator(array);
  std::vector<TestVector> vectors;
  const int vector_count = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < vector_count; ++i) {
    TestVector vector;
    vector.states = random_states(rng, array);
    vector.expected = simulator.expected(vector.states);
    vectors.push_back(std::move(vector));
  }
  CampaignOptions options;
  options.seed = seed;
  options.trials_per_count = 130;  // partial final 64-lane batch
  // Keep every fault count placeable: each fault occupies at most two
  // distinct valves (a leak takes both partners), so k <= valves/2 always
  // admits a draw.
  options.max_faults =
      std::min(1 + static_cast<int>(rng.next_below(3)),
               std::max(1, array.valve_count() / 2));
  options.include_control_leaks = rng.next_bool(0.5);
  options.degraded_probability = rng.next_bool(0.5) ? 0.3 : 0.0;
  const auto batched = run_campaign(simulator, vectors, options);
  const auto scalar = run_campaign_scalar(simulator, vectors, options);
  ASSERT_EQ(batched.rows.size(), scalar.rows.size()) << "seed=" << seed;
  for (std::size_t i = 0; i < batched.rows.size(); ++i) {
    ASSERT_EQ(batched.rows[i].trials, scalar.rows[i].trials)
        << "seed=" << seed << " row=" << i;
    ASSERT_EQ(batched.rows[i].detected, scalar.rows[i].detected)
        << "seed=" << seed << " row=" << i;
    ASSERT_EQ(batched.rows[i].set_cardinality, scalar.rows[i].set_cardinality)
        << "seed=" << seed << " row=" << i;
    ASSERT_EQ(batched.rows[i].undetected_samples,
              scalar.rows[i].undetected_samples)
        << "seed=" << seed << " row=" << i;
  }
}

// ------------------------------------------------------- seeded fuzz entry

std::vector<std::uint64_t> configured_seeds() {
  std::vector<std::uint64_t> seeds;
  const auto parse_into = [&seeds](std::istream& in) {
    std::uint64_t seed = 0;
    while (in >> seed) seeds.push_back(seed);
  };
  if (const char* file = std::getenv("FPVA_SIM_SEED_FILE")) {
    std::ifstream in(file);
    EXPECT_TRUE(in.good()) << "FPVA_SIM_SEED_FILE unreadable: " << file;
    parse_into(in);
  }
  if (const char* inline_seeds = std::getenv("FPVA_SIM_FUZZ_SEEDS")) {
    std::istringstream in(inline_seeds);
    parse_into(in);
  }
  return seeds;
}

// CI's sanitized fuzz step points FPVA_SIM_SEED_FILE at the committed seed
// list (tests/sim_fuzz_seeds.txt) and runs exactly this test; locally the
// test is a no-op unless seeds are configured.
TEST(SimFuzzTest, SeededSweep) {
  const std::vector<std::uint64_t> seeds = configured_seeds();
  for (const std::uint64_t seed : seeds) {
    fuzz_batch_vs_scalar(seed);
    fuzz_drop_step(seed);
    fuzz_campaign(seed);
  }
}

}  // namespace
}  // namespace fpva::sim

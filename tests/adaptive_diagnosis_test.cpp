// Tests for the adaptive (information-gain) diagnosis engine: equivalence
// of the static path with sim::diagnose(), determinism across thread
// counts and cache settings, the decision-diagram walk (node count, early
// exits on replayed states, the cache's own contract), and the actual
// adaptivity win (fewer tests to isolation than the static order).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/coverage.h"
#include "sim/diagnosis.h"
#include "sim/diagnosis/adaptive.h"
#include "sim/diagnosis/dd_cache.h"

namespace fpva::sim::diagnosis {
namespace {

/// Single-fault hypothesis universe as one-element fault sets.
std::vector<FaultScenario> single_fault_universe(
    const grid::ValveArray& array) {
  std::vector<FaultScenario> universe;
  for (const Fault& fault : single_stuck_fault_universe(array)) {
    universe.push_back({fault});
  }
  return universe;
}

/// Stuck-at faults, control leaks and two-fault sets pairing a
/// degraded-flow valve with a stuck-at fault on another valve.
std::vector<FaultScenario> mixed_universe(const grid::ValveArray& array) {
  std::vector<FaultScenario> universe = single_fault_universe(array);
  for (const Fault& leak : control_leak_universe(array)) {
    universe.push_back({leak});
  }
  const auto stuck = single_stuck_fault_universe(array);
  for (std::size_t i = 0; i < stuck.size(); i += 3) {
    const grid::ValveId degraded =
        stuck[(i * 7 + 5) % stuck.size()].valve;
    if (degraded == stuck[i].valve) continue;
    universe.push_back({degraded_flow(degraded), stuck[i]});
  }
  return universe;
}

Outcome pack(const std::vector<bool>& readings) {
  Outcome packed = 0;
  for (std::size_t s = 0; s < readings.size(); ++s) {
    if (readings[s]) packed |= Outcome{1} << s;
  }
  return packed;
}

/// Every SessionResult field but from_cache and the cache counters.
void expect_same_session(const SessionResult& got, const SessionResult& want,
                         const std::string& label) {
  ASSERT_EQ(got.tests_applied(), want.tests_applied()) << label;
  for (int t = 0; t < got.tests_applied(); ++t) {
    const auto& a = got.applied[static_cast<std::size_t>(t)];
    const auto& b = want.applied[static_cast<std::size_t>(t)];
    EXPECT_EQ(a.vector_index, b.vector_index) << label << " test " << t;
    EXPECT_EQ(a.outcome, b.outcome) << label << " test " << t;
    EXPECT_EQ(a.surviving_before, b.surviving_before)
        << label << " test " << t;
    EXPECT_EQ(a.surviving_after, b.surviving_after) << label << " test " << t;
  }
  EXPECT_EQ(got.surviving, want.surviving) << label;
  EXPECT_EQ(got.fault_free_consistent, want.fault_free_consistent) << label;
  EXPECT_EQ(got.eliminated, want.eliminated) << label;
  EXPECT_EQ(got.interrupted, want.interrupted) << label;
}

/// Options reproducing sim::diagnose(): every vector in input order, no
/// early stop, no cache.
Options static_options() {
  Options options;
  options.policy = Policy::kStaticOrder;
  options.use_dd_cache = false;
  options.stop_when_isolated = false;
  return options;
}

TEST(AdaptiveDiagnosisTest, StaticPathReproducesDiagnose) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const Simulator simulator(array);
  const auto fault_universe = single_stuck_fault_universe(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array),
                              static_options());
  for (const Fault& truth : fault_universe) {
    const auto observed =
        response_signature(simulator, set.vectors, truth);
    const auto expected =
        diagnose(simulator, set.vectors, observed, fault_universe);
    const auto session = diagnoser.run(FaultScenario{truth});
    EXPECT_EQ(session.tests_applied(),
              static_cast<int>(set.vectors.size()))
        << to_string(truth);
    EXPECT_EQ(session.fault_free_consistent,
              expected.consistent_with_fault_free)
        << to_string(truth);
    std::vector<Fault> survivors;
    for (const int h : session.surviving) {
      ASSERT_EQ(diagnoser.universe()[static_cast<std::size_t>(h)].size(),
                1u);
      survivors.push_back(
          diagnoser.universe()[static_cast<std::size_t>(h)][0]);
    }
    EXPECT_EQ(survivors, expected.candidates) << to_string(truth);
  }
}

TEST(AdaptiveDiagnosisTest, FaultFreeChipStaysConsistent) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  const Simulator simulator(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), {});
  const auto session = diagnoser.run(FaultScenario{});
  EXPECT_TRUE(session.fault_free_consistent);
  // The generated set detects every stuck fault, so info-gain testing must
  // end with the healthy chip as the only live hypothesis.
  EXPECT_TRUE(session.surviving.empty());
  EXPECT_TRUE(session.isolated());
}

TEST(AdaptiveDiagnosisTest, TrueHypothesisAlwaysSurvives) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), {});
  for (std::size_t h = 0; h < diagnoser.universe().size(); ++h) {
    const auto session = diagnoser.run(diagnoser.universe()[h]);
    EXPECT_NE(std::find(session.surviving.begin(), session.surviving.end(),
                        static_cast<int>(h)),
              session.surviving.end())
        << to_string(diagnoser.universe()[h]);
    EXPECT_FALSE(session.fault_free_consistent)
        << to_string(diagnoser.universe()[h]);
  }
}

TEST(AdaptiveDiagnosisTest, LocalizesMultiFaultScenarios) {
  // A two-fault universe the single-fault matcher cannot express: the true
  // pair must survive its own session.
  const auto array = grid::full_array(3, 3);
  const auto set = core::generate_test_set(array);
  const auto singles = single_stuck_fault_universe(array);
  std::vector<FaultScenario> universe;
  for (std::size_t i = 0; i < singles.size(); ++i) {
    for (std::size_t j = i + 1; j < singles.size(); ++j) {
      if (singles[i].valve == singles[j].valve) continue;
      universe.push_back({singles[i], singles[j]});
    }
  }
  AdaptiveDiagnoser diagnoser(array, set.vectors, universe, {});
  for (std::size_t h = 0; h < universe.size(); h += 17) {
    const auto session = diagnoser.run(universe[h]);
    EXPECT_NE(std::find(session.surviving.begin(), session.surviving.end(),
                        static_cast<int>(h)),
              session.surviving.end())
        << to_string(universe[h]);
  }
}

TEST(AdaptiveDiagnosisTest, InfoGainNeedsFewerTestsThanStaticOrder) {
  // The adaptivity win the bench gates: summed tests-to-isolate over every
  // single-fault truth must strictly drop versus applying the program in
  // input order with the same early stop.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  Options adaptive;
  Options fixed;
  fixed.policy = Policy::kStaticOrder;
  AdaptiveDiagnoser smart(array, set.vectors, single_fault_universe(array),
                          adaptive);
  AdaptiveDiagnoser dumb(array, set.vectors, single_fault_universe(array),
                         fixed);
  long smart_tests = 0;
  long dumb_tests = 0;
  for (const FaultScenario& truth : smart.universe()) {
    smart_tests += smart.run(truth).tests_applied();
    dumb_tests += dumb.run(truth).tests_applied();
  }
  EXPECT_LT(smart_tests, dumb_tests);
}

TEST(AdaptiveDiagnosisTest, BitIdenticalAcrossThreadCounts) {
  // Threads only parallelize the outcome-table precompute; sessions must
  // be bit-identical for any worker count.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = single_fault_universe(array);
  Options reference_options;
  reference_options.threads = 1;
  AdaptiveDiagnoser reference(array, set.vectors, universe,
                              reference_options);
  std::vector<SessionResult> expected;
  for (const FaultScenario& truth : universe) {
    expected.push_back(reference.run(truth));
  }
  for (const int threads : {2, 4, 8}) {
    Options options;
    options.threads = threads;
    AdaptiveDiagnoser diagnoser(array, set.vectors, universe, options);
    for (std::size_t h = 0; h < universe.size(); ++h) {
      const auto session = diagnoser.run(universe[h]);
      ASSERT_EQ(session.tests_applied(), expected[h].tests_applied())
          << threads << " threads, hypothesis " << h;
      for (int t = 0; t < session.tests_applied(); ++t) {
        const auto& got = session.applied[static_cast<std::size_t>(t)];
        const auto& want = expected[h].applied[static_cast<std::size_t>(t)];
        ASSERT_EQ(got.vector_index, want.vector_index)
            << threads << " threads, hypothesis " << h << ", test " << t;
        ASSERT_EQ(got.outcome, want.outcome)
            << threads << " threads, hypothesis " << h << ", test " << t;
      }
      ASSERT_EQ(session.surviving, expected[h].surviving)
          << threads << " threads, hypothesis " << h;
    }
  }
}

TEST(AdaptiveDiagnosisTest, CacheOnAndOffChooseIdenticalTests) {
  // The cache is purely a speedup: every session field but from_cache
  // matches the uncached run, over a mixed universe and the healthy chip,
  // whether sessions stop at isolation or run until nothing splits. Two
  // passes make the second one replay stored edges end to end.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  std::vector<FaultScenario> truths = universe;
  truths.push_back({});
  for (const bool stop_when_isolated : {true, false}) {
    Options with_cache;
    with_cache.use_dd_cache = true;
    with_cache.stop_when_isolated = stop_when_isolated;
    Options without_cache = with_cache;
    without_cache.use_dd_cache = false;
    AdaptiveDiagnoser cached(array, set.vectors, universe, with_cache);
    AdaptiveDiagnoser uncached(array, set.vectors, universe, without_cache);
    for (int pass = 0; pass < 2; ++pass) {
      for (const FaultScenario& truth : truths) {
        const std::string label = to_string(truth) + " stop_when_isolated=" +
                                  std::to_string(stop_when_isolated) +
                                  " pass " + std::to_string(pass);
        const auto a = cached.run(truth);
        const auto b = uncached.run(truth);
        expect_same_session(a, b, label);
        EXPECT_EQ(b.cache_hits, 0) << label;
        EXPECT_EQ(b.cache_misses, 0) << label;
        // Every applied test is a hit or a miss; a session that ends
        // because nothing splits pays one more (terminal) miss.
        const long choices = a.cache_hits + a.cache_misses;
        EXPECT_TRUE(choices == a.tests_applied() ||
                    choices == a.tests_applied() + 1)
            << label;
        EXPECT_EQ(std::count_if(a.applied.begin(), a.applied.end(),
                                [](const AppliedTest& test) {
                                  return test.from_cache;
                                }),
                  a.cache_hits)
            << label;
      }
    }
    // Every session starts at the same root state, so the cache replays
    // the root decision for all sessions after the first.
    EXPECT_GT(cached.cache_nodes(), 0);
  }
}

TEST(AdaptiveDiagnosisTest, CacheNodesCountDistinctSessionStates) {
  // Oracle for cache_nodes(): replay every uncached session through a
  // scalar-simulated outcome table and count the distinct (applied set,
  // surviving set, fault-free alive) states it passes through, root
  // included. Following stored edges must intern exactly these nodes.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  const Simulator simulator(array);
  std::vector<std::vector<Outcome>> table(set.vectors.size());
  std::vector<Outcome> expected(set.vectors.size());
  for (std::size_t v = 0; v < set.vectors.size(); ++v) {
    expected[v] = pack(set.vectors[v].expected);
    for (const FaultScenario& scenario : universe) {
      table[v].push_back(
          pack(simulator.readings(set.vectors[v].states, scenario)));
    }
  }
  std::vector<FaultScenario> truths = universe;
  truths.push_back({});
  for (const bool stop_when_isolated : {true, false}) {
    Options options;
    options.stop_when_isolated = stop_when_isolated;
    Options uncached_options = options;
    uncached_options.use_dd_cache = false;
    AdaptiveDiagnoser cached(array, set.vectors, universe, options);
    AdaptiveDiagnoser uncached(array, set.vectors, universe,
                               uncached_options);
    std::set<std::tuple<std::vector<int>, std::vector<int>, bool>> states;
    for (const FaultScenario& truth : truths) {
      cached.run(truth);
      const auto session = uncached.run(truth);
      std::vector<int> applied;
      std::vector<int> alive(universe.size());
      std::iota(alive.begin(), alive.end(), 0);
      bool fault_free_alive = options.include_fault_free;
      states.emplace(applied, alive, fault_free_alive);
      for (const AppliedTest& test : session.applied) {
        const auto v = static_cast<std::size_t>(test.vector_index);
        applied.insert(std::upper_bound(applied.begin(), applied.end(),
                                        test.vector_index),
                       test.vector_index);
        std::erase_if(alive, [&](int h) {
          return table[v][static_cast<std::size_t>(h)] != test.outcome;
        });
        fault_free_alive = fault_free_alive && expected[v] == test.outcome;
        states.emplace(applied, alive, fault_free_alive);
      }
      ASSERT_EQ(alive, session.surviving) << to_string(truth);
      ASSERT_EQ(fault_free_alive, session.fault_free_consistent)
          << to_string(truth);
    }
    EXPECT_EQ(cached.cache_nodes(), static_cast<int>(states.size()))
        << "stop_when_isolated=" << stop_when_isolated;
  }
}

TEST(AdaptiveDiagnosisTest, MaxTestsCutOnAReplayedState) {
  // The second pass walks stored edges only, so the max_tests cut lands on
  // a state whose surviving list lives in the DD node alone.
  constexpr int kCut = 2;
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  Options options;
  options.max_tests = kCut;
  Options uncached_options = options;
  uncached_options.use_dd_cache = false;
  AdaptiveDiagnoser cached(array, set.vectors, universe, options);
  AdaptiveDiagnoser uncached(array, set.vectors, universe, uncached_options);
  std::vector<FaultScenario> truths = universe;
  truths.push_back({});
  for (const FaultScenario& truth : truths) cached.run(truth);
  const int nodes = cached.cache_nodes();
  int cut = 0;
  for (const FaultScenario& truth : truths) {
    const auto replay = cached.run(truth);
    const auto reference = uncached.run(truth);
    expect_same_session(replay, reference, to_string(truth));
    if (replay.tests_applied() == kCut) {
      ++cut;
      EXPECT_EQ(replay.cache_hits, kCut) << to_string(truth);
      EXPECT_EQ(replay.cache_misses, 0) << to_string(truth);
    }
  }
  EXPECT_GT(cut, 0);
  EXPECT_EQ(cached.cache_nodes(), nodes);
}

TEST(AdaptiveDiagnosisTest, StopTokenCutOnAReplayedState) {
  // A respond callback trips the stop token after kCut responses of a
  // replayed session; the result must match an uncached session cut at
  // the same point.
  constexpr int kCut = 2;
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  Options reference_options;
  reference_options.use_dd_cache = false;
  reference_options.max_tests = kCut;
  AdaptiveDiagnoser reference(array, set.vectors, universe,
                              reference_options);
  const Simulator simulator(array);
  std::vector<FaultScenario> truths;
  for (std::size_t h = 0; h < universe.size(); h += 7) {
    truths.push_back(universe[h]);
  }
  truths.push_back({});
  int cut = 0;
  for (const FaultScenario& truth : truths) {
    common::StopSource source;
    Options options;
    options.stop = source.token();
    AdaptiveDiagnoser cached(array, set.vectors, universe, options);
    int responses = 0;
    bool armed = false;
    const auto respond = [&](const TestVector& vector) {
      if (armed && ++responses == kCut) source.request_stop();
      return pack(simulator.readings(vector.states, truth));
    };
    const auto warm = cached.run(respond);
    if (warm.tests_applied() <= kCut) continue;
    armed = true;
    const auto replay = cached.run(respond);
    const auto expected = reference.run(truth);
    ++cut;
    EXPECT_TRUE(replay.interrupted) << to_string(truth);
    ASSERT_EQ(replay.tests_applied(), kCut) << to_string(truth);
    EXPECT_EQ(replay.cache_hits, kCut) << to_string(truth);
    EXPECT_EQ(replay.surviving, expected.surviving) << to_string(truth);
    EXPECT_EQ(replay.fault_free_consistent, expected.fault_free_consistent)
        << to_string(truth);
    EXPECT_EQ(replay.eliminated, expected.eliminated) << to_string(truth);
  }
  EXPECT_GT(cut, 0);
}

TEST(AdaptiveDiagnosisTest, RepeatSessionsHitTheCache) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), {});
  const auto truth = diagnoser.universe()[3];
  const auto first = diagnoser.run(truth);
  const auto second = diagnoser.run(truth);
  // The replay walks exactly the path the first session carved: every
  // applied test comes back from the cache. (A terminal "nothing splits"
  // state stores no test, so at most one miss can remain.)
  EXPECT_EQ(second.cache_hits, second.tests_applied());
  EXPECT_LE(second.cache_misses, 1);
  ASSERT_EQ(second.tests_applied(), first.tests_applied());
  for (int t = 0; t < first.tests_applied(); ++t) {
    EXPECT_EQ(second.applied[static_cast<std::size_t>(t)].vector_index,
              first.applied[static_cast<std::size_t>(t)].vector_index);
    EXPECT_TRUE(second.applied[static_cast<std::size_t>(t)].from_cache);
  }
  EXPECT_EQ(second.surviving, first.surviving);
}

TEST(AdaptiveDiagnosisTest, MaxTestsCapsTheSession) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  Options options;
  options.max_tests = 2;
  options.stop_when_isolated = false;
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), options);
  const auto session = diagnoser.run(diagnoser.universe()[0]);
  EXPECT_EQ(session.tests_applied(), 2);
}

TEST(AdaptiveDiagnosisTest, StopTokenInterruptsSession) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  common::StopSource source;
  source.request_stop();
  Options options;
  options.stop = source.token();
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), options);
  const auto session = diagnoser.run(diagnoser.universe()[0]);
  EXPECT_TRUE(session.interrupted);
  EXPECT_EQ(session.tests_applied(), 0);
}

TEST(DecisionDiagramCacheTest, InternDeduplicatesAndSeparatesTheSentinel) {
  DecisionDiagramCache cache;
  const std::vector<std::uint64_t> applied = {0b101};
  const std::vector<int> faults_only = {1, 4, 7};
  const std::vector<int> with_sentinel = {1, 4, 7, 9};
  const int node = cache.intern(applied, faults_only);
  EXPECT_EQ(cache.intern(applied, std::vector<int>{1, 4, 7}), node);
  const int sentinel_node = cache.intern(applied, with_sentinel);
  EXPECT_NE(sentinel_node, node);
  const std::vector<std::uint64_t> other_applied = {0b110};
  EXPECT_NE(cache.intern(other_applied, faults_only), node);
  EXPECT_EQ(cache.node_count(), 3);
  EXPECT_EQ(cache.chosen_test(node), DecisionDiagramCache::kNoTest);
  const auto key = cache.surviving(sentinel_node);
  EXPECT_EQ(std::vector<int>(key.begin(), key.end()), with_sentinel);
}

TEST(DecisionDiagramCacheTest, ChildIsNoNodeForAnUnseenOutcome) {
  DecisionDiagramCache cache;
  const std::vector<std::uint64_t> root_applied = {0};
  const std::vector<std::uint64_t> child_applied = {0b1};
  const int root = cache.intern(root_applied, std::vector<int>{0, 1, 2});
  const int child = cache.intern(child_applied, std::vector<int>{1});
  EXPECT_EQ(cache.child(root, 3), DecisionDiagramCache::kNoNode);
  cache.set_chosen_test(root, 0);
  cache.link_child(root, 3, child);
  EXPECT_EQ(cache.child(root, 3), child);
  EXPECT_EQ(cache.child(root, 2), DecisionDiagramCache::kNoNode);
  EXPECT_EQ(cache.child(child, 3), DecisionDiagramCache::kNoNode);
}

TEST(DecisionDiagramCacheTest, LinkChildRejectsAConflictingChild) {
  DecisionDiagramCache cache;
  const std::vector<std::uint64_t> root_applied = {0};
  const std::vector<std::uint64_t> child_applied = {0b1};
  const int root = cache.intern(root_applied, std::vector<int>{0, 1, 2});
  const int first = cache.intern(child_applied, std::vector<int>{1});
  const int second = cache.intern(child_applied, std::vector<int>{2});
  cache.link_child(root, 3, first);
  cache.link_child(root, 3, first);  // relinking the same child is fine
  EXPECT_THROW(cache.link_child(root, 3, second), common::Error);
  EXPECT_EQ(cache.child(root, 3), first);
}

}  // namespace
}  // namespace fpva::sim::diagnosis

// Tests for the diagnosis engine: cached sessions against an uncached
// reference session built on the scalar simulator, the static path against
// the full-signature match, the diagnosability report (pinned on the
// Table-I presets), determinism across thread counts, the decision-diagram
// walk (node count, cuts on replayed states, the cache's own contract), and
// the actual adaptivity win (fewer tests to isolation than the static
// order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/coverage.h"
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

/// Single stuck-at faults and control leaks.
std::vector<FaultScenario> stuck_and_leak_universe(
    const grid::ValveArray& array) {
  std::vector<FaultScenario> universe = single_fault_universe(array);
  for (const Fault& leak : control_leak_universe(array)) {
    universe.push_back({leak});
  }
  return universe;
}

/// Stuck-at faults, control leaks and two-fault sets pairing a
/// degraded-flow valve with a stuck-at fault on another valve.
std::vector<FaultScenario> mixed_universe(const grid::ValveArray& array) {
  std::vector<FaultScenario> universe = stuck_and_leak_universe(array);
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

/// The session rules re-derived without the library's outcome table or
/// decision-diagram cache: outcomes come from the scalar simulator, the
/// surviving set is a plain list, kInfoGain picks the argmin of
/// sum_o n_o*log2(n_o) (ties to the lowest index) and stops at <= 1 alive
/// hypothesis, kStaticOrder takes the next vector in input order.
class ReferenceSession {
 public:
  ReferenceSession(const grid::ValveArray& array,
                   const std::vector<TestVector>& vectors,
                   const std::vector<FaultScenario>& universe)
      : simulator_(array), vectors_(vectors) {
    for (const TestVector& vector : vectors_) {
      expected_.push_back(pack(vector.expected));
      std::vector<Outcome> row;
      for (const FaultScenario& scenario : universe) {
        row.push_back(pack(simulator_.readings(vector.states, scenario)));
      }
      table_.push_back(std::move(row));
    }
  }

  Outcome outcome(std::size_t v, int h) const {
    return table_[v][static_cast<std::size_t>(h)];
  }
  Outcome expected(std::size_t v) const { return expected_[v]; }
  Outcome respond(std::size_t v, const FaultScenario& truth) const {
    return pack(simulator_.readings(vectors_[v].states, truth));
  }

  /// A session diagnosing `truth`. `cut` > 0 ends it as interrupted once
  /// that many tests are applied, as a stop token tripped during the
  /// cut-th response does.
  SessionResult run(Policy policy, const FaultScenario& truth,
                    int cut = 0) const {
    SessionResult result;
    std::vector<int> alive(table_.empty() ? 0 : table_[0].size());
    std::iota(alive.begin(), alive.end(), 0);
    bool fault_free_alive = true;
    std::vector<char> used(vectors_.size(), 0);
    while (true) {
      if (cut > 0 && result.tests_applied() == cut) {
        result.interrupted = true;
        break;
      }
      if (policy == Policy::kInfoGain &&
          alive.size() + (fault_free_alive ? 1 : 0) <= 1) {
        break;
      }
      const int test = policy == Policy::kStaticOrder
                           ? next_unused(used)
                           : most_informative(used, alive, fault_free_alive);
      if (test < 0) break;
      const auto v = static_cast<std::size_t>(test);
      used[v] = 1;
      AppliedTest applied;
      applied.vector_index = test;
      applied.outcome = respond(v, truth);
      applied.surviving_before = static_cast<int>(alive.size());
      std::erase_if(alive,
                    [&](int h) { return outcome(v, h) != applied.outcome; });
      const bool fault_free_before = fault_free_alive;
      fault_free_alive = fault_free_alive && expected_[v] == applied.outcome;
      applied.surviving_after = static_cast<int>(alive.size());
      result.eliminated += applied.surviving_before -
                           applied.surviving_after +
                           (fault_free_before && !fault_free_alive ? 1 : 0);
      result.applied.push_back(applied);
    }
    result.surviving = alive;
    result.fault_free_consistent = fault_free_alive;
    return result;
  }

 private:
  static int next_unused(const std::vector<char>& used) {
    const auto it = std::find(used.begin(), used.end(), 0);
    return it == used.end() ? -1 : static_cast<int>(it - used.begin());
  }

  int most_informative(const std::vector<char>& used,
                       const std::vector<int>& alive,
                       bool fault_free_alive) const {
    int best = -1;
    double best_cost = 0.0;
    for (std::size_t v = 0; v < vectors_.size(); ++v) {
      if (used[v]) continue;
      std::map<Outcome, long> classes;
      for (const int h : alive) ++classes[outcome(v, h)];
      if (fault_free_alive) ++classes[expected_[v]];
      if (classes.size() < 2) continue;
      double cost = 0.0;
      for (const auto& [outcome, count] : classes) {
        const auto n = static_cast<double>(count);
        cost += n * std::log2(n);
      }
      if (best < 0 || cost < best_cost) {
        best = static_cast<int>(v);
        best_cost = cost;
      }
    }
    return best;
  }

  Simulator simulator_;
  std::vector<TestVector> vectors_;
  std::vector<std::vector<Outcome>> table_;  ///< table_[v][h]
  std::vector<Outcome> expected_;
};

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

std::string policy_name(Policy policy) {
  return policy == Policy::kStaticOrder ? "static" : "info-gain";
}

Options with_policy(Policy policy) {
  Options options;
  options.policy = policy;
  return options;
}

TEST(AdaptiveDiagnosisTest, StaticPathIsTheFullSignatureMatch) {
  // kStaticOrder applies every vector, and its survivors are exactly the
  // hypotheses whose whole scalar-simulated signature matches the truth's.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  const ReferenceSession reference(array, set.vectors, universe);
  AdaptiveDiagnoser diagnoser(array, set.vectors, universe,
                              with_policy(Policy::kStaticOrder));
  std::vector<FaultScenario> truths = universe;
  truths.push_back({});
  for (const FaultScenario& truth : truths) {
    const auto session = diagnoser.run(truth);
    expect_same_session(session,
                        reference.run(Policy::kStaticOrder, truth),
                        to_string(truth));
    EXPECT_EQ(session.tests_applied(),
              static_cast<int>(set.vectors.size()))
        << to_string(truth);
    std::vector<int> matches;
    for (int h = 0; h < static_cast<int>(universe.size()); ++h) {
      bool match = true;
      for (std::size_t v = 0; v < set.vectors.size(); ++v) {
        match = match &&
                reference.outcome(v, h) == reference.respond(v, truth);
      }
      if (match) matches.push_back(h);
    }
    bool healthy_match = true;
    for (std::size_t v = 0; v < set.vectors.size(); ++v) {
      healthy_match = healthy_match &&
                      reference.expected(v) == reference.respond(v, truth);
    }
    EXPECT_EQ(session.surviving, matches) << to_string(truth);
    EXPECT_EQ(session.fault_free_consistent, healthy_match)
        << to_string(truth);
  }
}

TEST(AdaptiveDiagnosisTest, FaultFreeChipStaysConsistent) {
  // The generated set detects every stuck fault, so both policies must end
  // with the healthy chip as the only live hypothesis.
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  for (const Policy policy : {Policy::kInfoGain, Policy::kStaticOrder}) {
    AdaptiveDiagnoser diagnoser(array, set.vectors,
                                single_fault_universe(array),
                                with_policy(policy));
    const auto session = diagnoser.run(FaultScenario{});
    EXPECT_TRUE(session.fault_free_consistent) << policy_name(policy);
    EXPECT_TRUE(session.surviving.empty()) << policy_name(policy);
    EXPECT_TRUE(session.isolated()) << policy_name(policy);
  }
}

TEST(AdaptiveDiagnosisTest, TrueHypothesisAlwaysSurvives) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  for (const Policy policy : {Policy::kInfoGain, Policy::kStaticOrder}) {
    AdaptiveDiagnoser diagnoser(array, set.vectors,
                                single_fault_universe(array),
                                with_policy(policy));
    for (std::size_t h = 0; h < diagnoser.universe().size(); ++h) {
      const auto session = diagnoser.run(diagnoser.universe()[h]);
      const std::string label =
          to_string(diagnoser.universe()[h]) + " " + policy_name(policy);
      EXPECT_NE(std::find(session.surviving.begin(), session.surviving.end(),
                          static_cast<int>(h)),
                session.surviving.end())
          << label;
      EXPECT_FALSE(session.fault_free_consistent) << label;
    }
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
  // The adaptivity win: summed tests-to-isolate over every single-fault
  // truth must strictly drop versus the input order with the same early
  // stop. The static count is read off the full static session's trail:
  // the first test after which at most one hypothesis (healthy chip
  // included) is alive.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  AdaptiveDiagnoser smart(array, set.vectors, single_fault_universe(array),
                          with_policy(Policy::kInfoGain));
  AdaptiveDiagnoser dumb(array, set.vectors, single_fault_universe(array),
                         with_policy(Policy::kStaticOrder));
  long smart_tests = 0;
  long dumb_tests = 0;
  for (const FaultScenario& truth : smart.universe()) {
    smart_tests += smart.run(truth).tests_applied();
    const auto full = dumb.run(truth);
    bool fault_free_alive = true;
    int tests = full.tests_applied();
    for (int t = 0; t < full.tests_applied(); ++t) {
      const AppliedTest& test = full.applied[static_cast<std::size_t>(t)];
      fault_free_alive =
          fault_free_alive &&
          test.outcome ==
              pack(set.vectors[static_cast<std::size_t>(test.vector_index)]
                       .expected);
      if (test.surviving_after + (fault_free_alive ? 1 : 0) <= 1) {
        tests = t + 1;
        break;
      }
    }
    dumb_tests += tests;
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

TEST(AdaptiveDiagnosisTest, CachedSessionsMatchTheReference) {
  // Walking the decision diagram is purely a speedup: every session field
  // but from_cache matches the reference session, over a mixed universe
  // and the healthy chip, under both policies. Two passes make the second
  // one replay stored edges end to end.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  const ReferenceSession reference(array, set.vectors, universe);
  std::vector<FaultScenario> truths = universe;
  truths.push_back({});
  for (const Policy policy : {Policy::kInfoGain, Policy::kStaticOrder}) {
    AdaptiveDiagnoser cached(array, set.vectors, universe,
                             with_policy(policy));
    for (int pass = 0; pass < 2; ++pass) {
      for (const FaultScenario& truth : truths) {
        const std::string label = to_string(truth) + " " +
                                  policy_name(policy) + " pass " +
                                  std::to_string(pass);
        const auto a = cached.run(truth);
        expect_same_session(a, reference.run(policy, truth), label);
        // Every applied test is a hit or a miss; a session that ends
        // because nothing splits pays one more (terminal) miss, while an
        // info-gain session stops at isolation before any lookup.
        const bool stopped_at_isolation =
            policy == Policy::kInfoGain && a.isolated();
        EXPECT_EQ(a.cache_hits + a.cache_misses,
                  a.tests_applied() + (stopped_at_isolation ? 0 : 1))
            << label;
        EXPECT_EQ(std::count_if(a.applied.begin(), a.applied.end(),
                                [](const AppliedTest& test) {
                                  return test.from_cache;
                                }),
                  a.cache_hits)
            << label;
        if (pass == 1) {
          EXPECT_EQ(a.cache_hits, a.tests_applied()) << label;
        }
      }
    }
  }
}

TEST(AdaptiveDiagnosisTest, CacheNodesCountDistinctSessionStates) {
  // Oracle for cache_nodes(): replay every reference session through the
  // scalar-simulated outcome table and count the distinct (applied set,
  // surviving set, fault-free alive) states it passes through, root
  // included. Following stored edges must intern exactly these nodes.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  const ReferenceSession reference(array, set.vectors, universe);
  std::vector<FaultScenario> truths = universe;
  truths.push_back({});
  for (const Policy policy : {Policy::kInfoGain, Policy::kStaticOrder}) {
    AdaptiveDiagnoser cached(array, set.vectors, universe,
                             with_policy(policy));
    std::set<std::tuple<std::vector<int>, std::vector<int>, bool>> states;
    for (const FaultScenario& truth : truths) {
      cached.run(truth);
      const auto session = reference.run(policy, truth);
      std::vector<int> applied;
      std::vector<int> alive(universe.size());
      std::iota(alive.begin(), alive.end(), 0);
      bool fault_free_alive = true;
      states.emplace(applied, alive, fault_free_alive);
      for (const AppliedTest& test : session.applied) {
        const auto v = static_cast<std::size_t>(test.vector_index);
        applied.insert(std::upper_bound(applied.begin(), applied.end(),
                                        test.vector_index),
                       test.vector_index);
        std::erase_if(alive, [&](int h) {
          return reference.outcome(v, h) != test.outcome;
        });
        fault_free_alive =
            fault_free_alive && reference.expected(v) == test.outcome;
        states.emplace(applied, alive, fault_free_alive);
      }
    }
    EXPECT_EQ(cached.cache_nodes(), static_cast<int>(states.size()))
        << policy_name(policy);
  }
}

TEST(AdaptiveDiagnosisTest, StopTokenCutOnAReplayedState) {
  // For every truth: a warm-up session stores the path, then a replay
  // whose respond callback trips the stop token on the kCut-th response.
  // The replay walks stored edges only, so the cut lands on a state whose
  // surviving list lives in the DD node alone; it must match the reference
  // session cut at the same point and intern nothing new.
  constexpr int kCut = 2;
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  const ReferenceSession reference(array, set.vectors, universe);
  const Simulator simulator(array);
  std::vector<FaultScenario> truths = universe;
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
    if (cached.run(respond).tests_applied() <= kCut) continue;
    const int nodes = cached.cache_nodes();
    armed = true;
    const auto replay = cached.run(respond);
    ++cut;
    expect_same_session(replay,
                        reference.run(Policy::kInfoGain, truth, kCut),
                        to_string(truth));
    EXPECT_TRUE(replay.interrupted) << to_string(truth);
    EXPECT_EQ(replay.cache_hits, kCut) << to_string(truth);
    EXPECT_EQ(replay.cache_misses, 0) << to_string(truth);
    EXPECT_EQ(cached.cache_nodes(), nodes) << to_string(truth);
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

// ------------------------------------------------------- diagnosability

TEST(AdaptiveDiagnosisTest, DiagnosabilityMatchesScalarSignatureClasses) {
  // The report read off the outcome table equals the classes of whole
  // scalar-simulated signatures.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = mixed_universe(array);
  const ReferenceSession reference(array, set.vectors, universe);
  std::vector<Outcome> healthy;
  for (std::size_t v = 0; v < set.vectors.size(); ++v) {
    healthy.push_back(reference.expected(v));
  }
  std::map<std::vector<Outcome>, long> classes;
  long detected = 0;
  for (int h = 0; h < static_cast<int>(universe.size()); ++h) {
    std::vector<Outcome> signature;
    for (std::size_t v = 0; v < set.vectors.size(); ++v) {
      signature.push_back(reference.outcome(v, h));
    }
    if (signature == healthy) continue;
    ++detected;
    ++classes[signature];
  }
  long confused = 0;
  for (const auto& [signature, count] : classes) {
    confused += count * (count - 1) / 2;
  }
  const AdaptiveDiagnoser diagnoser(array, set.vectors, universe, {});
  const DiagnosabilityReport report = diagnoser.diagnosability();
  EXPECT_EQ(report.total_hypotheses, static_cast<int>(universe.size()));
  EXPECT_EQ(report.detected_hypotheses, detected);
  EXPECT_EQ(report.equivalence_classes, static_cast<int>(classes.size()));
  EXPECT_EQ(report.total_pairs, detected * (detected - 1) / 2);
  EXPECT_EQ(report.distinguished_pairs, report.total_pairs - confused);
}

TEST(AdaptiveDiagnosisTest, DiagnosabilityOfTheTable1Presets) {
  // Default generator, stuck-at plus control-leak universe.
  struct Pin {
    int n;
    int total;
    int detected;
    int classes;
    long distinguished;
    long pairs;
  };
  for (const Pin& pin : {Pin{5, 196, 194, 80, 18457, 18721},
                         Pin{10, 969, 967, 466, 465820, 467061}}) {
    const auto array = grid::table1_array(pin.n);
    const auto set = core::generate_test_set(array);
    const AdaptiveDiagnoser diagnoser(array, set.vectors,
                                      stuck_and_leak_universe(array), {});
    const DiagnosabilityReport report = diagnoser.diagnosability();
    EXPECT_EQ(report.total_hypotheses, pin.total) << pin.n;
    EXPECT_EQ(report.detected_hypotheses, pin.detected) << pin.n;
    EXPECT_EQ(report.equivalence_classes, pin.classes) << pin.n;
    EXPECT_EQ(report.distinguished_pairs, pin.distinguished) << pin.n;
    EXPECT_EQ(report.total_pairs, pin.pairs) << pin.n;
  }
}

TEST(AdaptiveDiagnosisTest, DiagnosabilityReportIsConsistent) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const AdaptiveDiagnoser diagnoser(array, set.vectors,
                                    single_fault_universe(array), {});
  const DiagnosabilityReport report = diagnoser.diagnosability();
  EXPECT_EQ(report.total_hypotheses,
            static_cast<int>(diagnoser.universe().size()));
  // The generated set detects every stuck fault (see generator tests).
  EXPECT_EQ(report.detected_hypotheses, report.total_hypotheses);
  EXPECT_GE(report.equivalence_classes, 1);
  EXPECT_LE(report.equivalence_classes, report.detected_hypotheses);
  EXPECT_LE(report.distinguished_pairs, report.total_pairs);
  EXPECT_GE(report.resolution(), 0.0);
  EXPECT_LE(report.resolution(), 1.0);
  // A compact detection-oriented set still tells most fault pairs apart.
  EXPECT_GT(report.resolution(), 0.5);
}

TEST(AdaptiveDiagnosisTest, MoreVectorsNeverReduceResolution) {
  // The thin set is the path-stage prefix of the full program.
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  const std::vector<sim::TestVector> thin(
      set.vectors.begin(), set.vectors.begin() + set.path_stage.vectors);
  const auto universe = single_fault_universe(array);
  const AdaptiveDiagnoser thin_diagnoser(array, thin, universe, {});
  const AdaptiveDiagnoser full_diagnoser(array, set.vectors, universe, {});
  const auto thin_report = thin_diagnoser.diagnosability();
  const auto full_report = full_diagnoser.diagnosability();
  EXPECT_GE(full_report.detected_hypotheses,
            thin_report.detected_hypotheses);
  EXPECT_GE(full_report.equivalence_classes,
            thin_report.equivalence_classes);
}

// --------------------------------------------------- DecisionDiagramCache

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

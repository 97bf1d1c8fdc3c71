#include "sim/diagnosis/adaptive.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace fpva::sim::diagnosis {

namespace {

Outcome pack_readings(const std::vector<bool>& readings) {
  Outcome packed = 0;
  for (std::size_t s = 0; s < readings.size(); ++s) {
    if (readings[s]) packed |= Outcome{1} << s;
  }
  return packed;
}

}  // namespace

AdaptiveDiagnoser::AdaptiveDiagnoser(const grid::ValveArray& array,
                                     std::vector<TestVector> vectors,
                                     std::vector<FaultScenario> universe,
                                     const Options& options)
    : oracle_(array),
      vectors_(std::move(vectors)),
      universe_(std::move(universe)),
      options_(options) {
  const int sinks = oracle_.sink_count();
  common::check(sinks <= 32,
                "AdaptiveDiagnoser: >32 sinks cannot pack into an Outcome");
  expected_.resize(vectors_.size());
  for (std::size_t v = 0; v < vectors_.size(); ++v) {
    common::check(
        static_cast<int>(vectors_[v].expected.size()) == sinks,
        "AdaptiveDiagnoser: vector expected-arity != sink count");
    expected_[v] = pack_readings(vectors_[v].expected);
  }

  // The root state: nothing applied, every hypothesis alive, the healthy
  // chip (sentinel |universe|) included.
  const std::size_t hypotheses = universe_.size();
  std::vector<int> everyone(hypotheses + 1);
  std::iota(everyone.begin(), everyone.end(), 0);
  root_ = cache_.intern(
      std::vector<std::uint64_t>((vectors_.size() + 63) / 64, 0), everyone);

  // Precompute every (vector, hypothesis) outcome bit-parallel. Jobs are
  // one vector each and write disjoint rows, so the table content — and
  // everything decided from it — is independent of the worker count.
  outcomes_.assign(vectors_.size() * hypotheses, 0);
  if (hypotheses == 0 || vectors_.empty()) return;
  std::vector<std::unique_ptr<BatchSimulator>> workers(
      static_cast<std::size_t>(
          common::plan_workers(options_.threads, vectors_.size())));
  common::run_jobs(
      options_.threads, vectors_.size(), [&](int worker, std::size_t v) {
        auto& batch = workers[static_cast<std::size_t>(worker)];
        if (!batch) batch = std::make_unique<BatchSimulator>(array);
        Outcome* row = outcomes_.data() + v * hypotheses;
        for (std::size_t base = 0; base < hypotheses;
             base += BatchSimulator::kLanes) {
          const std::size_t count = std::min<std::size_t>(
              BatchSimulator::kLanes, hypotheses - base);
          const auto readings = batch->readings(
              vectors_[v].states,
              std::span<const FaultScenario>(universe_.data() + base,
                                             count));
          for (std::size_t s = 0; s < readings.size(); ++s) {
            for (std::size_t lane = 0; lane < count; ++lane) {
              row[base + lane] |= static_cast<Outcome>(
                                      (readings[s] >> lane) & 1)
                                  << s;
            }
          }
        }
      });
}

int AdaptiveDiagnoser::pick_test(const std::vector<char>& used,
                                 std::span<const int> surviving,
                                 bool fault_free_alive) const {
  if (options_.policy == Policy::kStaticOrder) {
    for (std::size_t v = 0; v < vectors_.size(); ++v) {
      if (!used[v]) return static_cast<int>(v);
    }
    return -1;
  }
  // run() only asks with at least two hypotheses alive.
  const std::size_t hypotheses = universe_.size();
  int best = -1;
  double best_cost = 0.0;
  for (std::size_t v = 0; v < vectors_.size(); ++v) {
    if (used[v]) continue;
    // Outcome multiset of this vector over the alive hypotheses.
    scratch_outcomes_.clear();
    const Outcome* row = outcomes_.data() + v * hypotheses;
    for (const int h : surviving) {
      scratch_outcomes_.push_back(row[h]);
    }
    if (fault_free_alive) scratch_outcomes_.push_back(expected_[v]);
    std::sort(scratch_outcomes_.begin(), scratch_outcomes_.end());
    if (scratch_outcomes_.front() == scratch_outcomes_.back()) {
      continue;  // one outcome class: the vector cannot split anything
    }
    // sum_o n_o*log2(n_o), accumulated over sorted runs so the floating
    // sum has one deterministic evaluation order.
    double cost = 0.0;
    std::size_t run_start = 0;
    for (std::size_t i = 1; i <= scratch_outcomes_.size(); ++i) {
      if (i == scratch_outcomes_.size() ||
          scratch_outcomes_[i] != scratch_outcomes_[run_start]) {
        const auto n = static_cast<double>(i - run_start);
        cost += n * std::log2(n);
        run_start = i;
      }
    }
    // Strict < ties to the lowest vector index.
    if (best < 0 || cost < best_cost) {
      best = static_cast<int>(v);
      best_cost = cost;
    }
  }
  return best;
}

SessionResult AdaptiveDiagnoser::run(
    const std::function<Outcome(const TestVector&)>& respond) {
  SessionResult result;
  const int hypotheses = static_cast<int>(universe_.size());
  // The state is DD node `node`: `survivors` fault-set hypotheses plus the
  // fault-free flag. The node's key is the surviving indices followed by
  // the sentinel |universe| while the fault-free hypothesis is alive (the
  // choice depends on it), and a known outcome edge moves the session
  // without touching the list.
  int node = root_;
  int survivors = hypotheses;
  bool fault_free_alive = true;
  std::vector<char> used(vectors_.size(), 0);
  std::vector<std::uint64_t> applied_words((vectors_.size() + 63) / 64, 0);

  // The current surviving list; valid until the next intern.
  const auto current = [&]() -> std::span<const int> {
    return cache_.surviving(node).first(static_cast<std::size_t>(survivors));
  };

  while (true) {
    if (options_.stop.stop_requested()) {
      result.interrupted = true;
      break;
    }
    const int alive = survivors + (fault_free_alive ? 1 : 0);
    if (options_.policy == Policy::kInfoGain && alive <= 1) break;

    int test = cache_.chosen_test(node);
    const bool from_cache = test != DecisionDiagramCache::kNoTest;
    if (from_cache) {
      ++result.cache_hits;
    } else {
      test = pick_test(used, current(), fault_free_alive);
      ++result.cache_misses;
      if (test >= 0) cache_.set_chosen_test(node, test);
    }
    if (test < 0) break;  // nothing left that could split the hypotheses

    const Outcome outcome = respond(vectors_[static_cast<std::size_t>(test)]);
    used[static_cast<std::size_t>(test)] = 1;
    applied_words[static_cast<std::size_t>(test) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(test) % 64);

    AppliedTest applied;
    applied.vector_index = test;
    applied.outcome = outcome;
    applied.from_cache = from_cache;
    applied.surviving_before = survivors;
    const bool fault_free_before = fault_free_alive;
    const int child = cache_.child(node, outcome);
    if (child != DecisionDiagramCache::kNoNode) {
      // Replayed edge: the child's key already is the filtered state.
      const std::span<const int> key = cache_.surviving(child);
      fault_free_alive = !key.empty() && key.back() == hypotheses;
      survivors = static_cast<int>(key.size()) - (fault_free_alive ? 1 : 0);
      node = child;
    } else {
      const Outcome* row = outcomes_.data() +
                           static_cast<std::size_t>(test) *
                               static_cast<std::size_t>(hypotheses);
      std::vector<int> next;
      next.reserve(static_cast<std::size_t>(survivors));
      for (const int h : current()) {
        if (row[h] == outcome) next.push_back(h);
      }
      survivors = static_cast<int>(next.size());
      fault_free_alive = fault_free_alive &&
                         expected_[static_cast<std::size_t>(test)] == outcome;
      if (fault_free_alive) next.push_back(hypotheses);
      const int id = cache_.intern(applied_words, next);
      cache_.link_child(node, outcome, id);
      node = id;
    }
    result.eliminated += applied.surviving_before - survivors +
                         (fault_free_before && !fault_free_alive ? 1 : 0);
    applied.surviving_after = survivors;
    result.applied.push_back(applied);
  }

  const std::span<const int> list = current();
  result.surviving.assign(list.begin(), list.end());
  result.fault_free_consistent = fault_free_alive;
  // Callers keep many sessions; drop the push_back growth slack.
  result.applied.shrink_to_fit();
  return result;
}

SessionResult AdaptiveDiagnoser::run(const FaultScenario& truth) {
  return run([&](const TestVector& vector) {
    return pack_readings(oracle_.readings(vector.states, truth));
  });
}

DiagnosabilityReport AdaptiveDiagnoser::diagnosability() const {
  DiagnosabilityReport report;
  const std::size_t hypotheses = universe_.size();
  report.total_hypotheses = static_cast<int>(hypotheses);
  // Outcome column of each detected hypothesis, sorted so that equal
  // columns (indistinguishable hypotheses) form runs.
  std::vector<std::vector<Outcome>> columns;
  for (std::size_t h = 0; h < hypotheses; ++h) {
    std::vector<Outcome> column(vectors_.size());
    for (std::size_t v = 0; v < vectors_.size(); ++v) {
      column[v] = outcomes_[v * hypotheses + h];
    }
    if (column != expected_) columns.push_back(std::move(column));
  }
  std::sort(columns.begin(), columns.end());
  const long n = static_cast<long>(columns.size());
  report.detected_hypotheses = static_cast<int>(n);
  report.total_pairs = n * (n - 1) / 2;
  long confused = 0;
  std::size_t run_start = 0;
  for (std::size_t i = 1; i <= columns.size(); ++i) {
    if (i == columns.size() || columns[i] != columns[run_start]) {
      const auto count = static_cast<long>(i - run_start);
      confused += count * (count - 1) / 2;
      ++report.equivalence_classes;
      run_start = i;
    }
  }
  report.distinguished_pairs = report.total_pairs - confused;
  return report;
}

}  // namespace fpva::sim::diagnosis

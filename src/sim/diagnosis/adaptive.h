// Adaptive fault diagnosis: sequential test selection by expected
// information gain.
//
// The signature matching in sim/diagnosis.h applies the whole test program
// and then reads off the surviving candidates. On a real tester every
// applied vector costs time, so a diagnosis flow wants to *order* tests so
// each one splits the surviving hypothesis space as evenly as possible —
// the classic sequential-diagnosis greedy. Hypotheses here are whole fault
// sets (any mix of stuck-at, control-leak and degraded-flow faults, plus
// optionally the fault-free chip), so the same machinery localizes
// multi-fault scenarios the single-fault matcher cannot explain.
//
// Selection minimizes the expected log-size of the surviving set: for a
// candidate vector with outcome multiplicities n_o over the m surviving
// hypotheses, the score sum_o n_o*log2(n_o) is m times the conditional
// entropy left after observing the outcome, so the argmin is the
// max-information-gain test. Ties break to the lowest vector index, and
// every input is scored in index order, which keeps sessions bit-identical
// across thread counts (threads only parallelize the outcome-table
// precompute).
//
// With Options::policy = kStaticOrder, use_dd_cache = false,
// stop_when_isolated = false and max_tests = 0 a session applies the whole
// program in input order and reproduces sim::diagnose() exactly; the tests
// pin that equivalence.
#ifndef FPVA_SIM_DIAGNOSIS_ADAPTIVE_H
#define FPVA_SIM_DIAGNOSIS_ADAPTIVE_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/stop.h"
#include "sim/batch.h"
#include "sim/diagnosis/dd_cache.h"
#include "sim/simulator.h"

namespace fpva::sim::diagnosis {

enum class Policy : std::uint8_t {
  kStaticOrder,  ///< apply vectors in input order (the fixed test program)
  kInfoGain,     ///< maximize expected information gain per applied test
};

struct Options {
  Policy policy = Policy::kInfoGain;
  /// Intern (applied, surviving) states in the decision-diagram cache,
  /// replay stored decisions and walk stored outcome edges. Purely a
  /// speedup: the cached choice is the same one pick_test would recompute,
  /// so results are bit-identical either way (see SimOptionsToggleTest).
  bool use_dd_cache = true;
  /// Stop as soon as at most one hypothesis survives. Off means "apply
  /// until nothing more can split" (or all vectors, for kStaticOrder).
  bool stop_when_isolated = true;
  /// Track the healthy chip as an extra hypothesis; diagnosis then also
  /// reports whether the observations are consistent with no fault at all.
  bool include_fault_free = true;
  int max_tests = 0;  ///< cap on applied vectors per session; 0 = no cap
  int threads = 1;    ///< workers for the outcome-table precompute
  /// Cooperative cancellation, polled before every test selection.
  common::StopToken stop;
};

/// Readings of one vector packed into bits (bit s = sink s pressurized).
using Outcome = std::uint32_t;

/// One applied test within a session, in application order.
struct AppliedTest {
  int vector_index = -1;
  Outcome outcome = 0;
  int surviving_before = 0;  ///< fault-set hypotheses (fault-free excluded)
  int surviving_after = 0;
  bool from_cache = false;   ///< choice replayed from the DD cache
};

struct SessionResult {
  std::vector<AppliedTest> applied;
  /// Indices into AdaptiveDiagnoser::universe() still consistent with
  /// every observed outcome, ascending.
  std::vector<int> surviving;
  bool fault_free_consistent = false;
  long eliminated = 0;   ///< hypotheses ruled out across the session
  long cache_hits = 0;   ///< test choices replayed from the DD cache
  long cache_misses = 0; ///< test choices computed and stored
  bool interrupted = false;  ///< Options::stop tripped mid-session

  int tests_applied() const { return static_cast<int>(applied.size()); }
  bool isolated() const {
    return static_cast<int>(surviving.size()) +
               (fault_free_consistent ? 1 : 0) <=
           1;
  }
};

/// Drives adaptive sessions over a fixed (array, vectors, universe)
/// triple. Construction precomputes the outcome of every (vector,
/// hypothesis) pair bit-parallel; each run() then only filters and scores.
///
/// Not thread-safe: sessions mutate the shared decision-diagram cache.
/// The array must outlive the diagnoser.
class AdaptiveDiagnoser {
 public:
  AdaptiveDiagnoser(const grid::ValveArray& array,
                    std::vector<TestVector> vectors,
                    std::vector<FaultScenario> universe,
                    const Options& options = {});

  /// Diagnoses a chip whose responses come from `respond` (packed readings
  /// of the vector it is handed).
  SessionResult run(const std::function<Outcome(const TestVector&)>& respond);

  /// Convenience: the chip is `array` with `truth` injected (simulated
  /// through the scalar oracle).
  SessionResult run(const FaultScenario& truth);

  const std::vector<TestVector>& vectors() const { return vectors_; }
  const std::vector<FaultScenario>& universe() const { return universe_; }
  const Options& options() const { return options_; }
  /// Distinct (applied, surviving) states interned so far.
  int cache_nodes() const { return cache_.node_count(); }

 private:
  /// The next test for the current state, or -1 when no unused vector can
  /// split the surviving hypotheses any further (kStaticOrder instead
  /// walks on through the remaining vectors).
  int pick_test(const std::vector<char>& used,
                std::span<const int> surviving, bool fault_free_alive) const;

  const grid::ValveArray* array_;
  Simulator oracle_;  ///< scalar simulator behind run(truth)
  std::vector<TestVector> vectors_;
  std::vector<FaultScenario> universe_;
  Options options_;
  /// outcomes_[v * |universe| + h]: packed readings of vectors_[v] under
  /// universe_[h].
  std::vector<Outcome> outcomes_;
  std::vector<Outcome> expected_;  ///< fault-free outcome per vector
  DecisionDiagramCache cache_;
  /// The empty-applied-set state, interned at the first test selection.
  int root_ = DecisionDiagramCache::kNoNode;
  mutable std::vector<Outcome> scratch_outcomes_;  ///< pick_test scratch
};

}  // namespace fpva::sim::diagnosis

#endif  // FPVA_SIM_DIAGNOSIS_ADAPTIVE_H

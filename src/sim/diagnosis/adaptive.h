// Fault diagnosis: which defect explains a failing chip?
//
// The paper stops at detection (pass/fail); a production flow also wants to
// know *which* defect explains a failing chip, e.g. to steer yield
// learning. Every hypothesis -- a fault set (any mix of stuck-at,
// control-leak and degraded-flow faults) or the healthy chip -- induces a
// deterministic outcome per test vector, so diagnosis filters the
// hypothesis universe by the observed outcomes, and the resolution limit of
// a test program is the partition of hypotheses into outcome-equivalence
// classes (AdaptiveDiagnoser::diagnosability()).
//
// Policy::kStaticOrder applies the whole program in input order: the
// survivors are exactly the hypotheses whose full response signature
// matches the chip's, which is the only sound match when the truth may lie
// outside the universe. On a real tester every applied vector costs time,
// so Policy::kInfoGain instead *orders* tests so each one splits the
// surviving hypotheses as evenly as possible -- the classic
// sequential-diagnosis greedy -- and stops once at most one hypothesis is
// left.
//
// Selection minimizes the expected log-size of the surviving set: for a
// candidate vector with outcome multiplicities n_o over the m surviving
// hypotheses, the score sum_o n_o*log2(n_o) is m times the conditional
// entropy left after observing the outcome, so the argmin is the
// max-information-gain test. Ties break to the lowest vector index, and
// every input is scored in index order, which keeps sessions bit-identical
// across thread counts (threads only parallelize the outcome-table
// precompute).
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
  /// Apply every vector in input order: the full-signature match.
  kStaticOrder,
  /// Maximize expected information gain per applied test; stop once at
  /// most one hypothesis survives or no unused vector splits the rest.
  kInfoGain,
};

struct Options {
  Policy policy = Policy::kInfoGain;
  int threads = 1;  ///< workers for the outcome-table precompute
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

/// How sharply the test program localizes the hypotheses of the universe.
struct DiagnosabilityReport {
  int total_hypotheses = 0;
  int detected_hypotheses = 0;  ///< outcomes differ from the healthy chip's
  int equivalence_classes = 0;  ///< distinct outcome columns among detected
  long total_pairs = 0;         ///< pairs of detected hypotheses
  long distinguished_pairs = 0;

  /// Fraction of detected-hypothesis pairs told apart by the program.
  double resolution() const {
    return total_pairs == 0
               ? 1.0
               : static_cast<double>(distinguished_pairs) /
                     static_cast<double>(total_pairs);
  }
};

struct SessionResult {
  std::vector<AppliedTest> applied;
  /// Indices into AdaptiveDiagnoser::universe() still consistent with
  /// every observed outcome, ascending.
  std::vector<int> surviving;
  /// The healthy chip also explains every observed outcome.
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
/// hypothesis) pair bit-parallel; each run() then only filters and scores,
/// walking the decision-diagram cache: a state seen by an earlier session
/// replays its stored test and outcome edges instead of re-scoring.
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

  /// Outcome-equivalence classes of the universe under the whole program,
  /// read off the precomputed outcome table.
  DiagnosabilityReport diagnosability() const;

  const std::vector<TestVector>& vectors() const { return vectors_; }
  const std::vector<FaultScenario>& universe() const { return universe_; }
  /// Distinct (applied, surviving) states interned so far.
  int cache_nodes() const { return cache_.node_count(); }

 private:
  /// The next test for the current state, or -1 when no unused vector can
  /// split the surviving hypotheses any further (kStaticOrder instead
  /// walks on through the remaining vectors).
  int pick_test(const std::vector<char>& used,
                std::span<const int> surviving, bool fault_free_alive) const;

  Simulator oracle_;  ///< scalar simulator behind run(truth)
  std::vector<TestVector> vectors_;
  std::vector<FaultScenario> universe_;
  Options options_;
  /// outcomes_[v * |universe| + h]: packed readings of vectors_[v] under
  /// universe_[h].
  std::vector<Outcome> outcomes_;
  std::vector<Outcome> expected_;  ///< fault-free outcome per vector
  DecisionDiagramCache cache_;
  /// The empty-applied-set state: every hypothesis alive.
  int root_ = DecisionDiagramCache::kNoNode;
  mutable std::vector<Outcome> scratch_outcomes_;  ///< pick_test scratch
};

}  // namespace fpva::sim::diagnosis

#endif  // FPVA_SIM_DIAGNOSIS_ADAPTIVE_H

// Hashed decision-diagram cache for adaptive diagnosis.
//
// Adaptive sessions over one array and vector set keep re-deriving the same
// question: "given the vectors applied so far and the hypotheses still
// alive, which test next?" This cache interns each such state as a node —
// open hashing on a 64-bit key with exact key-material verification on
// lookup, the hashed-node construction pattern of chuffed's MDD/opcache —
// and stores the chosen test plus outcome-indexed edges to successor
// states. The edge set grown across sessions is exactly a decision diagram
// of the diagnosis strategy, and later sessions walk it: a state with a
// stored test replays that decision instead of re-scoring every candidate
// vector, and an outcome with a stored edge moves the session to the child
// node by id. The child's key material is the filtered state, so a replayed
// step costs O(1) — only a state seen for the first time is hashed.
//
// Determinism: nodes get ids in interning order and the bucket map is only
// ever probed (never iterated), so nothing observable depends on hash
// layout.
#ifndef FPVA_SIM_DIAGNOSIS_DD_CACHE_H
#define FPVA_SIM_DIAGNOSIS_DD_CACHE_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace fpva::sim::diagnosis {

class DecisionDiagramCache {
 public:
  static constexpr int kNoNode = -1;
  static constexpr int kNoTest = -1;

  /// Interns the state (applied-vector bit words, surviving hypothesis
  /// indices, both exact key material); returns its node id, creating an
  /// undecided node on first sight.
  int intern(std::span<const std::uint64_t> applied_words,
             std::span<const int> surviving);

  /// The surviving key material `node` was interned with. Stays valid
  /// until the next intern().
  std::span<const int> surviving(int node) const;

  /// The test stored at `node`, or kNoTest while undecided.
  int chosen_test(int node) const;
  void set_chosen_test(int node, int test);

  /// Successor of `node` under `outcome`, or kNoNode.
  int child(int node, std::uint32_t outcome) const;
  void link_child(int node, std::uint32_t outcome, int child);

  int node_count() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    std::vector<std::uint64_t> applied;  ///< exact key material
    std::vector<int> surviving;          ///< exact key material
    int test = kNoTest;
    /// Outcome-indexed edges, sorted by outcome (a handful per node).
    std::vector<std::pair<std::uint32_t, int>> children;
    int next = kNoNode;  ///< hash-bucket collision chain
  };

  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, int> buckets_;  ///< probed, not iterated
};

}  // namespace fpva::sim::diagnosis

#endif  // FPVA_SIM_DIAGNOSIS_DD_CACHE_H

// Conflict-driven nogood learning for the ILP branch-and-bound.
//
// Lazy-clause-generation architecture (the CP solvers' propagation-with-
// explanations design, scaled down to bound literals over one linear
// model):
//
//  * explained propagation: the node propagation replays the Propagator's
//    rows, and every deduced bound records an explanation — the bounding
//    row plus the antecedent bounds the deduction actually used;
//  * 1-UIP conflict analysis: when a node propagates to infeasibility (a
//    row over-constrained, a domain emptied, the ceil-strengthened
//    objective-cutoff row violated, or a learned nogood fully satisfied),
//    the implication graph is resolved backwards to the first unique
//    implication point of the deepest decision level involved;
//  * learned-nogood pool: the resulting nogood — a conjunction of bound
//    conditions that no improving feasible point can satisfy — joins a
//    bounded pool that node propagation consults like extra rows, with
//    activity-based deletion (literal-block-distance tiebreak);
//  * backjumping: the analysis reports the assertion level, so the search
//    can discard every pending sibling below it and continue from one
//    asserted bound instead of plain DFS backtracking.
//
// Validity: nogoods derived purely from model rows are implied by the
// model and globally valid. Nogoods whose derivation touched the
// objective-cutoff row (`bound_based`) exclude only points that cannot
// beat the incumbent recorded at learning time; they stay valid for the
// rest of the search because the cutoff only ever tightens. Each such
// nogood records that cutoff so the explanation checker
// (tests/conflict_test.cpp) can re-derive it independently.
#ifndef FPVA_ILP_CONFLICT_H
#define FPVA_ILP_CONFLICT_H

#include <limits>
#include <map>
#include <vector>

#include "ilp/model.h"
#include "ilp/presolve.h"

namespace fpva::ilp {

/// One bound condition: `x_var >= value` when `is_lower`, else
/// `x_var <= value`.
struct BoundLit {
  int var = 0;
  bool is_lower = false;
  double value = 0.0;
};

/// A learned nogood: the conjunction of `lits` admits no feasible point
/// (no feasible point with objective <= `cutoff` when `bound_based`).
struct Nogood {
  std::vector<BoundLit> lits;
  double activity = 0.0;  ///< bumped when the nogood explains a conflict
  int lbd = 0;            ///< distinct decision levels at learning time
  bool bound_based = false;  ///< derivation used the objective-cutoff row
  /// Cutoff active at learning time; +inf for model-implied nogoods.
  double cutoff = std::numeric_limits<double>::infinity();
  /// When the conflict came from an LP refutation: the dual/Farkas weights
  /// over the *model* constraint rows whose aggregation refuted the node
  /// (lp::Solution::farkas_ray sign convention). The explanation checker
  /// re-derives the aggregated inequality from the model rows with these
  /// weights; empty for propagation-sourced nogoods.
  std::vector<double> lp_ray;
  /// The LP aggregation included the objective-cutoff row with weight 1
  /// (bound-based pruning: duals plus `c.x <= cutoff`). Implies
  /// bound_based, and `cutoff` holds the rhs the objective row used.
  bool lp_objective = false;
};

/// Hook for tests and diagnostics: sees every nogood the engine learns,
/// before pool insertion (and therefore independent of later deletion).
/// `model` is the model the search and its propagation actually run on.
class ConflictObserver {
 public:
  virtual ~ConflictObserver() = default;
  virtual void on_learned(const Model& model, const Nogood& nogood) = 0;
};

struct ConflictStats {
  long conflicts = 0;         ///< nodes refuted by explained propagation
  long lp_conflicts = 0;      ///< LP refutations analyzed into the trail
  long nogoods_learned = 0;   ///< nogoods added to the pool
  long nogoods_deleted = 0;   ///< nogoods evicted by pool reduction
  long nogood_propagations = 0;  ///< bounds tightened by pool unit steps
  long nogoods_imported = 0;  ///< foreign nogoods adopted via import_nogood
};

/// Per-node conflict analysis engine. Built once per search over the same
/// model as the Propagator whose rows it replays; propagate_node() is then
/// called with each node's decision chain.
class ConflictEngine {
 public:
  /// One branching decision: the bounds the branch imposed on `var`
  /// (applied as max/min against the inherited bounds, like the search's
  /// own bound deltas).
  struct Decision {
    int var = 0;
    double lower = 0.0;
    double upper = 0.0;
  };

  struct NodeOutcome {
    bool feasible = true;
    /// The refutation depended on the objective cutoff (directly or via a
    /// bound-based nogood): the subtree may still hold optimal-equal
    /// points, so the caller must fold the incumbent into its dual bound.
    bool bound_based = false;
    /// When true, the caller may discard every pending node deeper than
    /// `assertion_level` decisions and continue from the first
    /// `assertion_level` decisions of this node plus `asserted`.
    bool has_assertion = false;
    int assertion_level = 0;
    BoundLit asserted;
  };

  /// `propagator` and `model` must describe the same constraint system and
  /// outlive the engine. `observer` may be null. Past `pool_cap` learned
  /// nogoods (at least 16), the least active half (LBD tiebreak) is deleted.
  ConflictEngine(const Model& model, const Propagator& propagator,
                 int pool_cap, ConflictObserver* observer);

  /// The node-loop base bounds (the search's root bounds). Literals these
  /// bounds already satisfy are globally true and never enter a nogood.
  void set_root_bounds(const std::vector<double>& lower,
                       const std::vector<double>& upper);

  /// Rhs of the virtual objective-cutoff row `sum c_j x_j <= cutoff`;
  /// +inf disables it. Must only ever tighten over one search.
  void set_cutoff(double cutoff) { cutoff_ = cutoff; }

  /// Explained node propagation. On entry `lower`/`upper` must equal the
  /// root bounds; the engine applies `decisions` in order (recording the
  /// trail), then propagates rows, the cutoff row and the nogood pool to a
  /// fixpoint, tightening `lower`/`upper` in place. On a conflict it runs
  /// 1-UIP analysis, learns a nogood, and reports the backjump.
  NodeOutcome propagate_node(const std::vector<Decision>& decisions,
                             std::vector<double>& lower,
                             std::vector<double>& upper);

  /// Analyzes an LP refutation of the node whose (feasible) propagate_node
  /// call immediately preceded this one — the trail of that call is the
  /// implication graph the analysis resolves over, and `lower`/`upper`
  /// must be the same node-bound vectors that call tightened. `lits` is
  /// the conflicting bound set of the aggregated LP inequality (each lit
  /// holds under the node bounds, jointly infeasible), `lp_ray` the
  /// aggregation weights over the model rows, `lp_objective` whether the
  /// objective-cutoff row carried weight 1 (then `bound_based` must be
  /// true). The caller has already verified the certificate numerically.
  NodeOutcome analyze_lp_refutation(std::vector<BoundLit> lits,
                                    bool bound_based,
                                    std::vector<double> lp_ray,
                                    bool lp_objective,
                                    std::vector<double>& lower,
                                    std::vector<double>& upper);

  const ConflictStats& stats() const { return stats_; }
  /// Live pool (post-deletion); tests inspect it, the search never does.
  const std::vector<Nogood>& pool() const { return pool_; }

  /// Adopts a nogood learned by another engine over the same model (the
  /// parallel search's cross-worker exchange). The caller guarantees
  /// validity: model-implied clauses transfer unconditionally, and
  /// bound-based clauses transfer because the shared objective cutoff
  /// only ever tightens, so the importer's cutoff is at most the one the
  /// clause was derived under. `lits` must be in the learner's canonical
  /// (sorted) order. Duplicates and empty clauses are dropped (returns
  /// false). The observer is NOT notified — it documents locally derived
  /// clauses only. Must be called between propagate_node calls.
  bool import_nogood(const Nogood& nogood);

 private:
  // Reason kinds of a trail entry (reason_row values < 0).
  static constexpr int kReasonDecision = -1;
  static constexpr int kReasonCutoff = -2;
  static constexpr int kReasonNogood = -3;

  struct TrailEntry {
    BoundLit lit;            ///< the new, tighter bound
    double old_value = 0.0;  ///< bound before this entry
    int level = 0;           ///< max level over the antecedents
    int reason_row = kReasonDecision;  ///< row index or kReason* code
    int nogood = -1;         ///< pool index when reason_row == kReasonNogood
    int prev_pos = -1;       ///< previous entry on the same (var, side)
    int ante_begin = 0;      ///< antecedent range in ante_ arena
    int ante_end = 0;
    bool bound_based = false;  ///< reason is the cutoff / a bound-based nogood
  };

  // --- trail ---------------------------------------------------------------
  void reset_node_state();
  /// Records `lit` (strictly tighter than the current bound) and applies
  /// it. Antecedents are taken from ante_stage_ (consumed); the entry's
  /// level is the max antecedent level unless `decision_level` >= 0.
  void push_entry(const BoundLit& lit, int reason_row, int nogood_index,
                  int decision_level);
  int bound_pos(int var, bool is_lower) const;
  int bound_level(int var, bool is_lower) const;
  bool bound_is_bound_based(int var, bool is_lower) const;
  void mark_var_dirty(int var);

  // --- propagation ---------------------------------------------------------
  bool apply_decisions(const std::vector<Decision>& decisions);
  bool propagate_rows_and_pool();
  bool tighten_row(int row);     ///< model row; false = conflict staged
  bool tighten_cutoff_row();     ///< virtual objective row
  bool tighten_generic(const lp::Term* begin, const lp::Term* end,
                       lp::Sense sense, double rhs, int reason_row);
  bool apply_nogood(int index);  ///< unit propagation / conflict detection

  // --- analysis ------------------------------------------------------------
  NodeOutcome analyze();
  /// Folds `lit` into the resolvent: dropped when root-implied, otherwise
  /// its establishing trail entry is marked with the required value.
  void resolve_add(const BoundLit& lit);
  int establishing_pos(const BoundLit& lit) const;
  bool root_satisfies(const BoundLit& lit) const;
  void learn(Nogood nogood);
  void reduce_pool();
  void bump(int nogood_index);
  void decay_activity();  ///< per-conflict decay, rescaled before overflow
  void register_nogood(int index);
  void rebuild_incidence();
  /// Canonical key of a clause (lits must be sorted): duplicate detection.
  static std::vector<double> signature(const Nogood& nogood);
  /// Pool index of an identical clause, or -1.
  int find_duplicate(const Nogood& nogood) const;

  const Model& model_;
  const Propagator& prop_;
  ConflictObserver* observer_ = nullptr;
  int pool_cap_ = 0;
  int n_ = 0;

  std::vector<lp::Term> objective_terms_;  ///< nonzero objective entries
  std::vector<char> var_in_objective_;
  double cutoff_ = std::numeric_limits<double>::infinity();

  std::vector<double> root_lower_, root_upper_;
  std::vector<double>* lower_ = nullptr;  ///< node bounds, set per call
  std::vector<double>* upper_ = nullptr;

  // Trail + per-(var, side) chains, reset per node.
  std::vector<TrailEntry> trail_;
  std::vector<BoundLit> ante_;        ///< antecedent arena
  std::vector<BoundLit> ante_stage_;  ///< staged antecedents of one push
  std::vector<int> pos_lower_, pos_upper_;  ///< latest entry per side
  std::vector<BoundLit> conflict_lits_;     ///< explanation of the conflict
  bool conflict_bound_based_ = false;
  int conflict_nogood_ = -1;  ///< pool index that fired, for activity bumps
  /// Staged LP certificate of the pending conflict (analyze_lp_refutation
  /// only); attached to the learned nogood, cleared with the node state.
  std::vector<double> conflict_lp_ray_;
  bool conflict_lp_objective_ = false;
  bool lp_conflict_mode_ = false;  ///< current analyze() is LP-sourced

  // Worklists (rows + cutoff + nogoods), reset per node.
  std::vector<char> row_dirty_;
  std::vector<int> dirty_rows_;
  std::vector<int> row_scratch_;
  bool cutoff_dirty_ = false;
  std::vector<char> nogood_dirty_;
  std::vector<int> dirty_nogoods_;
  std::vector<int> nogood_scratch_;

  // Analysis scratch.
  std::vector<char> marked_;
  std::vector<double> required_;  ///< per marked entry: tightest value needed
  std::vector<int> marked_list_;
  int analysis_level_ = 0;  ///< decision level the conflict is analyzed at
  int count_top_ = 0;       ///< marked entries still at analysis_level_

  // Pool + variable incidence + canonical-signature index (duplicate
  // clauses must not re-trigger backjumps, or a refuted dive can cycle).
  std::vector<Nogood> pool_;
  std::vector<std::vector<int>> var_nogoods_;
  std::map<std::vector<double>, int> sig_to_index_;
  /// Single-literal nogoods are unit under the root bounds themselves, so
  /// no per-node bound change ever dirties them — they are re-seeded at
  /// every node instead (they act as globally valid bound tightenings).
  std::vector<int> root_unit_nogoods_;
  double activity_inc_ = 1.0;

  ConflictStats stats_;
};

}  // namespace fpva::ilp

#endif  // FPVA_ILP_CONFLICT_H

// Branch-and-bound MILP solver over the lp:: simplex relaxation.
//
// The search pipeline is: root presolve (presolve.h) -> per-node bound
// propagation (explained, with conflict-driven nogood learning and optional
// backjumping — conflict.h) -> warm-started dual-simplex LP
// (lp::RevisedSimplex, one factorized basis shared by the whole tree), whose
// refutations (Farkas rays, bound-pruning duals) learn nogoods too ->
// input-order branching. There is one search configuration; the only
// certify-time switch is Options::conflict_backjumping.
// Nodes carry sparse bound deltas against the root instead of full bound
// vectors, and a node LP that exhausts its pivot budget is re-queued with a
// larger budget instead of silently giving up the optimality certificate.
//
// Every node LP goes through that one Devex-priced, Forrest-Tomlin
// RevisedSimplex. Its recovery ladder is LU -> eta file (inside
// RevisedSimplex) -> dense tableau (a node the warm engine reports
// numerical trouble on is re-solved through lp::Algorithm::kDenseTableau).
//
// Depth-first diving with LP-bound pruning and a nearest-integer rounding
// heuristic for early incumbents. Branching on the lowest-index fractional
// variable turns the dive over the chain models' chain-major variable
// layout (core/ilp_models) into sequential chain construction that
// propagation prunes CP-style.
// When every nonzero objective coefficient is a whole number on an integer
// variable, the solver reads the objective as integral off the model and
// rounds LP bounds up. Designed for the subblock-sized path/cut models of
// the hierarchical FPVA test generator (hundreds of variables); it is a
// faithful stand-in for the commercial ILP solver the paper used, not a
// general-purpose MIP engine. Node propagation, root probing and the root
// clique/cover cutting loop always run; presolve and conflict learning can
// be switched off through Options as differential-testing references. They
// change the route to the optimum, never the optimum.
#ifndef FPVA_ILP_BRANCH_AND_BOUND_H
#define FPVA_ILP_BRANCH_AND_BOUND_H

#include <vector>

#include "common/stop.h"
#include "ilp/model.h"
#include "ilp/presolve.h"

namespace fpva::ilp {

class ConflictObserver;  // conflict.h; Options only carries a pointer

enum class ResultStatus {
  kOptimal,     ///< proven optimal incumbent
  kFeasible,    ///< limits hit with an incumbent in hand
  kInfeasible,  ///< proven: no integer-feasible point exists
  kUnknown,     ///< limits hit before any incumbent was found
};

/// A single-literal bound assertion with a globally valid refutation:
/// "var on the is_lower side of value admits no feasible point". Mirrors
/// conflict.h's BoundLit without pulling the conflict engine into this
/// header. Exported from a truncated solve (Result::unit_nogoods) and fed
/// back through Options::seed_literals, this is the transferable part of
/// an anytime certificate — sound for the same model unconditionally
/// because only model-implied (non-cutoff-based) units are exported.
struct SeedLiteral {
  int var = 0;
  bool is_lower = false;
  double value = 0.0;
};

struct Options {
  double time_limit_seconds = 120.0;
  long max_nodes = 2'000'000;
  long lp_iteration_limit = 200000;   ///< pivot budget per node LP

  /// Root presolve: bound tightening, implied fixings, row removal.
  bool presolve = true;

  /// Conflict-driven nogood learning (conflict.h): node propagation runs
  /// with explanations, refuted nodes are analyzed to a 1-UIP nogood, and
  /// the learned pool propagates at every later node. LP refutations learn
  /// too: an infeasible node LP's Farkas ray — or, for a bound-pruned node,
  /// the exact duals plus the cutoff row — is aggregated into one valid
  /// bound clause over the node's local bounds, verified numerically, and
  /// run through the same 1-UIP analysis. Off gives the plain
  /// propagate-and-branch search (no duals computed).
  bool conflict_learning = true;
  /// Backjump to the assertion level after a conflict (discarding pending
  /// siblings and re-entering the prefix node, where the fresh nogood
  /// propagates the flipped bound). Without it conflicts still learn and
  /// the pool still prunes, but the search backtracks plain-DFS. A
  /// backjump abandons the completed-subtree bookkeeping of the DFS stack
  /// and re-explores finished regions, which derails the input-order dives
  /// on structured feasibility instances (5x5 cut-set certification: 132
  /// nodes without, 478 with); on refutation-heavy searches it is the
  /// decisive lever (6x6 cut-set certification proves the minimum of 4 in
  /// 432 nodes with it, 3 356 without). No property of the model separates
  /// the two, so it stays a switch: off by default, on in bench_certify
  /// and the slow-certify CI job.
  bool conflict_backjumping = false;
  /// Test/diagnostic hook: sees every learned nogood at learning time
  /// (before any pool deletion). Not owned; may be null. With threads > 1
  /// the workers share the hook and calls are serialized by a mutex.
  ConflictObserver* conflict_observer = nullptr;

  /// Worker threads for the tree search (subtree parallelism with a
  /// shared incumbent and cross-worker nogood exchange). 1 keeps the
  /// serial search — bit-identical counters to the single-threaded
  /// solver; <= 0 means std::thread::hardware_concurrency(). Multi-
  /// threaded runs reach the same optimum/status but their counters and
  /// incumbent tie-breaks depend on scheduling.
  int threads = 1;
  /// Cooperative cancellation: the search winds down (reporting
  /// kFeasible/kUnknown, like a time limit) soon after the token trips.
  /// Default-constructed tokens never trip and cost nothing to poll.
  common::StopToken stop;
  /// Resume hints: unit nogoods exported by an earlier truncated solve of
  /// the same model (Result::unit_nogoods). Indices live in this model's
  /// variable space. Integer seeds are applied as root bound tightenings
  /// before the search starts — independent of conflict_learning, so a
  /// resume with learning off cannot silently drop an anytime certificate
  /// — and additionally imported into the conflict engine when learning
  /// is on. A truncated run re-exports them through Result::unit_nogoods.
  std::vector<SeedLiteral> seed_literals;
};

struct Result {
  ResultStatus status = ResultStatus::kUnknown;
  double objective = 0.0;            ///< incumbent objective (if any)
  std::vector<double> values;        ///< incumbent point (if any)
  double best_bound = 0.0;           ///< global dual bound at termination
  long nodes = 0;                    ///< branch-and-bound nodes processed
  double seconds = 0.0;              ///< wall-clock spent
  long lp_pivots = 0;                ///< simplex pivots summed over all nodes
  long nodes_pruned_by_propagation = 0;  ///< pruned before any LP was solved
  PresolveStats presolve_stats;      ///< root reduction summary
  ProbeStats probe_stats;            ///< root probing summary
  int cliques = 0;                   ///< conflict-graph cliques tabled
  int cuts_added = 0;                ///< clique + cover cuts kept at the root
  int cut_rounds = 0;                ///< separation rounds that added cuts
  long lp_refactorizations = 0;      ///< basis factorizations built
  long lp_basis_updates = 0;         ///< Forrest-Tomlin column updates
  long warm_cut_rows = 0;            ///< cut rows appended to a live basis
  long basis_restores = 0;           ///< basis-stack checkpoint restores
  long conflicts = 0;                ///< nodes refuted by explained propagation
  long lp_conflicts = 0;             ///< LP refutations analyzed into clauses
  long lp_nogoods_learned = 0;       ///< learned clauses carrying an LP ray
  long lp_deadline_abandons = 0;     ///< budget-truncated node LPs abandoned
                                     ///< (not retried) because the stop/
                                     ///< deadline token had already tripped
  long nogoods_learned = 0;          ///< 1-UIP nogoods added to the pool
  long nogoods_deleted = 0;          ///< nogoods evicted by pool reduction
  long backjumps = 0;                ///< assertion-level jumps taken
  long backjump_nodes_skipped = 0;   ///< pending siblings a backjump discarded
  int threads_used = 1;              ///< tree-search workers actually used
  long nogoods_imported = 0;         ///< nogoods adopted from other workers
  long subtrees_donated = 0;         ///< nodes handed to the shared queue
  long lp_eta_fallbacks = 0;         ///< LU -> eta recovery-ladder demotions
  long lp_dense_fallbacks = 0;       ///< warm nodes re-solved densely after
                                     ///< numerical trouble (the last rung)
  /// Globally valid single-literal nogoods learned by a serial solve —
  /// the transferable part of an anytime certificate. Feed back through
  /// Options::seed_literals to extend a truncated solve. Empty for
  /// multi-threaded tree searches (worker pools are not merged).
  std::vector<SeedLiteral> unit_nogoods;
};

/// Minimizes `model`. The model is copied internally; bounds are tightened
/// per node on the copy.
Result solve(const Model& model, const Options& options = {});

}  // namespace fpva::ilp

#endif  // FPVA_ILP_BRANCH_AND_BOUND_H

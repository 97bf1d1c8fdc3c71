// MILP presolve and bound propagation.
//
// Two cooperating pieces:
//
//  * presolve(): a root-node reduction pass. Activity-based bound
//    tightening (with integer rounding), fixing of implied binaries,
//    removal of empty / singleton / redundant rows, and substitution of
//    fixed variables into the remaining rows. Produces a smaller model plus
//    the bookkeeping needed to map a reduced solution back to the original
//    variable space (restore()).
//
//  * Propagator: the same single-constraint bound tightening packaged for
//    incremental use inside branch-and-bound. Built once per model, it
//    propagates a node's bound changes through the rows they touch and
//    reports subtree infeasibility before any LP is paid for.
//
//  * probe_binaries() / build_clique_table(): root-only strengthening.
//    Probing branches every binary both ways through the Propagator and
//    keeps what holds in both branches (fixings, union bounds) plus the
//    implications each branch forces (the conflict graph). The clique table
//    collects set-packing structure — "at most one of these literals" —
//    from the rows themselves and from probing, then merges and dominates
//    cliques so branch-and-bound can separate them as cutting planes.
//
// The per-node Propagator stays single-constraint: every deduction remains
// sound and cheap enough to run at every node; the quadratic-ish probing
// and clique work runs once at the root.
#ifndef FPVA_ILP_PRESOLVE_H
#define FPVA_ILP_PRESOLVE_H

#include <cmath>
#include <utility>
#include <vector>

#include "ilp/model.h"

namespace fpva::ilp {

class Propagator;

/// Shared propagation tolerances. Published here (not buried in
/// presolve.cpp) because the conflict engine's explained propagation and
/// the in-test explanation checker must deduce *exactly* the same bounds
/// as the plain propagator, or a learned nogood would fail to re-derive.
inline constexpr double kPropFeasTol = 1e-7;  ///< constraint violation
inline constexpr double kPropImprove = 1e-9;  ///< min accepted improvement
inline constexpr double kPropIntTol = 1e-6;   ///< integrality rounding
inline constexpr int kPropMaxRounds = 50;     ///< fixpoint sweep cap

/// Rounds tightened bounds of integer variables to the integer lattice.
/// Shared for the same reason as the constants above: the propagator, the
/// conflict engine and the explanation checker must round identically.
inline void round_integer_bounds(bool is_integer, double& lo, double& hi) {
  if (!is_integer) return;
  lo = std::ceil(lo - kPropIntTol);
  hi = std::floor(hi + kPropIntTol);
}

/// Conflict-graph literal: variable `var` asserted to 1 (positive) or to 0
/// (complemented). Encoded as 2*var (+1 when complemented) so literals pack
/// into flat arrays.
struct Lit {
  static int make(int var, bool positive) { return 2 * var + (positive ? 0 : 1); }
  static int variable(int literal) { return literal >> 1; }
  static bool positive(int literal) { return (literal & 1) == 0; }
  static int negate(int literal) { return literal ^ 1; }
};

/// One set-packing clique: at most one of `literals` can be true in any
/// integer-feasible point. In inequality form:
///   sum_{positive} x  +  sum_{complemented} (1 - x)  <=  1.
struct Clique {
  std::vector<int> literals;  ///< sorted, >= 2 entries, distinct variables
  /// True when an identical row already exists in the model, so separating
  /// this clique as a cut can never add anything.
  bool materialized = false;
};

struct CliqueTable {
  std::vector<Clique> cliques;
};

struct ProbeStats {
  int probed = 0;        ///< binaries probed in both directions
  int fixings = 0;       ///< variables fixed (one branch infeasible)
  int implications = 0;  ///< conflict edges discovered
  int tightenings = 0;   ///< non-trivial union-bound improvements
};

/// Probes every unfixed binary of `model`: branches it to 0 and to 1,
/// propagates each branch, and keeps everything valid in both branches.
/// Tightens `lower`/`upper` in place; appends discovered conflict edges to
/// `implications` (when non-null) as literal pairs that cannot both be
/// true. Returns false when the model is proven infeasible. Deterministic.
bool probe_binaries(const Model& model, const Propagator& propagator,
                    std::vector<double>& lower, std::vector<double>& upper,
                    std::vector<std::pair<int, int>>* implications,
                    ProbeStats* stats, int max_probes = 4000);

/// Builds the clique table of `model` under the given bounds: extracts
/// set-packing cliques from rows whose variables are all binary (negative
/// coefficients handled by complementing), adds the 2-literal cliques in
/// `extra_edges` (e.g. from probing), greedily extends each clique against
/// the conflict graph, and drops duplicates and dominated (subset) cliques.
CliqueTable build_clique_table(
    const Model& model, const std::vector<double>& lower,
    const std::vector<double>& upper,
    const std::vector<std::pair<int, int>>& extra_edges = {});

/// One positive-coefficient literal term of a normalized packing row.
struct PackedTerm {
  int literal = 0;
  double coefficient = 0.0;
};

/// Rewrites a row `sum terms <= rhs` as `sum coefficient * literal <= rhs'`
/// with every coefficient positive: duplicate terms are merged, variables
/// fixed under the bounds fold into the rhs, and binary variables with
/// negative coefficients are complemented. Returns false (leaving the
/// outputs unspecified) when an unfixed non-binary variable blocks the
/// rewrite or fewer than two literals remain.
bool normalize_packing_row(const Model& model,
                           const std::vector<lp::Term>& terms, double rhs,
                           const std::vector<double>& lower,
                           const std::vector<double>& upper,
                           std::vector<PackedTerm>* items, double* rhs_out);

struct PresolveStats {
  int bounds_tightened = 0;  ///< individual bound improvements
  int variables_fixed = 0;   ///< variables removed (lower == upper)
  int rows_removed = 0;      ///< empty + singleton + redundant rows dropped
};

struct Presolved {
  bool infeasible = false;  ///< proven infeasible at the root
  /// True when presolve found nothing to do: `reduced` is left empty and
  /// the caller should keep using the original model (skips a full model
  /// rebuild on already-tight instances).
  bool is_identity = false;
  Model reduced;            ///< model over the surviving variables
  /// reduced variable index -> original variable index.
  std::vector<int> orig_of_reduced;
  /// Original-space point with every fixed variable at its value and
  /// surviving variables at 0 (placeholder until restore()).
  std::vector<double> fixed_values;
  /// Objective contribution of the fixed variables.
  double objective_offset = 0.0;
  int original_variables = 0;
  PresolveStats stats;

  /// Maps a reduced-space solution back to the original variable space.
  std::vector<double> restore(const std::vector<double>& reduced_values) const;
};

/// Runs the root presolve with a Propagator built over `model` (the search
/// reuses it when presolve finds nothing to do). The input model is not
/// modified.
Presolved presolve(const Model& model, const Propagator& propagator);

/// Incremental single-constraint bound propagation for branch-and-bound.
class Propagator {
 public:
  explicit Propagator(const Model& model);

  /// Tightens `lower`/`upper` in place, seeded by the variables in `seeds`
  /// (empty seeds = sweep every row once). Returns false when some
  /// constraint is proven unsatisfiable under the given bounds.
  /// Deterministic: rows are processed in ascending index order per round.
  bool propagate(std::vector<double>& lower, std::vector<double>& upper,
                 const std::vector<int>& seeds) const;

  /// True when some row is empty, a singleton, or redundant under the given
  /// bounds — i.e. the presolve rebuild would shrink the model.
  bool any_droppable_row(const std::vector<double>& lower,
                         const std::vector<double>& upper) const;

  // Read-only view of the merged-duplicate CSR rows and the variable/row
  // incidence, for the conflict engine (conflict.h): its explained
  // propagation replays exactly these rows so every deduction it records
  // is attributable to one concrete row of the model the search runs on.
  int row_count() const { return static_cast<int>(row_sense_.size()); }
  int variable_count() const { return variable_count_; }
  lp::Sense row_sense(int row) const {
    return row_sense_[static_cast<std::size_t>(row)];
  }
  double row_rhs(int row) const {
    return row_rhs_[static_cast<std::size_t>(row)];
  }
  /// Terms of `row` as a [begin, end) pointer pair over the CSR arena.
  std::pair<const lp::Term*, const lp::Term*> row_terms(int row) const {
    const auto is = static_cast<std::size_t>(row);
    return {row_terms_.data() + row_start_[is],
            row_terms_.data() + row_start_[is + 1]};
  }
  bool is_integer(int var) const {
    return integer_[static_cast<std::size_t>(var)] != 0;
  }
  /// Rows incident to `var` as a [begin, end) pointer pair.
  std::pair<const int*, const int*> rows_of(int var) const {
    const auto v = static_cast<std::size_t>(var);
    return {var_rows_.data() + var_start_[v],
            var_rows_.data() + var_start_[v + 1]};
  }

 private:
  bool tighten_row(int row, std::vector<double>& lower,
                   std::vector<double>& upper,
                   std::vector<char>& row_dirty,
                   std::vector<int>& dirty_rows) const;

  int variable_count_ = 0;
  // Rows in CSR form with duplicate variables merged (flat arenas, one
  // allocation each, instead of a vector-of-vectors per model).
  std::vector<int> row_start_;
  std::vector<lp::Term> row_terms_;
  std::vector<lp::Sense> row_sense_;
  std::vector<double> row_rhs_;
  std::vector<char> integer_;
  // Variable -> incident rows, also CSR.
  std::vector<int> var_start_;
  std::vector<int> var_rows_;
  // Worklist scratch reused across propagate() calls (hot in B&B).
  mutable std::vector<char> row_dirty_;
  mutable std::vector<int> dirty_rows_;
  mutable std::vector<int> round_scratch_;
};

}  // namespace fpva::ilp

#endif  // FPVA_ILP_PRESOLVE_H

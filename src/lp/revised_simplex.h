// Revised bounded-variable simplex with a factorized basis and warm starts.
//
// Unlike the dense tableau solver (simplex.cpp), this engine keeps the basis
// as a product-form eta file over a sparse column copy of the constraint
// matrix, so one pivot costs O(nnz) instead of O(rows * columns). It is
// built for branch-and-bound: after a handful of bound changes the previous
// optimal basis stays dual feasible, and reoptimize() runs the dual simplex
// from that basis instead of a two-phase cold start — typically a couple of
// pivots per node instead of a full solve.
//
// The solver owns a private copy of the variable bounds; set_bounds()
// mutates that copy only, never the source model, so one RevisedSimplex can
// serve every node of a search tree over the same structural matrix.
#ifndef FPVA_LP_REVISED_SIMPLEX_H
#define FPVA_LP_REVISED_SIMPLEX_H

#include <cstdint>
#include <vector>

#include "lp/lu_factorization.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace fpva::lp {

/// Reusable basis checkpoint (see RevisedSimplex::snapshot_basis). The
/// snapshot pins the row count it was taken at; restoring into a solver
/// whose row set has since grown (warm row addition) is rejected.
struct BasisSnapshot {
  int rows = 0;
  std::vector<int> basis;
  std::vector<std::uint8_t> state;
};

/// Incremental revised simplex over a fixed constraint matrix.
class RevisedSimplex {
 public:
  /// Snapshots the structure and bounds of `model`. The model must outlive
  /// the solver only through this constructor; no reference is retained.
  explicit RevisedSimplex(const Model& model, SolveOptions options = {});

  /// Overwrites the solver's private bounds of structural `variable`.
  /// Invalidates primal values but keeps the factorized basis for a
  /// dual-simplex reoptimize.
  void set_bounds(int variable, double lower, double upper);

  /// Current private bounds (reflects set_bounds calls).
  double lower_bound(int variable) const;
  double upper_bound(int variable) const;

  /// Solves from scratch: two-phase primal simplex off a fresh slack basis.
  Solution solve_cold();

  /// Reoptimizes after set_bounds() calls. Uses the dual simplex from the
  /// stored basis when one exists and stays numerically healthy; falls back
  /// to solve_cold() otherwise (including on the first call).
  Solution reoptimize();

  /// True once a solve left behind a reusable (dual-feasible) basis.
  bool has_basis() const { return basis_valid_; }

  /// Replaces the per-solve pivot budget (branch-and-bound grows it when a
  /// node LP runs out of pivots).
  void set_iteration_limit(long limit) { options_.max_iterations = limit; }

  /// True when the last solve gave up on numerics rather than on the pivot
  /// budget; the caller should re-solve through the dense tableau oracle.
  bool numerical_trouble() const { return numerics_failed_; }

  /// Appends a constraint row to the solver's private copy of the model
  /// (duplicate terms are merged; terms must reference structural
  /// variables). Under the Forrest-Tomlin factorization a valid basis is
  /// extended in place — the new slack enters the basis and the next
  /// reoptimize() repairs primal feasibility with dual pivots. Under the
  /// eta factorization the stored basis is dropped and the next solve
  /// cold-starts.
  void add_row(const std::vector<Term>& terms, Sense sense, double rhs);

  int row_count() const { return m_; }

  /// Checkpoint of the current basis; valid only when has_basis().
  BasisSnapshot snapshot_basis() const;

  /// Adopts `snapshot` (bounds are kept as-is) and refactorizes. Returns
  /// false — leaving no reusable basis — when the snapshot's row count no
  /// longer matches or the basis went numerically singular. Restoring a
  /// snapshot identical to the live basis (common for assertion-level
  /// restores after a branch-and-bound backjump) is a no-op.
  bool restore_basis(const BasisSnapshot& snapshot);

  /// Basis factorizations built over the lifetime of the solver.
  long refactorizations() const { return refactorizations_; }
  /// Forrest-Tomlin column updates applied (0 under the eta file).
  long basis_updates() const { return basis_updates_; }
  /// Rows appended while a factorized basis was live.
  long warm_rows_added() const { return warm_rows_added_; }

  /// Times the recovery ladder demoted this instance from Forrest-Tomlin
  /// to the eta file after a numerically failed two-phase solve (0 or 1:
  /// the demotion is sticky for the instance's lifetime).
  long eta_fallbacks() const { return eta_fallbacks_; }

 private:
  enum class VarState : std::uint8_t { kBasic, kAtLower, kAtUpper };

  /// One product-form update. Off-pivot entries live in the shared
  /// eta_index_/eta_value_ arena (one flat allocation instead of two small
  /// vectors per pivot, and sequential memory during FTRAN/BTRAN sweeps).
  struct Eta {
    int pivot_row = 0;
    int start = 0;             ///< first arena slot
    int end = 0;               ///< one past the last arena slot
    double pivot_value = 1.0;  ///< eta coefficient of the pivot row
  };

  // --- structure -----------------------------------------------------------
  void build_columns(const Model& model);
  int column_nnz(int var) const;
  double column_dot(int var, const std::vector<double>& dense) const;

  // --- factorization -------------------------------------------------------
  bool lu() const { return options_.factorization == Factorization::kForrestTomlin; }
  bool refactorize();  ///< rebuilds the factorization; false = singular
  bool refactorize_eta();
  bool refactorize_lu();
  void ftran(std::vector<double>& dense) const;  ///< dense := B^-1 dense
  /// FTRAN of the entering column: under LU the partial result is stashed
  /// so factor_update() can fold it into U.
  void ftran_entering(std::vector<double>& dense) const;
  void btran(std::vector<double>& dense) const;  ///< dense := B^-T dense
  /// Records the pivot in the factorization (eta append or Forrest-Tomlin
  /// update; refactorizes on an unstable update). Must run after basis_ /
  /// state_ are updated. Returns false on fatal numerics; sets
  /// factor_rebuilt_ when it refactorized as a side effect.
  bool factor_update(int pivot_row, double pivot_value,
                     const std::vector<double>& alpha,
                     const std::vector<int>& alpha_pattern);
  bool factor_is_stale() const;     ///< updates applied since the last factor
  bool factor_needs_refresh() const;  ///< policy says refactorize now
  void append_eta(int pivot_row, const std::vector<double>& alpha,
                  const std::vector<int>& alpha_pattern);
  void load_column(int var, std::vector<double>& dense,
                   std::vector<int>& pattern) const;
  void rebuild_csc();  ///< regenerate the CSC mirror from the CSR rows
  /// Applies deferred add_row bookkeeping (CSC mirror, scratch sizes)
  /// once per batch of appended rows, at the next solve entry point.
  void flush_row_additions();

  // --- simplex -------------------------------------------------------------
  void reset_to_slack_basis();
  void reset_to_dual_crash();
  Solution reoptimize_from_basis();
  void compute_basic_values();
  void compute_duals(std::vector<double>& y) const;
  /// Copies the BTRAN'd violated-row vector into result.farkas_ray with the
  /// orientation the Solution sign convention requires (`below` = the
  /// leaving basic sat under its lower bound).
  void fill_farkas_ray(const std::vector<double>& rho, bool below,
                       Solution& result) const;
  bool price(const std::vector<double>& y, bool bland, int* entering,
             double* violation) const;
  /// Fills `result` with the current (bound-clamped) structural point and
  /// its objective computed from `objective_` — never from the active
  /// phase/perturbed `cost_` vector.
  void fill_primal_point(Solution& result) const;
  // --- devex ---------------------------------------------------------------
  void reset_primal_devex();  ///< new reference framework (weights := 1)
  /// Updates the primal reference weights after pivoting `entering` into
  /// `pivot_row` (the eta of the pivot must not be appended yet: the update
  /// prices the leaving row against the pre-pivot basis inverse).
  void update_primal_devex(int entering, int pivot_row, double pivot_value);
  void reset_dual_devex();  ///< new dual reference framework (weights := 1)
  /// Same for the dual row weights; `alpha`/`pattern` hold the FTRAN'd
  /// entering column against the pre-pivot basis.
  void update_dual_devex(int pivot_row, double pivot_value,
                         const std::vector<double>& alpha,
                         const std::vector<int>& pattern);
  /// One primal phase; returns false on iteration limit. `phase1` selects
  /// the artificial-infeasibility objective.
  bool primal_iterate(long budget, Solution& result);
  /// Dual simplex until primal feasible; kOptimal / kInfeasible /
  /// kIterationLimit via result.status; false = numerical trouble, caller
  /// should cold start.
  bool dual_iterate(long budget, Solution& result);
  bool evict_basic_artificials();  ///< false = fatal factorization trouble
  Solution finish_optimal();
  Solution run_two_phase();

  SolveOptions options_;

  int n_ = 0;           ///< structural variables
  int m_ = 0;           ///< rows
  int total_ = 0;       ///< structural + slack + artificial columns
  int first_artificial_ = 0;
  std::vector<double> objective_;  ///< structural objective coefficients

  // CSC copy of the structural matrix (merged duplicate terms).
  std::vector<int> col_start_;
  std::vector<int> row_index_;
  std::vector<double> coeff_;
  // CSR transpose of the same matrix, for row-wise dual pricing.
  std::vector<int> row_start_;
  std::vector<int> row_col_;
  std::vector<double> row_coeff_;
  std::vector<double> rhs_;
  std::vector<Sense> sense_;
  std::vector<double> artificial_sign_;  ///< per-row sign, 0 = no artificial

  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> x_;
  std::vector<double> cost_;  ///< active phase costs
  std::vector<VarState> state_;
  std::vector<int> basis_;

  std::vector<Eta> etas_;
  std::vector<int> eta_index_;     ///< shared arena: off-pivot row indices
  std::vector<double> eta_value_;  ///< shared arena: off-pivot coefficients
  int factor_etas_ = 0;  ///< etas belonging to the factorization itself
  /// Active when options_.factorization == kForrestTomlin; its default
  /// Options fix the refactorization policy (100 updates, 3x fill).
  LuFactorization lu_;
  bool factor_rebuilt_ = false;  ///< factor_update refactorized mid-pivot
  bool rows_dirty_ = false;      ///< add_row deferred the CSC/scratch refresh
  bool basis_valid_ = false;
  bool values_dirty_ = false;
  bool numerics_failed_ = false;

  long iterations_ = 0;  ///< pivots spent in the current solve
  long refactorizations_ = 0;
  long basis_updates_ = 0;
  long warm_rows_added_ = 0;
  long eta_fallbacks_ = 0;

  // Scratch for refactorize_lu / add_row.
  std::vector<int> lu_col_rows_;
  std::vector<double> lu_col_vals_;
  std::vector<int> lu_col_start_;

  // Scratch buffers reused across iterations.
  mutable std::vector<double> work_;
  mutable std::vector<double> work2_;
  mutable std::vector<int> pattern_;
  std::vector<double> duals_;  ///< y scratch for the iterate loops
  std::vector<double> rho_;    ///< BTRAN row scratch for the dual simplex

  /// One admissible column in the dual ratio test.
  struct Breakpoint {
    double ratio = 0.0;
    double alpha = 0.0;  ///< entry of the BTRAN'd leaving row
    int j = 0;
  };
  std::vector<Breakpoint> breakpoints_;  ///< BFRT scratch
  std::vector<double> flip_acc_;         ///< accumulated bound flips

  // Devex reference-framework weights (all 1.0 at a framework reset).
  std::vector<double> devex_weight_;  ///< per-column, primal pricing
  std::vector<double> dual_weight_;   ///< per-row, dual leaving choice
  mutable std::vector<double> devex_rho_;  ///< BTRAN row scratch (primal)

  /// Incrementally-updated reduced costs for the dual simplex (exact at
  /// every refactorization; see refresh_reduced_costs).
  std::vector<double> reduced_d_;
  void refresh_reduced_costs();
  // Scratch for the row-wise pricing pass: alpha = rho^T A gathered over
  // the nonzero rows of the BTRAN'd vector rho (see gather_pivot_row).
  mutable std::vector<double> alpha_row_;
  mutable std::vector<int> alpha_cols_;
  mutable std::vector<char> alpha_touched_;
  /// Fills alpha_row_/alpha_cols_ with rho^T [A | I] over the columns that
  /// intersect a nonzero entry of `rho` (all others are exactly zero).
  void gather_pivot_row(const std::vector<double>& rho) const;
};

}  // namespace fpva::lp

#endif  // FPVA_LP_REVISED_SIMPLEX_H

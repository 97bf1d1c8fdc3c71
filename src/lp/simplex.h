// Two-phase bounded-variable primal simplex.
//
// Dense tableau implementation suitable for the subblock-sized models the
// hierarchical test generator produces (hundreds of variables). Phase 1
// minimizes artificial-variable infeasibility, phase 2 the real objective.
// Because lp::Model requires finite bounds on every variable (and slack caps
// are derived from those bounds), the LP can never be unbounded.
#ifndef FPVA_LP_SIMPLEX_H
#define FPVA_LP_SIMPLEX_H

#include <vector>

#include "lp/model.h"

namespace fpva::lp {

enum class SolveStatus {
  kOptimal,         ///< optimal basic solution found
  kInfeasible,      ///< phase 1 could not reach zero infeasibility
  kIterationLimit,  ///< pivot budget exhausted
};

/// Which engine lp::solve routes through.
enum class Algorithm {
  kRevised,       ///< revised simplex, factorized basis, devex pricing
                  ///< (revised_simplex.h)
  kDenseTableau,  ///< legacy dense two-phase tableau (retained as oracle)
};

/// Basis factorization of the revised simplex. The dense tableau carries
/// its own explicit inverse and ignores this option.
enum class Factorization {
  /// Markowitz-pivoted sparse LU with Forrest-Tomlin column updates:
  /// bounded fill, refactorization on fill/instability thresholds, and
  /// warm row addition for cutting loops (lp/lu_factorization.h).
  kForrestTomlin,
  /// Product-form eta file with a fixed refactor interval — the original
  /// engine, retained as the differential-testing oracle.
  kEta,
};

/// Feasibility/optimality tolerance of both simplex engines.
inline constexpr double kTolerance = 1e-7;

struct SolveOptions {
  long max_iterations = 200000;  ///< total pivot budget over both phases
  Algorithm algorithm = Algorithm::kRevised;
  Factorization factorization = Factorization::kForrestTomlin;
  /// Fill Solution::row_duals / reduced_costs on optimal exits of the
  /// revised engine. Costs an extra BTRAN plus a pricing pass per solve,
  /// so it is off unless the caller consumes duals (LP conflict learning).
  bool want_duals = false;
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  ///< structural variable values (on success)
  long iterations = 0;         ///< pivots performed
  /// Exact row duals y (one per constraint) on kOptimal, revised engine
  /// only and only when SolveOptions::want_duals is set; empty otherwise
  /// (the dense tableau never fills them). Signs follow y^T A <= c
  /// aggregation: y_i >= 0 on <= rows would NOT hold in general — these
  /// are unrestricted equality-style duals of the bounded-variable system.
  std::vector<double> row_duals;
  /// Structural reduced costs d_j = c_j - y^T A_j, same availability as
  /// row_duals.
  std::vector<double> reduced_costs;
  /// Farkas/dual-ray certificate of primal infeasibility: weights w (one
  /// per constraint row) filled on kInfeasible exits of the revised
  /// engine's dual simplex or phase 1. Sign convention: w_i >= 0 on <=
  /// rows, w_i <= 0 on >= rows, free on = rows, so the aggregate
  /// g = w^T A, g0 = w^T b is a valid inequality g.x <= g0 whose minimum
  /// activity over the variable bounds exceeds g0. Callers must verify
  /// that numerically before trusting the ray. Empty when unavailable.
  std::vector<double> farkas_ray;
};

/// Solves `model` to optimality (minimization). Dispatches on
/// `options.algorithm`; the revised engine falls back to the dense tableau
/// when it detects numerical trouble, so callers see at most one of
/// kOptimal / kInfeasible / kIterationLimit either way.
Solution solve(const Model& model, const SolveOptions& options = {});

}  // namespace fpva::lp

#endif  // FPVA_LP_SIMPLEX_H

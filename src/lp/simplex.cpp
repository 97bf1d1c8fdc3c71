#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/logging.h"
#include "common/strings.h"
#include "lp/revised_simplex.h"

namespace fpva::lp {

namespace {

constexpr double kPivotEpsilon = 1e-9;

enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

/// Dense two-phase bounded-variable simplex over the extended system
/// [A | I_slack | artificials] x = b. The tableau invariant is
/// tableau = B^{-1} * A_ext; basic values are tracked explicitly in x_.
class SimplexSolver {
 public:
  SimplexSolver(const Model& model, const SolveOptions& options)
      : model_(model), options_(options) {}

  Solution run() {
    build();
    Solution result;
    if (artificial_count_ > 0) {
      set_phase1_costs();
      if (!iterate(result)) return result;  // iteration limit
      double infeasibility = 0.0;
      for (int j = first_artificial_; j < total_vars_; ++j) {
        infeasibility += x_[static_cast<std::size_t>(j)];
      }
      if (infeasibility > kTolerance * 10) {
        result.status = SolveStatus::kInfeasible;
        return result;
      }
      evict_basic_artificials();
      for (int j = first_artificial_; j < total_vars_; ++j) {
        lower_[static_cast<std::size_t>(j)] = 0.0;
        upper_[static_cast<std::size_t>(j)] = 0.0;
        x_[static_cast<std::size_t>(j)] =
            std::min(std::max(x_[static_cast<std::size_t>(j)], 0.0), 0.0);
      }
    }
    set_phase2_costs();
    if (!iterate(result)) return result;

    result.status = SolveStatus::kOptimal;
    result.values.assign(x_.begin(),
                         x_.begin() + model_.variable_count());
    for (int j = 0; j < model_.variable_count(); ++j) {
      auto& value = result.values[static_cast<std::size_t>(j)];
      const Variable& var = model_.variable(j);
      value = std::min(std::max(value, var.lower), var.upper);
    }
    result.objective = model_.objective_value(result.values);
    result.iterations = iterations_;
    return result;
  }

 private:
  double& at(int row, int col) {
    return tableau_[static_cast<std::size_t>(row) *
                        static_cast<std::size_t>(total_vars_) +
                    static_cast<std::size_t>(col)];
  }

  void build() {
    const int n = model_.variable_count();
    const int m = model_.constraint_count();
    rows_ = m;

    // Merge duplicate terms into dense structural rows.
    dense_rows_.assign(static_cast<std::size_t>(m) *
                           static_cast<std::size_t>(n),
                       0.0);
    rhs_.resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      const Constraint& row = model_.constraint(i);
      rhs_[static_cast<std::size_t>(i)] = row.rhs;
      for (const Term& term : row.terms) {
        dense_rows_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(term.variable)] +=
            term.coefficient;
      }
    }

    // Structural bounds and initial nonbasic placement (bound nearest 0).
    lower_.resize(static_cast<std::size_t>(n));
    upper_.resize(static_cast<std::size_t>(n));
    x_.assign(static_cast<std::size_t>(n), 0.0);
    state_.assign(static_cast<std::size_t>(n), VarState::kAtLower);
    for (int j = 0; j < n; ++j) {
      const Variable& var = model_.variable(j);
      lower_[static_cast<std::size_t>(j)] = var.lower;
      upper_[static_cast<std::size_t>(j)] = var.upper;
      const bool prefer_lower = std::abs(var.lower) <= std::abs(var.upper);
      state_[static_cast<std::size_t>(j)] =
          prefer_lower ? VarState::kAtLower : VarState::kAtUpper;
      x_[static_cast<std::size_t>(j)] = prefer_lower ? var.lower : var.upper;
    }

    // Slack bounds with finite caps derived from structural activity range.
    std::vector<double> slack_lower(static_cast<std::size_t>(m));
    std::vector<double> slack_upper(static_cast<std::size_t>(m));
    std::vector<double> residual(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      double min_activity = 0.0;
      double max_activity = 0.0;
      double fixed_activity = 0.0;
      for (int j = 0; j < n; ++j) {
        const double a =
            dense_rows_[static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(n) +
                        static_cast<std::size_t>(j)];
        if (a == 0.0) continue;
        const double lo = lower_[static_cast<std::size_t>(j)];
        const double hi = upper_[static_cast<std::size_t>(j)];
        min_activity += std::min(a * lo, a * hi);
        max_activity += std::max(a * lo, a * hi);
        fixed_activity += a * x_[static_cast<std::size_t>(j)];
      }
      const double b = rhs_[static_cast<std::size_t>(i)];
      const Sense sense = model_.constraint(i).sense;
      switch (sense) {
        case Sense::kLessEqual:
          slack_lower[static_cast<std::size_t>(i)] = 0.0;
          slack_upper[static_cast<std::size_t>(i)] =
              std::max(1.0, b - min_activity + 1.0);
          break;
        case Sense::kGreaterEqual:
          slack_lower[static_cast<std::size_t>(i)] =
              std::min(-1.0, b - max_activity - 1.0);
          slack_upper[static_cast<std::size_t>(i)] = 0.0;
          break;
        case Sense::kEqual:
          slack_lower[static_cast<std::size_t>(i)] = 0.0;
          slack_upper[static_cast<std::size_t>(i)] = 0.0;
          break;
      }
      residual[static_cast<std::size_t>(i)] = b - fixed_activity;
    }

    // Decide which rows need an artificial: slack takes the residual when it
    // fits its bounds, otherwise it is clamped and an artificial absorbs the
    // remainder.
    std::vector<int> artificial_row;
    artificial_sign_.assign(static_cast<std::size_t>(m), 0.0);
    std::vector<double> slack_value(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      const double r = residual[static_cast<std::size_t>(i)];
      const double lo = slack_lower[static_cast<std::size_t>(i)];
      const double hi = slack_upper[static_cast<std::size_t>(i)];
      if (r >= lo - kTolerance && r <= hi + kTolerance) {
        slack_value[static_cast<std::size_t>(i)] =
            std::min(std::max(r, lo), hi);
      } else {
        const double clamped = std::min(std::max(r, lo), hi);
        slack_value[static_cast<std::size_t>(i)] = clamped;
        const double leftover = r - clamped;
        artificial_sign_[static_cast<std::size_t>(i)] =
            leftover > 0 ? 1.0 : -1.0;
        artificial_row.push_back(i);
      }
    }
    artificial_count_ = static_cast<int>(artificial_row.size());
    first_artificial_ = n + m;
    total_vars_ = n + m + artificial_count_;

    // Extend bounds/values/states to slacks and artificials.
    lower_.resize(static_cast<std::size_t>(total_vars_));
    upper_.resize(static_cast<std::size_t>(total_vars_));
    x_.resize(static_cast<std::size_t>(total_vars_));
    state_.resize(static_cast<std::size_t>(total_vars_), VarState::kAtLower);
    basis_.assign(static_cast<std::size_t>(m), -1);

    for (int i = 0; i < m; ++i) {
      const int slack = n + i;
      lower_[static_cast<std::size_t>(slack)] =
          slack_lower[static_cast<std::size_t>(i)];
      upper_[static_cast<std::size_t>(slack)] =
          slack_upper[static_cast<std::size_t>(i)];
      x_[static_cast<std::size_t>(slack)] =
          slack_value[static_cast<std::size_t>(i)];
      if (artificial_sign_[static_cast<std::size_t>(i)] == 0.0) {
        state_[static_cast<std::size_t>(slack)] = VarState::kBasic;
        basis_[static_cast<std::size_t>(i)] = slack;
      } else {
        // Slack parked at the bound it was clamped to.
        state_[static_cast<std::size_t>(slack)] =
            slack_value[static_cast<std::size_t>(i)] <=
                    slack_lower[static_cast<std::size_t>(i)] +
                        kTolerance
                ? VarState::kAtLower
                : VarState::kAtUpper;
      }
    }
    for (int k = 0; k < artificial_count_; ++k) {
      const int row = artificial_row[static_cast<std::size_t>(k)];
      const int var = first_artificial_ + k;
      const double leftover =
          residual[static_cast<std::size_t>(row)] -
          slack_value[static_cast<std::size_t>(row)];
      lower_[static_cast<std::size_t>(var)] = 0.0;
      upper_[static_cast<std::size_t>(var)] = std::abs(leftover) + 1.0;
      x_[static_cast<std::size_t>(var)] = std::abs(leftover);
      state_[static_cast<std::size_t>(var)] = VarState::kBasic;
      basis_[static_cast<std::size_t>(row)] = var;
    }

    // Tableau = B^{-1} A_ext. The initial basis is diagonal (+1 for slack
    // rows, sign for artificial rows), so the tableau is A_ext with
    // artificial rows scaled by their sign.
    tableau_.assign(static_cast<std::size_t>(m) *
                        static_cast<std::size_t>(total_vars_),
                    0.0);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        at(i, j) = dense_rows_[static_cast<std::size_t>(i) *
                                   static_cast<std::size_t>(n) +
                               static_cast<std::size_t>(j)];
      }
      at(i, n + i) = 1.0;
    }
    for (int k = 0; k < artificial_count_; ++k) {
      const int row = artificial_row[static_cast<std::size_t>(k)];
      at(row, first_artificial_ + k) =
          artificial_sign_[static_cast<std::size_t>(row)];
    }
    for (int i = 0; i < m; ++i) {
      if (artificial_sign_[static_cast<std::size_t>(i)] == -1.0) {
        for (int j = 0; j < total_vars_; ++j) {
          at(i, j) = -at(i, j);
        }
      }
    }
    dense_rows_.clear();
    dense_rows_.shrink_to_fit();
  }

  void set_phase1_costs() {
    cost_.assign(static_cast<std::size_t>(total_vars_), 0.0);
    for (int j = first_artificial_; j < total_vars_; ++j) {
      cost_[static_cast<std::size_t>(j)] = 1.0;
    }
    rebuild_reduced_costs();
  }

  void set_phase2_costs() {
    cost_.assign(static_cast<std::size_t>(total_vars_), 0.0);
    for (int j = 0; j < model_.variable_count(); ++j) {
      cost_[static_cast<std::size_t>(j)] = model_.variable(j).objective;
    }
    rebuild_reduced_costs();
  }

  void rebuild_reduced_costs() {
    reduced_ = cost_;
    for (int i = 0; i < rows_; ++i) {
      const double cb =
          cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
      if (cb == 0.0) continue;
      for (int j = 0; j < total_vars_; ++j) {
        reduced_[static_cast<std::size_t>(j)] -= cb * at(i, j);
      }
    }
  }

  /// Runs pivots until the current phase objective is optimal. Returns false
  /// when the iteration budget runs out (result.status is set).
  bool iterate(Solution& result) {
    int consecutive_degenerate = 0;
    const int bland_threshold = 2 * (rows_ + total_vars_) + 20;
    // Differential oracle: bounded by max_iterations, cancellation polled
    // by the driver at node granularity. fpva-lint: allow(missing-stop-poll)
    while (true) {
      if (iterations_ >= options_.max_iterations) {
        result.status = SolveStatus::kIterationLimit;
        result.iterations = iterations_;
        return false;
      }
      const bool bland = consecutive_degenerate > bland_threshold;

      // --- Pricing: pick the entering variable. ---
      int entering = -1;
      double best_violation = kTolerance;
      for (int j = 0; j < total_vars_; ++j) {
        const auto js = static_cast<std::size_t>(j);
        if (state_[js] == VarState::kBasic) continue;
        if (upper_[js] - lower_[js] <= 0.0) continue;  // fixed
        const double d = reduced_[js];
        double violation = 0.0;
        if (state_[js] == VarState::kAtLower && d < -kTolerance) {
          violation = -d;
        } else if (state_[js] == VarState::kAtUpper &&
                   d > kTolerance) {
          violation = d;
        } else {
          continue;
        }
        if (bland) {
          entering = j;
          break;
        }
        if (violation > best_violation) {
          best_violation = violation;
          entering = j;
        }
      }
      if (entering < 0) {
        return true;  // phase optimal
      }
      const auto q = static_cast<std::size_t>(entering);
      const double direction =
          state_[q] == VarState::kAtLower ? 1.0 : -1.0;

      // --- Ratio test. ---
      double best_t = upper_[q] - lower_[q];  // bound-flip limit
      int leaving_row = -1;
      double leaving_pivot = 0.0;
      for (int i = 0; i < rows_; ++i) {
        const double alpha = at(i, entering);
        if (std::abs(alpha) <= kPivotEpsilon) continue;
        const int basic = basis_[static_cast<std::size_t>(i)];
        const auto bs = static_cast<std::size_t>(basic);
        const double rate = direction * alpha;  // basic changes by -rate*t
        double t;
        if (rate > 0.0) {
          t = (x_[bs] - lower_[bs]) / rate;
        } else {
          t = (upper_[bs] - x_[bs]) / (-rate);
        }
        t = std::max(t, 0.0);
        const bool better =
            t < best_t - kPivotEpsilon ||
            (t < best_t + kPivotEpsilon && leaving_row >= 0 &&
             (bland ? basic < basis_[static_cast<std::size_t>(leaving_row)]
                    : std::abs(alpha) > std::abs(leaving_pivot)));
        if (leaving_row < 0 ? t < best_t + kPivotEpsilon : better) {
          best_t = std::min(best_t, t);
          leaving_row = i;
          leaving_pivot = alpha;
        }
      }

      const double t = std::max(best_t, 0.0);
      if (leaving_row < 0) {
        // Pure bound flip: entering jumps to its opposite bound.
        apply_step(entering, direction, t);
        x_[q] = direction > 0 ? upper_[q] : lower_[q];
        state_[q] = direction > 0 ? VarState::kAtUpper : VarState::kAtLower;
        ++iterations_;
        consecutive_degenerate = 0;
        continue;
      }

      // --- Pivot. ---
      apply_step(entering, direction, t);
      x_[q] += direction * t;
      const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
      const auto ls = static_cast<std::size_t>(leaving);
      const double rate = direction * leaving_pivot;
      if (rate > 0.0) {
        x_[ls] = lower_[ls];
        state_[ls] = VarState::kAtLower;
      } else {
        x_[ls] = upper_[ls];
        state_[ls] = VarState::kAtUpper;
      }
      state_[q] = VarState::kBasic;
      basis_[static_cast<std::size_t>(leaving_row)] = entering;
      pivot(leaving_row, entering);

      ++iterations_;
      if (t <= kTolerance) {
        ++consecutive_degenerate;
      } else {
        consecutive_degenerate = 0;
      }
    }
  }

  /// Moves every basic variable by -direction*t*alpha_i (entering updated by
  /// the caller).
  void apply_step(int entering, double direction, double t) {
    if (t == 0.0) return;
    for (int i = 0; i < rows_; ++i) {
      const double alpha = at(i, entering);
      if (alpha == 0.0) continue;
      const auto bs = static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(i)]);
      x_[bs] -= direction * t * alpha;
      x_[bs] = std::min(std::max(x_[bs], lower_[bs]), upper_[bs]);
    }
  }

  /// Gauss-Jordan elimination on (pivot_row, pivot_col), including the
  /// reduced-cost row.
  void pivot(int pivot_row, int pivot_col) {
    const double pivot_value = at(pivot_row, pivot_col);
    common::check(std::abs(pivot_value) > kPivotEpsilon,
                  "simplex: numerically singular pivot");
    const double inverse = 1.0 / pivot_value;
    for (int j = 0; j < total_vars_; ++j) {
      at(pivot_row, j) *= inverse;
    }
    at(pivot_row, pivot_col) = 1.0;
    for (int i = 0; i < rows_; ++i) {
      if (i == pivot_row) continue;
      const double factor = at(i, pivot_col);
      if (factor == 0.0) continue;
      for (int j = 0; j < total_vars_; ++j) {
        at(i, j) -= factor * at(pivot_row, j);
      }
      at(i, pivot_col) = 0.0;
    }
    const double cost_factor = reduced_[static_cast<std::size_t>(pivot_col)];
    if (cost_factor != 0.0) {
      for (int j = 0; j < total_vars_; ++j) {
        reduced_[static_cast<std::size_t>(j)] -=
            cost_factor * at(pivot_row, j);
      }
      reduced_[static_cast<std::size_t>(pivot_col)] = 0.0;
    }
  }

  /// After phase 1: degenerate-pivots artificial variables out of the basis
  /// where possible; rows that resist are redundant and keep a fixed
  /// zero-valued artificial.
  void evict_basic_artificials() {
    for (int i = 0; i < rows_; ++i) {
      const int basic = basis_[static_cast<std::size_t>(i)];
      if (basic < first_artificial_) continue;
      int replacement = -1;
      for (int j = 0; j < first_artificial_; ++j) {
        if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
        if (std::abs(at(i, j)) > 1e-6) {
          replacement = j;
          break;
        }
      }
      if (replacement < 0) continue;  // redundant row
      const auto q = static_cast<std::size_t>(replacement);
      const auto bs = static_cast<std::size_t>(basic);
      x_[bs] = 0.0;
      state_[bs] = VarState::kAtLower;
      state_[q] = VarState::kBasic;
      basis_[static_cast<std::size_t>(i)] = replacement;
      pivot(i, replacement);
      // The replacement keeps its current (bound) value; the pivot is
      // degenerate because the artificial sat at zero.
    }
  }

  const Model& model_;
  const SolveOptions& options_;

  int rows_ = 0;
  int total_vars_ = 0;
  int first_artificial_ = 0;
  int artificial_count_ = 0;
  long iterations_ = 0;

  std::vector<double> dense_rows_;
  std::vector<double> rhs_;
  std::vector<double> tableau_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> x_;
  std::vector<double> cost_;
  std::vector<double> reduced_;
  std::vector<VarState> state_;
  std::vector<int> basis_;
  std::vector<double> artificial_sign_;
};

}  // namespace

Solution solve(const Model& model, const SolveOptions& options) {
  if (options.algorithm == Algorithm::kRevised) {
    RevisedSimplex revised(model, options);
    Solution solution = revised.solve_cold();
    if (!revised.numerical_trouble()) return solution;
    common::log_warning(
        "lp::solve: revised simplex gave up on numerics; retrying dense");
  }
  SimplexSolver solver(model, options);
  return solver.run();
}

}  // namespace fpva::lp

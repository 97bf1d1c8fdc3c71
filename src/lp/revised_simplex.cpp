#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace fpva::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPivotEpsilon = 1e-9;
constexpr double kWeakPivot = 1e-7;   ///< below this, prefer a fresh factor
constexpr double kDropEpsilon = 1e-12;
constexpr int kRefactorInterval = 64;
/// A devex weight past this threshold restarts the reference framework.
constexpr double kDevexReset = 1e8;

}  // namespace

RevisedSimplex::RevisedSimplex(const Model& model, SolveOptions options)
    : options_(options) {
  n_ = model.variable_count();
  m_ = model.constraint_count();
  first_artificial_ = n_ + m_;
  total_ = n_ + 2 * m_;
  build_columns(model);

  objective_.resize(static_cast<std::size_t>(n_));
  lower_.assign(static_cast<std::size_t>(total_), 0.0);
  upper_.assign(static_cast<std::size_t>(total_), 0.0);
  for (int j = 0; j < n_; ++j) {
    const Variable& var = model.variable(j);
    objective_[static_cast<std::size_t>(j)] = var.objective;
    lower_[static_cast<std::size_t>(j)] = var.lower;
    upper_[static_cast<std::size_t>(j)] = var.upper;
  }
  for (int i = 0; i < m_; ++i) {
    const auto slack = static_cast<std::size_t>(n_ + i);
    switch (sense_[static_cast<std::size_t>(i)]) {
      case Sense::kLessEqual:
        lower_[slack] = 0.0;
        upper_[slack] = kInf;
        break;
      case Sense::kGreaterEqual:
        lower_[slack] = -kInf;
        upper_[slack] = 0.0;
        break;
      case Sense::kEqual:
        lower_[slack] = 0.0;
        upper_[slack] = 0.0;
        break;
    }
  }
  // Artificial bounds are opened per-row by reset_to_slack_basis.

  x_.assign(static_cast<std::size_t>(total_), 0.0);
  cost_.assign(static_cast<std::size_t>(total_), 0.0);
  state_.assign(static_cast<std::size_t>(total_), VarState::kAtLower);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  artificial_sign_.assign(static_cast<std::size_t>(m_), 1.0);
  work_.assign(static_cast<std::size_t>(m_), 0.0);
  work2_.assign(static_cast<std::size_t>(m_), 0.0);
  pattern_.reserve(static_cast<std::size_t>(m_));
  alpha_row_.assign(static_cast<std::size_t>(total_), 0.0);
  alpha_touched_.assign(static_cast<std::size_t>(total_), 0);
  alpha_cols_.reserve(static_cast<std::size_t>(total_));
}

void RevisedSimplex::build_columns(const Model& model) {
  // Gather the structural matrix column-wise with duplicate terms merged.
  std::vector<int> nnz(static_cast<std::size_t>(n_), 0);
  std::vector<std::vector<Term>> merged(
      static_cast<std::size_t>(m_));
  rhs_.resize(static_cast<std::size_t>(m_));
  sense_.resize(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    const Constraint& row = model.constraint(i);
    rhs_[static_cast<std::size_t>(i)] = row.rhs;
    sense_[static_cast<std::size_t>(i)] = row.sense;
    auto& out = merged[static_cast<std::size_t>(i)];
    for (const Term& term : row.terms) {
      bool found = false;
      for (Term& existing : out) {
        if (existing.variable == term.variable) {
          existing.coefficient += term.coefficient;
          found = true;
          break;
        }
      }
      if (!found) out.push_back(term);
    }
    for (const Term& term : out) {
      ++nnz[static_cast<std::size_t>(term.variable)];
    }
  }
  col_start_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (int j = 0; j < n_; ++j) {
    col_start_[static_cast<std::size_t>(j) + 1] =
        col_start_[static_cast<std::size_t>(j)] +
        nnz[static_cast<std::size_t>(j)];
  }
  const int total_nnz = col_start_[static_cast<std::size_t>(n_)];
  row_index_.resize(static_cast<std::size_t>(total_nnz));
  coeff_.resize(static_cast<std::size_t>(total_nnz));
  std::vector<int> fill = col_start_;
  for (int i = 0; i < m_; ++i) {
    for (const Term& term : merged[static_cast<std::size_t>(i)]) {
      const int slot = fill[static_cast<std::size_t>(term.variable)]++;
      row_index_[static_cast<std::size_t>(slot)] = i;
      coeff_[static_cast<std::size_t>(slot)] = term.coefficient;
    }
  }
  // CSR transpose for row-wise dual pricing (alpha = one row of B^-1 A).
  row_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
  for (int i = 0; i < m_; ++i) {
    row_start_[static_cast<std::size_t>(i) + 1] =
        row_start_[static_cast<std::size_t>(i)] +
        static_cast<int>(merged[static_cast<std::size_t>(i)].size());
  }
  row_col_.resize(static_cast<std::size_t>(total_nnz));
  row_coeff_.resize(static_cast<std::size_t>(total_nnz));
  std::vector<int> row_fill = row_start_;
  for (int i = 0; i < m_; ++i) {
    for (const Term& term : merged[static_cast<std::size_t>(i)]) {
      const int slot = row_fill[static_cast<std::size_t>(i)]++;
      row_col_[static_cast<std::size_t>(slot)] = term.variable;
      row_coeff_[static_cast<std::size_t>(slot)] = term.coefficient;
    }
  }
}

int RevisedSimplex::column_nnz(int var) const {
  if (var < n_) {
    return col_start_[static_cast<std::size_t>(var) + 1] -
           col_start_[static_cast<std::size_t>(var)];
  }
  return 1;  // slack and artificial columns are unit
}

void RevisedSimplex::load_column(int var, std::vector<double>& dense,
                                 std::vector<int>& pattern) const {
  for (const int i : pattern) dense[static_cast<std::size_t>(i)] = 0.0;
  pattern.clear();
  if (var < n_) {
    for (int k = col_start_[static_cast<std::size_t>(var)];
         k < col_start_[static_cast<std::size_t>(var) + 1]; ++k) {
      const int row = row_index_[static_cast<std::size_t>(k)];
      dense[static_cast<std::size_t>(row)] =
          coeff_[static_cast<std::size_t>(k)];
      pattern.push_back(row);
    }
  } else if (var < first_artificial_) {
    const int row = var - n_;
    dense[static_cast<std::size_t>(row)] = 1.0;
    pattern.push_back(row);
  } else {
    const int row = var - first_artificial_;
    dense[static_cast<std::size_t>(row)] =
        artificial_sign_[static_cast<std::size_t>(row)];
    pattern.push_back(row);
  }
}

double RevisedSimplex::column_dot(int var,
                                  const std::vector<double>& dense) const {
  if (var < n_) {
    double sum = 0.0;
    for (int k = col_start_[static_cast<std::size_t>(var)];
         k < col_start_[static_cast<std::size_t>(var) + 1]; ++k) {
      sum += coeff_[static_cast<std::size_t>(k)] *
             dense[static_cast<std::size_t>(row_index_[
                 static_cast<std::size_t>(k)])];
    }
    return sum;
  }
  if (var < first_artificial_) {
    return dense[static_cast<std::size_t>(var - n_)];
  }
  const int row = var - first_artificial_;
  return artificial_sign_[static_cast<std::size_t>(row)] *
         dense[static_cast<std::size_t>(row)];
}

void RevisedSimplex::set_bounds(int variable, double lower, double upper) {
  common::check(variable >= 0 && variable < n_,
                "RevisedSimplex::set_bounds: variable out of range");
  common::check(lower <= upper, "RevisedSimplex::set_bounds: empty domain");
  const auto j = static_cast<std::size_t>(variable);
  lower_[j] = lower;
  upper_[j] = upper;
  if (state_[j] == VarState::kAtLower) {
    x_[j] = lower;
  } else if (state_[j] == VarState::kAtUpper) {
    x_[j] = upper;
  }
  values_dirty_ = true;
}

double RevisedSimplex::lower_bound(int variable) const {
  common::check(variable >= 0 && variable < n_,
                "RevisedSimplex::lower_bound: out of range");
  return lower_[static_cast<std::size_t>(variable)];
}

double RevisedSimplex::upper_bound(int variable) const {
  common::check(variable >= 0 && variable < n_,
                "RevisedSimplex::upper_bound: out of range");
  return upper_[static_cast<std::size_t>(variable)];
}

void RevisedSimplex::rebuild_csc() {
  const auto total_nnz = row_col_.size();
  col_start_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (std::size_t k = 0; k < total_nnz; ++k) {
    ++col_start_[static_cast<std::size_t>(row_col_[k]) + 1];
  }
  for (int j = 0; j < n_; ++j) {
    col_start_[static_cast<std::size_t>(j) + 1] +=
        col_start_[static_cast<std::size_t>(j)];
  }
  row_index_.resize(total_nnz);
  coeff_.resize(total_nnz);
  std::vector<int> fill = col_start_;
  for (int i = 0; i < m_; ++i) {
    for (int k = row_start_[static_cast<std::size_t>(i)];
         k < row_start_[static_cast<std::size_t>(i) + 1]; ++k) {
      const int slot = fill[static_cast<std::size_t>(
          row_col_[static_cast<std::size_t>(k)])]++;
      row_index_[static_cast<std::size_t>(slot)] = i;
      coeff_[static_cast<std::size_t>(slot)] =
          row_coeff_[static_cast<std::size_t>(k)];
    }
  }
}

void RevisedSimplex::add_row(const std::vector<Term>& terms, Sense sense,
                             double rhs) {
  std::vector<Term> merged;
  merged.reserve(terms.size());
  for (const Term& term : terms) {
    common::check(term.variable >= 0 && term.variable < n_,
                  "RevisedSimplex::add_row: variable out of range");
    bool found = false;
    for (Term& existing : merged) {
      if (existing.variable == term.variable) {
        existing.coefficient += term.coefficient;
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(term);
  }

  // The new slack slot is spliced in right after the existing slacks, so
  // the artificial block shifts up by one; basis references follow.
  const int new_slack = n_ + m_;
  double slack_lower = 0.0, slack_upper = 0.0;
  switch (sense) {
    case Sense::kLessEqual:
      slack_lower = 0.0;
      slack_upper = kInf;
      break;
    case Sense::kGreaterEqual:
      slack_lower = -kInf;
      slack_upper = 0.0;
      break;
    case Sense::kEqual:
      slack_lower = 0.0;
      slack_upper = 0.0;
      break;
  }
  const auto insert_at = static_cast<std::ptrdiff_t>(first_artificial_);
  lower_.insert(lower_.begin() + insert_at, slack_lower);
  upper_.insert(upper_.begin() + insert_at, slack_upper);
  x_.insert(x_.begin() + insert_at, 0.0);
  cost_.insert(cost_.begin() + insert_at, 0.0);
  state_.insert(state_.begin() + insert_at, VarState::kBasic);
  // New artificial, fixed at zero until a cold two-phase start opens it.
  lower_.push_back(0.0);
  upper_.push_back(0.0);
  x_.push_back(0.0);
  cost_.push_back(0.0);
  state_.push_back(VarState::kAtLower);
  for (int& basic : basis_) {
    if (basic >= first_artificial_) ++basic;
  }
  first_artificial_ += 1;
  total_ += 2;

  rhs_.push_back(rhs);
  sense_.push_back(sense);
  artificial_sign_.push_back(1.0);
  for (const Term& term : merged) {
    row_col_.push_back(term.variable);
    row_coeff_.push_back(term.coefficient);
  }
  row_start_.push_back(static_cast<int>(row_col_.size()));
  m_ += 1;
  // The CSC mirror and the scratch sizes are refreshed once per batch of
  // appended rows (flush_row_additions at the next solve entry), not per
  // row — the root cutting loop appends up to 200 rows per round between
  // solves. Nothing below needs them: the live-basis extension works off
  // the merged terms and basis_ alone.
  rows_dirty_ = true;

  basis_.push_back(new_slack);
  values_dirty_ = true;

  if (basis_valid_ && lu() && lu_.valid()) {
    // Extend the live factorization: gather the new row's coefficients on
    // the basic columns by basis position and append the unit pivot.
    std::vector<int> var_position(static_cast<std::size_t>(n_), -1);
    for (int p = 0; p < m_ - 1; ++p) {
      const int basic = basis_[static_cast<std::size_t>(p)];
      if (basic < n_) var_position[static_cast<std::size_t>(basic)] = p;
    }
    std::vector<int> positions;
    std::vector<double> values;
    for (const Term& term : merged) {
      const int p = var_position[static_cast<std::size_t>(term.variable)];
      if (p >= 0) {
        positions.push_back(p);
        values.push_back(term.coefficient);
      }
    }
    if (lu_.add_row(positions, values)) {
      ++warm_rows_added_;
    } else {
      basis_valid_ = false;
    }
  } else {
    // Eta oracle (or no live factorization): the next solve cold-starts.
    basis_valid_ = false;
  }
}

void RevisedSimplex::flush_row_additions() {
  if (!rows_dirty_) return;
  rebuild_csc();
  work_.assign(static_cast<std::size_t>(m_), 0.0);
  work2_.assign(static_cast<std::size_t>(m_), 0.0);
  alpha_row_.assign(static_cast<std::size_t>(total_), 0.0);
  alpha_touched_.assign(static_cast<std::size_t>(total_), 0);
  alpha_cols_.clear();
  rows_dirty_ = false;
}

BasisSnapshot RevisedSimplex::snapshot_basis() const {
  BasisSnapshot snapshot;
  snapshot.rows = m_;
  snapshot.basis = basis_;
  snapshot.state.resize(state_.size());
  for (std::size_t j = 0; j < state_.size(); ++j) {
    snapshot.state[j] = static_cast<std::uint8_t>(state_[j]);
  }
  return snapshot;
}

bool RevisedSimplex::restore_basis(const BasisSnapshot& snapshot) {
  flush_row_additions();
  if (snapshot.rows != m_ ||
      snapshot.basis.size() != static_cast<std::size_t>(m_) ||
      snapshot.state.size() != static_cast<std::size_t>(total_)) {
    return false;
  }
  // Assertion-level restores after a backjump often land on a checkpoint
  // identical to the live basis (the jump returned to the ancestor whose
  // basis is still loaded). Adopting it would only rebuild the same
  // factorization — skip the refactorization and keep the live one.
  if (basis_valid_ && !numerics_failed_ && basis_ == snapshot.basis) {
    bool same_state = true;
    for (std::size_t j = 0; j < snapshot.state.size() && same_state; ++j) {
      same_state = state_[j] == static_cast<VarState>(snapshot.state[j]);
    }
    if (same_state) return true;
  }
  basis_ = snapshot.basis;
  for (std::size_t j = 0; j < snapshot.state.size(); ++j) {
    state_[j] = static_cast<VarState>(snapshot.state[j]);
    if (state_[j] == VarState::kAtLower) {
      x_[j] = lower_[j];
    } else if (state_[j] == VarState::kAtUpper) {
      x_[j] = upper_[j];
    }
  }
  values_dirty_ = true;
  basis_valid_ = refactorize();
  return basis_valid_;
}

// ---------------------------------------------------------------- factorize

void RevisedSimplex::append_eta(int pivot_row,
                                const std::vector<double>& alpha,
                                const std::vector<int>& alpha_pattern) {
  const double pivot_value = alpha[static_cast<std::size_t>(pivot_row)];
  Eta eta;
  eta.pivot_row = pivot_row;
  eta.pivot_value = 1.0 / pivot_value;
  eta.start = static_cast<int>(eta_index_.size());
  for (const int i : alpha_pattern) {
    if (i == pivot_row) continue;
    const double a = alpha[static_cast<std::size_t>(i)];
    if (std::abs(a) <= kDropEpsilon) continue;
    eta_index_.push_back(i);
    eta_value_.push_back(-a / pivot_value);
  }
  eta.end = static_cast<int>(eta_index_.size());
  etas_.push_back(eta);
}

void RevisedSimplex::ftran(std::vector<double>& dense) const {
  if (lu() && lu_.valid()) {
    lu_.ftran(dense);
    return;
  }
  for (const Eta& eta : etas_) {
    const double t = dense[static_cast<std::size_t>(eta.pivot_row)];
    if (t == 0.0) continue;
    dense[static_cast<std::size_t>(eta.pivot_row)] = eta.pivot_value * t;
    for (int k = eta.start; k < eta.end; ++k) {
      dense[static_cast<std::size_t>(
          eta_index_[static_cast<std::size_t>(k)])] +=
          eta_value_[static_cast<std::size_t>(k)] * t;
    }
  }
}

void RevisedSimplex::ftran_entering(std::vector<double>& dense) const {
  if (lu() && lu_.valid()) {
    lu_.ftran(dense, /*save_spike=*/true);
    return;
  }
  ftran(dense);
}

void RevisedSimplex::btran(std::vector<double>& dense) const {
  if (lu() && lu_.valid()) {
    lu_.btran(dense);
    return;
  }
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& eta = *it;
    double s = eta.pivot_value * dense[static_cast<std::size_t>(eta.pivot_row)];
    for (int k = eta.start; k < eta.end; ++k) {
      s += eta_value_[static_cast<std::size_t>(k)] *
           dense[static_cast<std::size_t>(
               eta_index_[static_cast<std::size_t>(k)])];
    }
    dense[static_cast<std::size_t>(eta.pivot_row)] = s;
  }
}

bool RevisedSimplex::refactorize() {
  ++refactorizations_;
  if (lu()) {
    // Fail-point: a forced LU-instability event reports the refactorization
    // as singular, exercising the numeric-recovery ladder end to end.
    if (common::failpoint::evaluate("lp.lu_refactor") ==
        common::failpoint::Action::kError) {
      return false;
    }
    return refactorize_lu();
  }
  return refactorize_eta();
}

/// Gathers the basis columns into a CSC scratch and hands them to the
/// Markowitz/Forrest-Tomlin engine. Does not permute basis_ (the LU keeps
/// its pivot ordering internal).
bool RevisedSimplex::refactorize_lu() {
  lu_col_rows_.clear();
  lu_col_vals_.clear();
  lu_col_start_.clear();
  lu_col_start_.push_back(0);
  for (int i = 0; i < m_; ++i) {
    const int var = basis_[static_cast<std::size_t>(i)];
    if (var < n_) {
      for (int k = col_start_[static_cast<std::size_t>(var)];
           k < col_start_[static_cast<std::size_t>(var) + 1]; ++k) {
        lu_col_rows_.push_back(row_index_[static_cast<std::size_t>(k)]);
        lu_col_vals_.push_back(coeff_[static_cast<std::size_t>(k)]);
      }
    } else if (var < first_artificial_) {
      lu_col_rows_.push_back(var - n_);
      lu_col_vals_.push_back(1.0);
    } else {
      const int row = var - first_artificial_;
      lu_col_rows_.push_back(row);
      lu_col_vals_.push_back(artificial_sign_[static_cast<std::size_t>(row)]);
    }
    lu_col_start_.push_back(static_cast<int>(lu_col_rows_.size()));
  }
  std::vector<BasisColumn> columns(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const int start = lu_col_start_[is];
    columns[is] = {lu_col_rows_.data() + start, lu_col_vals_.data() + start,
                   lu_col_start_[is + 1] - start};
  }
  etas_.clear();
  eta_index_.clear();
  eta_value_.clear();
  factor_etas_ = 0;
  values_dirty_ = true;
  return lu_.factorize(m_, columns);
}

bool RevisedSimplex::factor_is_stale() const {
  if (lu()) return !lu_.valid() || lu_.updates_since_factor() > 0;
  return static_cast<int>(etas_.size()) > factor_etas_;
}

bool RevisedSimplex::factor_needs_refresh() const {
  if (lu()) return lu_.needs_refactor();
  return static_cast<int>(etas_.size()) - factor_etas_ >= kRefactorInterval;
}

bool RevisedSimplex::factor_update(int pivot_row, double pivot_value,
                                   const std::vector<double>& alpha,
                                   const std::vector<int>& alpha_pattern) {
  factor_rebuilt_ = false;
  if (!lu()) {
    append_eta(pivot_row, alpha, alpha_pattern);
    return true;
  }
  if (lu_.valid() && lu_.update(pivot_row, pivot_value)) {
    ++basis_updates_;
    if (!lu_.needs_refactor()) return true;
  }
  // Unstable/singular update or the fill policy fired: basis_ already
  // reflects the pivot, so a fresh factorization replaces the update.
  factor_rebuilt_ = true;
  return refactorize();
}

bool RevisedSimplex::refactorize_eta() {
  etas_.clear();
  eta_index_.clear();
  eta_value_.clear();
  // Process basis columns sparsest-first: unit slack/artificial columns
  // pivot their row with zero fill, leaving only the structural "bump".
  std::vector<int> order(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) order[static_cast<std::size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return column_nnz(basis_[static_cast<std::size_t>(a)]) <
           column_nnz(basis_[static_cast<std::size_t>(b)]);
  });

  std::vector<char> row_taken(static_cast<std::size_t>(m_), 0);
  std::vector<int> new_basis(static_cast<std::size_t>(m_), -1);
  std::vector<double>& dense = work_;
  std::vector<int>& pattern = pattern_;
  for (const int position : order) {
    const int var = basis_[static_cast<std::size_t>(position)];
    load_column(var, dense, pattern);
    ftran(dense);
    // The FTRAN may have created fill outside the loaded pattern; rescan.
    int pivot_row = -1;
    double best = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (row_taken[static_cast<std::size_t>(i)]) continue;
      const double a = std::abs(dense[static_cast<std::size_t>(i)]);
      if (a > best) {
        best = a;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || best <= 1e-11) {
      // Clear the dense scratch before bailing out.
      std::fill(dense.begin(), dense.end(), 0.0);
      pattern.clear();
      return false;  // singular basis
    }
    pattern.clear();
    for (int i = 0; i < m_; ++i) {
      if (dense[static_cast<std::size_t>(i)] != 0.0) pattern.push_back(i);
    }
    append_eta(pivot_row, dense, pattern);
    row_taken[static_cast<std::size_t>(pivot_row)] = 1;
    new_basis[static_cast<std::size_t>(pivot_row)] = var;
    for (const int i : pattern) dense[static_cast<std::size_t>(i)] = 0.0;
    pattern.clear();
  }
  basis_ = std::move(new_basis);
  factor_etas_ = static_cast<int>(etas_.size());
  values_dirty_ = true;
  return true;
}

void RevisedSimplex::compute_basic_values() {
  std::vector<double>& r = work2_;
  for (int i = 0; i < m_; ++i) {
    r[static_cast<std::size_t>(i)] = rhs_[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < total_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (state_[js] == VarState::kBasic) continue;
    const double v = x_[js];
    if (v == 0.0) continue;
    if (j < n_) {
      for (int k = col_start_[js]; k < col_start_[js + 1]; ++k) {
        r[static_cast<std::size_t>(
            row_index_[static_cast<std::size_t>(k)])] -=
            coeff_[static_cast<std::size_t>(k)] * v;
      }
    } else if (j < first_artificial_) {
      r[static_cast<std::size_t>(j - n_)] -= v;
    } else {
      const int row = j - first_artificial_;
      r[static_cast<std::size_t>(row)] -=
          artificial_sign_[static_cast<std::size_t>(row)] * v;
    }
  }
  ftran(r);
  for (int i = 0; i < m_; ++i) {
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        r[static_cast<std::size_t>(i)];
    r[static_cast<std::size_t>(i)] = 0.0;
  }
  values_dirty_ = false;
}

void RevisedSimplex::compute_duals(std::vector<double>& y) const {
  y.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    y[static_cast<std::size_t>(i)] =
        cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
  }
  btran(y);
}

/// Copies the BTRAN'd unit row of the violated basic into the solution's
/// Farkas ray, oriented to the Solution::farkas_ray sign convention:
/// `below` (basic under its lower bound) keeps +rho, an over-upper basic
/// negates it.
void RevisedSimplex::fill_farkas_ray(const std::vector<double>& rho,
                                     bool below, Solution& result) const {
  result.farkas_ray.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const auto is = static_cast<std::size_t>(i);
    result.farkas_ray[is] = below ? rho[is] : -rho[is];
  }
}

/// Recomputes the dual reduced costs exactly. Called when the dual simplex
/// starts and at every refactorization; between those points reduced_d_ is
/// updated incrementally per pivot (one multiply per touched column instead
/// of a BTRAN plus a full pricing dot pass per iteration).
void RevisedSimplex::refresh_reduced_costs() {
  std::vector<double>& y = duals_;
  compute_duals(y);
  reduced_d_.assign(static_cast<std::size_t>(total_), 0.0);
  for (int j = 0; j < total_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (state_[js] == VarState::kBasic) continue;
    reduced_d_[js] = cost_[js] - column_dot(j, y);
  }
}

// -------------------------------------------------------------------- devex

void RevisedSimplex::reset_primal_devex() {
  devex_weight_.assign(static_cast<std::size_t>(total_), 1.0);
}

void RevisedSimplex::update_primal_devex(int entering, int pivot_row,
                                         double pivot_value) {
  // Devex (Harris '73): the entering column's reference weight, mapped
  // through the pivot row of the *pre-pivot* B^-1, bounds the weights of
  // every nonbasic column from below. Columns outside the gathered pivot
  // row have alpha exactly zero and keep their weight.
  std::vector<double>& rho = devex_rho_;
  rho.assign(static_cast<std::size_t>(m_), 0.0);
  rho[static_cast<std::size_t>(pivot_row)] = 1.0;
  btran(rho);
  gather_pivot_row(rho);
  const auto q = static_cast<std::size_t>(entering);
  const double w_q = devex_weight_[q];
  const double inv2 = 1.0 / (pivot_value * pivot_value);
  double w_max = 0.0;
  for (const int j : alpha_cols_) {
    const auto js = static_cast<std::size_t>(j);
    if (j == entering || state_[js] == VarState::kBasic) continue;
    if (upper_[js] - lower_[js] <= 0.0) continue;  // fixed: never priced
    const double a = alpha_row_[js];
    if (a == 0.0) continue;
    const double candidate = a * a * inv2 * w_q;
    if (candidate > devex_weight_[js]) devex_weight_[js] = candidate;
    w_max = std::max(w_max, devex_weight_[js]);
  }
  const auto leaving = static_cast<std::size_t>(
      basis_[static_cast<std::size_t>(pivot_row)]);
  devex_weight_[leaving] = std::max(w_q * inv2, 1.0);
  if (w_max > kDevexReset) reset_primal_devex();
}

void RevisedSimplex::gather_pivot_row(const std::vector<double>& rho) const {
  for (const int j : alpha_cols_) {
    alpha_row_[static_cast<std::size_t>(j)] = 0.0;
    alpha_touched_[static_cast<std::size_t>(j)] = 0;
  }
  alpha_cols_.clear();
  for (int i = 0; i < m_; ++i) {
    const double r = rho[static_cast<std::size_t>(i)];
    if (r == 0.0) continue;
    for (int k = row_start_[static_cast<std::size_t>(i)];
         k < row_start_[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto j = static_cast<std::size_t>(
          row_col_[static_cast<std::size_t>(k)]);
      if (!alpha_touched_[j]) {
        alpha_touched_[j] = 1;
        alpha_cols_.push_back(static_cast<int>(j));
      }
      alpha_row_[j] += r * row_coeff_[static_cast<std::size_t>(k)];
    }
    const auto slack = static_cast<std::size_t>(n_ + i);
    if (!alpha_touched_[slack]) {
      alpha_touched_[slack] = 1;
      alpha_cols_.push_back(n_ + i);
    }
    alpha_row_[slack] += r;  // slack column is the unit vector e_i
  }
}

void RevisedSimplex::reset_dual_devex() {
  dual_weight_.assign(static_cast<std::size_t>(m_), 1.0);
}

void RevisedSimplex::update_dual_devex(int pivot_row, double pivot_value,
                                       const std::vector<double>& alpha,
                                       const std::vector<int>& pattern) {
  // Row-space devex: dual_weight_[i] tracks ||e_i^T B^-1||^2 within the
  // reference framework. After the pivot, row i picks up -alpha_i/alpha_r
  // times the old pivot row; the update needs only the FTRAN'd entering
  // column, so it is O(nnz(alpha)).
  const auto r = static_cast<std::size_t>(pivot_row);
  const double w_r = dual_weight_[r];
  const double inv2 = 1.0 / (pivot_value * pivot_value);
  double w_max = 0.0;
  for (const int i : pattern) {
    if (i == pivot_row) continue;
    const double a = alpha[static_cast<std::size_t>(i)];
    const double candidate = a * a * inv2 * w_r;
    auto& w = dual_weight_[static_cast<std::size_t>(i)];
    if (candidate > w) w = candidate;
    w_max = std::max(w_max, w);
  }
  dual_weight_[r] = std::max(w_r * inv2, 1.0);
  if (w_max > kDevexReset) reset_dual_devex();
}

void RevisedSimplex::fill_primal_point(Solution& result) const {
  result.values.resize(static_cast<std::size_t>(n_));
  double objective = 0.0;
  for (int j = 0; j < n_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double v = std::min(std::max(x_[js], lower_[js]), upper_[js]);
    result.values[js] = v;
    objective += objective_[js] * v;
  }
  result.objective = objective;
}

// ------------------------------------------------------------------- primal

void RevisedSimplex::reset_to_slack_basis() {
  etas_.clear();
  eta_index_.clear();
  eta_value_.clear();
  factor_etas_ = 0;
  basis_valid_ = false;

  for (int j = 0; j < n_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const bool prefer_lower = std::abs(lower_[js]) <= std::abs(upper_[js]);
    state_[js] = prefer_lower ? VarState::kAtLower : VarState::kAtUpper;
    x_[js] = prefer_lower ? lower_[js] : upper_[js];
  }

  // Row residuals once the structurals are parked.
  std::vector<double>& residual = work2_;
  for (int i = 0; i < m_; ++i) {
    residual[static_cast<std::size_t>(i)] = rhs_[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < n_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double v = x_[js];
    if (v == 0.0) continue;
    for (int k = col_start_[js]; k < col_start_[js + 1]; ++k) {
      residual[static_cast<std::size_t>(
          row_index_[static_cast<std::size_t>(k)])] -=
          coeff_[static_cast<std::size_t>(k)] * v;
    }
  }

  for (int i = 0; i < m_; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const auto slack = static_cast<std::size_t>(n_ + i);
    const auto art = static_cast<std::size_t>(first_artificial_ + i);
    const double r = residual[is];
    const double slo = lower_[slack];
    const double shi = upper_[slack];
    if (r >= slo - kTolerance && r <= shi + kTolerance) {
      // Slack absorbs the residual; artificial stays fixed at zero.
      state_[slack] = VarState::kBasic;
      x_[slack] = std::min(std::max(r, slo), shi);
      basis_[is] = n_ + i;
      artificial_sign_[is] = 1.0;
      lower_[art] = 0.0;
      upper_[art] = 0.0;
      state_[art] = VarState::kAtLower;
      x_[art] = 0.0;
    } else {
      // Park the slack at its violated (finite) end; the artificial takes
      // the leftover with a sign that keeps it nonnegative.
      const double clamped = std::min(std::max(r, slo), shi);
      state_[slack] = clamped <= slo + kTolerance
                          ? VarState::kAtLower
                          : VarState::kAtUpper;
      x_[slack] = clamped;
      const double leftover = r - clamped;
      artificial_sign_[is] = leftover > 0 ? 1.0 : -1.0;
      lower_[art] = 0.0;
      upper_[art] = kInf;
      state_[art] = VarState::kBasic;
      x_[art] = std::abs(leftover);
      basis_[is] = first_artificial_ + i;
    }
    residual[is] = 0.0;
  }
  values_dirty_ = false;  // basic values assigned exactly above
}

bool RevisedSimplex::price(const std::vector<double>& y, bool bland,
                           int* entering, double* violation) const {
  int best = -1;
  double best_violation = kTolerance;
  double best_score = 0.0;
  const auto consider = [&](int j, double d) {
    const auto js = static_cast<std::size_t>(j);
    double v = 0.0;
    if (state_[js] == VarState::kAtLower && d < -kTolerance) {
      v = -d;
    } else if (state_[js] == VarState::kAtUpper && d > kTolerance) {
      v = d;
    } else {
      return false;
    }
    if (bland) {
      best = j;
      best_violation = v;
      return true;  // Bland: first violating index wins
    }
    // Devex scores the violation against the reference weight (a running
    // lower bound on ||B^-1 a_j||^2), approximating steepest edge without
    // its exact-norm recurrences.
    const double score = v * v / devex_weight_[js];
    if (best < 0 ? v > best_violation : score > best_score) {
      best_score = score;
      best_violation = v;
      best = j;
    }
    return false;
  };
  for (int j = 0; j < n_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (state_[js] == VarState::kBasic) continue;
    if (upper_[js] - lower_[js] <= 0.0) continue;  // fixed
    double dot = 0.0;
    for (int k = col_start_[js]; k < col_start_[js + 1]; ++k) {
      dot += coeff_[static_cast<std::size_t>(k)] *
             y[static_cast<std::size_t>(
                 row_index_[static_cast<std::size_t>(k)])];
    }
    if (consider(j, cost_[js] - dot)) break;
  }
  if (best < 0 || !bland) {
    for (int i = 0; i < m_ && (best < 0 || !bland); ++i) {
      for (int part = 0; part < 2; ++part) {
        const int j = part == 0 ? n_ + i : first_artificial_ + i;
        const auto js = static_cast<std::size_t>(j);
        if (state_[js] == VarState::kBasic) continue;
        if (upper_[js] - lower_[js] <= 0.0) continue;  // fixed
        const double dot = part == 0
                               ? y[static_cast<std::size_t>(i)]
                               : artificial_sign_[static_cast<std::size_t>(i)] *
                                     y[static_cast<std::size_t>(i)];
        if (consider(j, cost_[js] - dot)) break;
      }
    }
  }
  if (best < 0) return false;
  *entering = best;
  *violation = best_violation;
  return true;
}

bool RevisedSimplex::primal_iterate(long budget, Solution& result) {
  int consecutive_degenerate = 0;
  const int bland_threshold = 2 * (m_ + total_) + 20;
  std::vector<double>& y = duals_;
  std::vector<double>& alpha = work_;
  std::vector<int>& pattern = pattern_;
  reset_primal_devex();  // fresh reference framework per phase
  // Pivot loop is bounded by the caller's per-solve iteration budget;
  // cancellation is polled at node granularity by the branch-and-bound
  // driver so truncated LPs replay bit-exactly on resume.
  // fpva-lint: allow(missing-stop-poll)
  while (true) {
    if (iterations_ >= budget) {
      result.status = SolveStatus::kIterationLimit;
      result.iterations = iterations_;
      return false;
    }
    if (values_dirty_) compute_basic_values();

    compute_duals(y);
    int entering = -1;
    double violation = 0.0;
    if (!price(y, consecutive_degenerate > bland_threshold, &entering,
               &violation)) {
      return true;  // phase optimal
    }
    const auto q = static_cast<std::size_t>(entering);
    const double direction = state_[q] == VarState::kAtLower ? 1.0 : -1.0;
    const bool bland = consecutive_degenerate > bland_threshold;

    load_column(entering, alpha, pattern);
    ftran_entering(alpha);
    pattern.clear();
    for (int i = 0; i < m_; ++i) {
      if (alpha[static_cast<std::size_t>(i)] != 0.0) pattern.push_back(i);
    }

    // Bounded ratio test (see simplex.cpp; same tie-breaking).
    double best_t = upper_[q] - lower_[q];
    int leaving_row = -1;
    double leaving_pivot = 0.0;
    for (const int i : pattern) {
      const double a = alpha[static_cast<std::size_t>(i)];
      if (std::abs(a) <= kPivotEpsilon) continue;
      const int basic = basis_[static_cast<std::size_t>(i)];
      const auto bs = static_cast<std::size_t>(basic);
      const double rate = direction * a;  // basic changes by -rate*t
      double t;
      if (rate > 0.0) {
        t = (x_[bs] - lower_[bs]) / rate;
      } else {
        t = (upper_[bs] - x_[bs]) / (-rate);
      }
      if (!std::isfinite(t)) continue;  // unbounded in this row
      t = std::max(t, 0.0);
      const bool better =
          t < best_t - kPivotEpsilon ||
          (t < best_t + kPivotEpsilon && leaving_row >= 0 &&
           (bland ? basic < basis_[static_cast<std::size_t>(leaving_row)]
                  : std::abs(a) > std::abs(leaving_pivot)));
      if (leaving_row < 0 ? t < best_t + kPivotEpsilon : better) {
        best_t = std::min(best_t, t);
        leaving_row = i;
        leaving_pivot = a;
      }
    }

    if (leaving_row < 0 && !std::isfinite(best_t)) {
      // A bounded model cannot produce an unbounded improving ray; treat as
      // numerical breakdown so the caller can fall back.
      common::log_warning("revised simplex: unbounded step; restarting");
      numerics_failed_ = true;
      result.status = SolveStatus::kIterationLimit;
      result.iterations = iterations_;
      for (const int i : pattern) alpha[static_cast<std::size_t>(i)] = 0.0;
      pattern.clear();
      return false;
    }

    const double t = std::max(best_t, 0.0);
    if (leaving_row < 0) {
      // Pure bound flip.
      for (const int i : pattern) {
        const double a = alpha[static_cast<std::size_t>(i)];
        const auto bs = static_cast<std::size_t>(
            basis_[static_cast<std::size_t>(i)]);
        x_[bs] -= direction * t * a;
        x_[bs] = std::min(std::max(x_[bs], lower_[bs]), upper_[bs]);
        alpha[static_cast<std::size_t>(i)] = 0.0;
      }
      pattern.clear();
      x_[q] = direction > 0 ? upper_[q] : lower_[q];
      state_[q] = direction > 0 ? VarState::kAtUpper : VarState::kAtLower;
      ++iterations_;
      consecutive_degenerate = 0;
      continue;
    }

    const double pivot_value = alpha[static_cast<std::size_t>(leaving_row)];
    if (std::abs(pivot_value) <= kWeakPivot && factor_is_stale()) {
      // Weak pivot on a stale factorization: refactorize and retry the
      // whole iteration with fresh numerics.
      for (const int i : pattern) alpha[static_cast<std::size_t>(i)] = 0.0;
      pattern.clear();
      if (!refactorize()) {
        numerics_failed_ = true;
        result.status = SolveStatus::kIterationLimit;
        result.iterations = iterations_;
        return false;
      }
      continue;
    }
    if (std::abs(pivot_value) <= kPivotEpsilon) {
      common::log_warning("revised simplex: numerically singular pivot");
      numerics_failed_ = true;
      result.status = SolveStatus::kIterationLimit;
      result.iterations = iterations_;
      for (const int i : pattern) alpha[static_cast<std::size_t>(i)] = 0.0;
      pattern.clear();
      return false;
    }

    for (const int i : pattern) {
      const double a = alpha[static_cast<std::size_t>(i)];
      const auto bs =
          static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
      x_[bs] -= direction * t * a;
      x_[bs] = std::min(std::max(x_[bs], lower_[bs]), upper_[bs]);
    }
    x_[q] += direction * t;

    // Devex update prices against the pre-pivot basis inverse: it must run
    // before the eta is appended and before basis_/state_ change.
    update_primal_devex(entering, leaving_row, pivot_value);

    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
    const auto ls = static_cast<std::size_t>(leaving);
    const double rate = direction * pivot_value;
    if (rate > 0.0) {
      x_[ls] = lower_[ls];
      state_[ls] = VarState::kAtLower;
    } else {
      x_[ls] = upper_[ls];
      state_[ls] = VarState::kAtUpper;
    }
    state_[q] = VarState::kBasic;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;
    const bool factor_ok = factor_update(leaving_row, pivot_value, alpha,
                                         pattern);
    for (const int i : pattern) alpha[static_cast<std::size_t>(i)] = 0.0;
    pattern.clear();
    if (!factor_ok) {
      numerics_failed_ = true;
      result.status = SolveStatus::kIterationLimit;
      result.iterations = iterations_;
      return false;
    }

    ++iterations_;
    if (t <= kTolerance) {
      ++consecutive_degenerate;
    } else {
      consecutive_degenerate = 0;
    }
    if (!factor_rebuilt_ && factor_needs_refresh()) {
      if (!refactorize()) {
        numerics_failed_ = true;
        result.status = SolveStatus::kIterationLimit;
        result.iterations = iterations_;
        return false;
      }
      compute_basic_values();
    }
  }
}

// --------------------------------------------------------------------- dual

bool RevisedSimplex::dual_iterate(long budget, Solution& result) {
  int consecutive_degenerate = 0;
  const int bland_threshold = 2 * (m_ + total_) + 20;
  std::vector<double>& alpha = work_;
  std::vector<int>& pattern = pattern_;
  std::vector<double>& rho = rho_;
  rho.assign(static_cast<std::size_t>(m_), 0.0);
  reset_dual_devex();  // fresh row framework per dual run
  refresh_reduced_costs();
  // Bounded by the per-solve pivot budget; cancellation happens at node
  // granularity in the driver (see primal_iterate for the rationale).
  // fpva-lint: allow(missing-stop-poll)
  while (true) {
    if (iterations_ >= budget) {
      result.status = SolveStatus::kIterationLimit;
      result.iterations = iterations_;
      return true;
    }
    if (values_dirty_) compute_basic_values();

    const bool bland = consecutive_degenerate > bland_threshold;
    if (consecutive_degenerate > 8 * bland_threshold + 1000) {
      // Degenerate stalling despite Bland's rule: give up on the warm basis
      // and let the caller cold start.
      numerics_failed_ = true;
      return false;
    }

    // Leaving row: the basic variable with the largest violation^2 / devex
    // row weight (under Bland's anti-cycling rule: the lowest-index violated
    // basic).
    int leaving_row = -1;
    double worst = kTolerance;
    double worst_score = 0.0;
    bool below = false;
    for (int i = 0; i < m_; ++i) {
      const int basic = basis_[static_cast<std::size_t>(i)];
      const auto bs = static_cast<std::size_t>(basic);
      const double under = lower_[bs] - x_[bs];
      const double over = x_[bs] - upper_[bs];
      const double violation = std::max(under, over);
      if (violation <= kTolerance) continue;
      bool take;
      if (bland) {
        take = leaving_row < 0 ||
               basic < basis_[static_cast<std::size_t>(leaving_row)];
      } else {
        const double score = violation * violation /
                             dual_weight_[static_cast<std::size_t>(i)];
        take = leaving_row < 0 ? violation > worst : score > worst_score;
        if (take) worst_score = score;
      }
      if (take) {
        worst = violation;
        leaving_row = i;
        below = under > over;
      }
    }
    if (leaving_row < 0) {
      result.status = SolveStatus::kOptimal;
      result.iterations = iterations_;
      return true;  // primal feasible; caller polishes with primal phase 2
    }

    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
    const auto ls = static_cast<std::size_t>(leaving);
    const double target = below ? lower_[ls] : upper_[ls];

    // Row of B^-1 A via BTRAN of the unit vector.
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[static_cast<std::size_t>(leaving_row)] = 1.0;
    btran(rho);

    // Gather alpha = e_r^T B^-1 A row-wise over the nonzero rho entries
    // (rho is sparse right after a refactorization, so this typically
    // touches a small slice of the matrix instead of every column).
    // Artificial columns are always fixed by the time the dual runs.
    gather_pivot_row(rho);
    std::vector<double>& alpha_row = alpha_row_;
    std::vector<int>& alpha_cols = alpha_cols_;

    // Collect every admissible breakpoint for the bound-flipping ratio
    // test (BFRT); reduced costs come from the incrementally-maintained
    // reduced_d_ instead of a per-iteration BTRAN.
    std::vector<Breakpoint>& cand = breakpoints_;
    cand.clear();
    for (const int j : alpha_cols) {
      const auto js = static_cast<std::size_t>(j);
      if (state_[js] == VarState::kBasic) continue;
      if (upper_[js] - lower_[js] <= 0.0) continue;  // fixed
      const double a = alpha_row[js];
      if (std::abs(a) <= kPivotEpsilon) continue;
      const bool at_lower = state_[js] == VarState::kAtLower;
      // Moving j off its bound must push the leaving basic toward `target`.
      const bool admissible = below ? (at_lower ? a < 0.0 : a > 0.0)
                                    : (at_lower ? a > 0.0 : a < 0.0);
      if (!admissible) continue;
      const double d = reduced_d_[js];
      const double ratio = std::max(at_lower ? d : -d, 0.0) / std::abs(a);
      cand.push_back({ratio, a, j});
    }
    if (cand.empty()) {
      // No column can repair the violated row: primal infeasible. The
      // BTRAN'd unit row is the Farkas ray — oriented so that w_i >= 0 on
      // <= rows and w_i <= 0 on >= rows (see Solution::farkas_ray); when
      // the basic is below its lower bound the row reads "activity must
      // exceed what the bounds allow", i.e. +rho, else -rho.
      fill_farkas_ray(rho, below, result);
      result.status = SolveStatus::kInfeasible;
      result.iterations = iterations_;
      return true;
    }

    // The minimum dual ratio is mandatory for dual feasibility. Normally
    // breakpoints are walked in ratio order (larger pivots first on ties);
    // under Bland's rule the lowest-index minimum-ratio column enters and
    // no flips happen.
    std::size_t pick = 0;
    if (bland) {
      double min_ratio = kInf;
      for (const Breakpoint& c : cand) {
        min_ratio = std::min(min_ratio, c.ratio);
      }
      int best_j = total_;
      for (std::size_t k = 0; k < cand.size(); ++k) {
        if (cand[k].ratio <= min_ratio + kPivotEpsilon &&
            cand[k].j < best_j) {
          best_j = cand[k].j;
          pick = k;
        }
      }
    } else {
      std::sort(cand.begin(), cand.end(),
                [](const Breakpoint& a, const Breakpoint& b) {
                  if (a.ratio != b.ratio) return a.ratio < b.ratio;
                  const double pa = std::abs(a.alpha);
                  const double pb = std::abs(b.alpha);
                  if (pa != pb) return pa > pb;
                  return a.j < b.j;
                });
      // BFRT walk: a boxed candidate whose entire range still leaves the
      // row violated gets bound-flipped instead of entering; the first
      // breakpoint that can absorb the remaining violation enters. All
      // flipped columns sit past their dual ratio, so flipping keeps the
      // reduced costs feasible.
      double remaining = worst;
      bool exhausted = true;
      for (pick = 0; pick < cand.size(); ++pick) {
        const auto js = static_cast<std::size_t>(cand[pick].j);
        const double capacity =
            std::abs(cand[pick].alpha) * (upper_[js] - lower_[js]);
        if (!std::isfinite(capacity) || capacity >= remaining - 1e-9) {
          exhausted = false;
          break;
        }
        remaining -= capacity;
      }
      if (exhausted) {
        // Even flipping every admissible column cannot pull the row to its
        // bound: the dual ray certifies primal infeasibility.
        fill_farkas_ray(rho, below, result);
        result.status = SolveStatus::kInfeasible;
        result.iterations = iterations_;
        return true;
      }
    }
    const int entering = cand[pick].j;
    const double best_ratio = cand[pick].ratio;
    // Under Bland's rule cand is unsorted and pick indexes the chosen
    // entering column directly; the walked prefix is not a set of passed
    // breakpoints, so nothing may be flipped.
    const std::size_t flip_count = bland ? 0 : pick;

    load_column(entering, alpha, pattern);
    ftran_entering(alpha);
    pattern.clear();
    for (int i = 0; i < m_; ++i) {
      if (alpha[static_cast<std::size_t>(i)] != 0.0) pattern.push_back(i);
    }
    const double pivot_value = alpha[static_cast<std::size_t>(leaving_row)];
    if (std::abs(pivot_value) <= kWeakPivot) {
      // The BTRAN row and FTRAN column disagree or the pivot is weak;
      // refresh the factorization, or give up to the caller if fresh.
      for (const int i : pattern) alpha[static_cast<std::size_t>(i)] = 0.0;
      pattern.clear();
      if (factor_is_stale()) {
        if (!refactorize()) {
          numerics_failed_ = true;
          return false;
        }
        refresh_reduced_costs();
        continue;
      }
      numerics_failed_ = true;
      return false;
    }

    if (flip_count > 0) {
      // Apply the passed breakpoints as bound flips: accumulate the flipped
      // columns in row space and push them through one FTRAN.
      std::vector<double>& acc = flip_acc_;
      acc.assign(static_cast<std::size_t>(m_), 0.0);
      for (std::size_t k = 0; k < flip_count; ++k) {
        const int j = cand[k].j;
        const auto js = static_cast<std::size_t>(j);
        const double range = upper_[js] - lower_[js];
        const bool was_lower = state_[js] == VarState::kAtLower;
        const double delta = was_lower ? range : -range;
        if (j < n_) {
          for (int t = col_start_[js]; t < col_start_[js + 1]; ++t) {
            acc[static_cast<std::size_t>(
                row_index_[static_cast<std::size_t>(t)])] +=
                coeff_[static_cast<std::size_t>(t)] * delta;
          }
        } else {
          acc[static_cast<std::size_t>(j - n_)] += delta;
        }
        state_[js] = was_lower ? VarState::kAtUpper : VarState::kAtLower;
        x_[js] = was_lower ? upper_[js] : lower_[js];
      }
      ftran(acc);
      for (int i = 0; i < m_; ++i) {
        const double move = acc[static_cast<std::size_t>(i)];
        if (move == 0.0) continue;
        x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
            move;
      }
    }

    // The dual devex update needs the FTRAN'd entering column against the
    // pre-pivot basis: run it before the eta is appended.
    update_dual_devex(leaving_row, pivot_value, alpha, pattern);

    const auto q = static_cast<std::size_t>(entering);
    const double delta_q = (x_[ls] - target) / pivot_value;
    for (const int i : pattern) {
      const double a = alpha[static_cast<std::size_t>(i)];
      const auto bs =
          static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
      x_[bs] -= a * delta_q;
    }
    x_[q] += delta_q;
    x_[ls] = target;
    // Incremental reduced-cost update over the gathered pivot row:
    // d_j -= theta * alpha_j; the leaving variable picks up -theta (its
    // alpha is 1 by construction) and the entering column zeroes out.
    const double theta = reduced_d_[q] / pivot_value;
    for (const int j : alpha_cols) {
      const auto js = static_cast<std::size_t>(j);
      if (state_[js] == VarState::kBasic) continue;  // stays zero
      reduced_d_[js] -= theta * alpha_row[js];
    }
    reduced_d_[q] = 0.0;
    reduced_d_[ls] = -theta;
    state_[ls] = below ? VarState::kAtLower : VarState::kAtUpper;
    state_[q] = VarState::kBasic;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;
    const bool factor_ok = factor_update(leaving_row, pivot_value, alpha,
                                         pattern);
    for (const int i : pattern) alpha[static_cast<std::size_t>(i)] = 0.0;
    pattern.clear();
    if (!factor_ok) {
      numerics_failed_ = true;
      return false;
    }

    ++iterations_;
    if (best_ratio <= kTolerance) {
      ++consecutive_degenerate;
    } else {
      consecutive_degenerate = 0;
    }
    if (factor_rebuilt_) {
      // factor_update replaced an unstable update with a fresh factor;
      // rebase the incremental reduced costs on the new numerics.
      compute_basic_values();
      refresh_reduced_costs();
    } else if (factor_needs_refresh()) {
      if (!refactorize()) {
        numerics_failed_ = true;
        return false;
      }
      compute_basic_values();
      refresh_reduced_costs();  // drop the incremental-update drift
    }
  }
}

// ------------------------------------------------------------------- driver

bool RevisedSimplex::evict_basic_artificials() {
  std::vector<double>& rho = rho_;
  rho.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const int basic = basis_[static_cast<std::size_t>(i)];
    if (basic < first_artificial_) continue;
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[static_cast<std::size_t>(i)] = 1.0;
    btran(rho);
    int replacement = -1;
    for (int j = 0; j < first_artificial_; ++j) {
      if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
      if (std::abs(column_dot(j, rho)) > 1e-6) {
        replacement = j;
        break;
      }
    }
    if (replacement < 0) continue;  // redundant row; artificial stays at 0
    std::vector<double>& alpha = work_;
    std::vector<int>& pattern = pattern_;
    load_column(replacement, alpha, pattern);
    ftran_entering(alpha);
    pattern.clear();
    for (int r = 0; r < m_; ++r) {
      if (alpha[static_cast<std::size_t>(r)] != 0.0) pattern.push_back(r);
    }
    const auto bs = static_cast<std::size_t>(basic);
    x_[bs] = 0.0;
    state_[bs] = VarState::kAtLower;
    state_[static_cast<std::size_t>(replacement)] = VarState::kBasic;
    basis_[static_cast<std::size_t>(i)] = replacement;
    const bool factor_ok = factor_update(
        i, alpha[static_cast<std::size_t>(i)], alpha, pattern);
    for (const int r : pattern) alpha[static_cast<std::size_t>(r)] = 0.0;
    pattern.clear();
    if (!factor_ok) return false;
    // Degenerate exchange: the artificial sat at zero, so no values move.
  }
  return true;
}

Solution RevisedSimplex::finish_optimal() {
  Solution result;
  result.status = SolveStatus::kOptimal;
  fill_primal_point(result);
  result.iterations = iterations_;
  basis_valid_ = true;
  if (options_.want_duals) {
    // Both call sites reach here with cost_ holding the exact objective
    // (phase 2 / the post-perturbation polish), so these duals price the
    // true costs — the only state LP conflict learning may trust.
    std::vector<double>& y = duals_;
    compute_duals(y);
    result.row_duals.assign(y.begin(), y.begin() + m_);
    result.reduced_costs.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      result.reduced_costs[static_cast<std::size_t>(j)] =
          objective_[static_cast<std::size_t>(j)] - column_dot(j, y);
    }
  }
  return result;
}

Solution RevisedSimplex::run_two_phase() {
  Solution result;
  reset_to_slack_basis();
  if (!refactorize()) {
    numerics_failed_ = true;
    result.status = SolveStatus::kIterationLimit;
    return result;
  }
  compute_basic_values();

  bool have_artificials = false;
  for (int i = 0; i < m_; ++i) {
    if (basis_[static_cast<std::size_t>(i)] >= first_artificial_) {
      have_artificials = true;
      break;
    }
  }
  if (have_artificials) {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int j = first_artificial_; j < total_; ++j) {
      cost_[static_cast<std::size_t>(j)] = 1.0;
    }
    if (!primal_iterate(options_.max_iterations, result)) return result;
    double infeasibility = 0.0;
    for (int j = first_artificial_; j < total_; ++j) {
      infeasibility += x_[static_cast<std::size_t>(j)];
    }
    if (infeasibility > kTolerance * 10) {
      // Phase-1 optimum with residual infeasibility. The phase-1 duals y
      // (cost_ still holds the artificial costs here) price every real
      // column nonnegatively, so w = -y satisfies the farkas_ray sign
      // convention and aggregates to an inequality violated by at least
      // the residual infeasibility.
      std::vector<double>& y = duals_;
      compute_duals(y);
      result.farkas_ray.assign(static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        const auto is = static_cast<std::size_t>(i);
        result.farkas_ray[is] = -y[is];
      }
      result.status = SolveStatus::kInfeasible;
      result.iterations = iterations_;
      return result;
    }
    if (!evict_basic_artificials()) {
      numerics_failed_ = true;
      result.status = SolveStatus::kIterationLimit;
      result.iterations = iterations_;
      return result;
    }
    for (int j = first_artificial_; j < total_; ++j) {
      const auto js = static_cast<std::size_t>(j);
      lower_[js] = 0.0;
      upper_[js] = 0.0;
      if (state_[js] != VarState::kBasic) {
        state_[js] = VarState::kAtLower;
        x_[js] = 0.0;
      }
    }
    values_dirty_ = true;
  }

  std::fill(cost_.begin(), cost_.end(), 0.0);
  for (int j = 0; j < n_; ++j) {
    cost_[static_cast<std::size_t>(j)] = objective_[static_cast<std::size_t>(j)];
  }
  if (!primal_iterate(options_.max_iterations, result)) {
    // Phase 2 keeps primal feasibility, so even a budget-truncated solve
    // reports the current point — with the objective computed from
    // objective_, never from the active cost_ vector. (values_dirty_ means
    // the budget died before the basic values were refreshed; no point to
    // report then.)
    if (!numerics_failed_ && !values_dirty_) fill_primal_point(result);
    return result;
  }
  return finish_optimal();
}

/// Dual-feasible crash start: every structural variable parks at the bound
/// its objective coefficient prefers, every slack becomes basic (identity
/// basis, empty eta file). Reduced costs are then feasible by construction
/// and the dual simplex can cold-start without artificials or phase 1.
void RevisedSimplex::reset_to_dual_crash() {
  etas_.clear();
  eta_index_.clear();
  eta_value_.clear();
  factor_etas_ = 0;
  basis_valid_ = false;

  for (int j = 0; j < n_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double c = objective_[js];
    bool at_lower;
    if (c > kTolerance) {
      at_lower = true;
    } else if (c < -kTolerance) {
      at_lower = false;
    } else {
      at_lower = std::abs(lower_[js]) <= std::abs(upper_[js]);
    }
    state_[js] = at_lower ? VarState::kAtLower : VarState::kAtUpper;
    x_[js] = at_lower ? lower_[js] : upper_[js];
  }
  for (int i = 0; i < m_; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const auto slack = static_cast<std::size_t>(n_ + i);
    const auto art = static_cast<std::size_t>(first_artificial_ + i);
    state_[slack] = VarState::kBasic;
    basis_[is] = n_ + i;
    artificial_sign_[is] = 1.0;
    lower_[art] = 0.0;
    upper_[art] = 0.0;
    state_[art] = VarState::kAtLower;
    x_[art] = 0.0;
  }
  // The crash basis is the identity; the eta file represents it as an
  // empty product, the LU factors it explicitly (all singleton pivots).
  if (lu() && !refactorize()) numerics_failed_ = true;

  // Basic slack values = row residuals (B is the identity). Out-of-bounds
  // values are exactly the primal infeasibilities the dual run repairs.
  std::vector<double>& residual = work2_;
  for (int i = 0; i < m_; ++i) {
    residual[static_cast<std::size_t>(i)] = rhs_[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < n_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double v = x_[js];
    if (v == 0.0) continue;
    for (int k = col_start_[js]; k < col_start_[js + 1]; ++k) {
      residual[static_cast<std::size_t>(
          row_index_[static_cast<std::size_t>(k)])] -=
          coeff_[static_cast<std::size_t>(k)] * v;
    }
  }
  for (int i = 0; i < m_; ++i) {
    x_[static_cast<std::size_t>(n_ + i)] =
        residual[static_cast<std::size_t>(i)];
    residual[static_cast<std::size_t>(i)] = 0.0;
  }
  values_dirty_ = false;
}

/// Dual reoptimization from the current basis, then an exact-cost primal
/// polish. Sets numerics_failed_ when the caller should restart elsewhere.
Solution RevisedSimplex::reoptimize_from_basis() {
  // Phase-2 costs with a tiny deterministic anti-degeneracy perturbation:
  // the paper's big-M binary models are massively dual-degenerate, and
  // distinct ratios keep the dual simplex from stalling on zero-gain
  // pivots. The perturbation leans each nonbasic variable further into
  // dual feasibility, and the exact-cost primal polish below removes its
  // O(tolerance) footprint before the solution is reported.
  const double scale = kTolerance * 16.0;
  std::fill(cost_.begin(), cost_.end(), 0.0);
  for (int j = 0; j < n_; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double jitter =
        scale *
        (1.0 + static_cast<double>((static_cast<unsigned>(j) * 2654435761u) >>
                                   24 & 0xffu) /
                   256.0);
    const double lean = state_[js] == VarState::kAtUpper ? -jitter : jitter;
    cost_[js] = objective_[js] + lean;
  }

  Solution result;
  if (!dual_iterate(options_.max_iterations, result)) {
    numerics_failed_ = true;
    return result;
  }
  if (result.status == SolveStatus::kInfeasible) {
    result.iterations = iterations_;
    basis_valid_ = true;  // still dual feasible and reusable
    return result;
  }
  if (result.status == SolveStatus::kIterationLimit) {
    basis_valid_ = false;  // partial reoptimize: do not trust for warm start
    return result;
  }
  // Primal feasible: drop the perturbation and polish with exact costs.
  std::fill(cost_.begin(), cost_.end(), 0.0);
  for (int j = 0; j < n_; ++j) {
    cost_[static_cast<std::size_t>(j)] = objective_[static_cast<std::size_t>(j)];
  }
  if (!primal_iterate(options_.max_iterations, result)) {
    if (!numerics_failed_) {
      basis_valid_ = false;  // pivot budget exhausted
      // The polish iterates stay primal feasible, so the truncated solve
      // still reports a usable point. The objective comes from objective_;
      // the leaned cost_ perturbation never reaches the caller.
      if (!values_dirty_) fill_primal_point(result);
    }
    return result;
  }
  return finish_optimal();
}

Solution RevisedSimplex::solve_cold() {
  flush_row_additions();
  iterations_ = 0;
  numerics_failed_ = false;
  reset_to_dual_crash();
  Solution result = reoptimize_from_basis();
  if (!numerics_failed_) return result;
  // Dual crash broke down numerically: retry with the artificial-variable
  // two-phase primal, the same method as the dense oracle.
  iterations_ = 0;
  numerics_failed_ = false;
  result = run_two_phase();
  if (!numerics_failed_ || !lu()) return result;
  // Second rung of the recovery ladder: two-phase failed *under the LU*,
  // which points at the Forrest-Tomlin factorization itself. Downgrade
  // this instance to the product-form eta file (sticky for its lifetime)
  // and retry once; callers keep the dense tableau as the last rung.
  options_.factorization = Factorization::kEta;
  ++eta_fallbacks_;
  basis_valid_ = false;
  iterations_ = 0;
  numerics_failed_ = false;
  return run_two_phase();
}

Solution RevisedSimplex::reoptimize() {
  flush_row_additions();
  if (!basis_valid_) return solve_cold();
  iterations_ = 0;
  numerics_failed_ = false;
  Solution result = reoptimize_from_basis();
  if (!numerics_failed_) return result;
  return solve_cold();
}

}  // namespace fpva::lp

#include "lp/lu_factorization.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace fpva::lp {

namespace {

/// Candidate columns examined per Markowitz pivot step before widening to a
/// full scan; bounds the search without giving up the fill-minimizing pick.
constexpr int kPivotCandidateCap = 64;
/// The first pass takes columns whose count is within this much of the
/// smallest active count.
constexpr int kCountSlack = 3;

}  // namespace

void LuFactorization::clear_factor() {
  lcols_.clear();
  l_rows_.clear();
  l_vals_.clear();
  retas_.clear();
  r_rows_.clear();
  r_vals_.clear();
  const auto m = static_cast<std::size_t>(m_);
  u_cols_.assign(m, {});
  u_vals_.assign(m, {});
  u_col_rows_.assign(m, {});
  diag_.assign(m, 0.0);
  row_of_order_.assign(m, -1);
  col_of_order_.assign(m, -1);
  order_of_row_.assign(m, -1);
  order_of_col_.assign(m, -1);
  acc_.assign(m, 0.0);
  stamp_.assign(m, 0);
  epoch_ = 0;
  pos_.assign(m, 0);
  pos_stamp_.assign(m, 0);
  pos_epoch_ = 0;
  spike_.assign(m, 0.0);
  spike_rows_.clear();
  spike_valid_ = false;
  updates_ = 0;
  nnz_ = 0;
  factor_nnz_ = 0;
}

void LuFactorization::load_working_matrix(
    const std::vector<BasisColumn>& columns) {
  const auto ms = static_cast<std::size_t>(m_);
  w_row_cols_.assign(ms, {});
  w_row_vals_.assign(ms, {});
  w_row_cpos_.assign(ms, {});
  w_cols_.assign(ms, {});
  w_col_active_.assign(ms, 1);
  col_best_.resize(ms);
  col_stale_.assign(ms, 1);
  for (int p = 0; p < m_; ++p) {
    const BasisColumn& column = columns[static_cast<std::size_t>(p)];
    auto& col = w_cols_[static_cast<std::size_t>(p)];
    for (int k = 0; k < column.size; ++k) {
      const int row = column.rows[k];
      const double value = column.values[k];
      if (value == 0.0) continue;
      const auto rs = static_cast<std::size_t>(row);
      col.push_back({row, static_cast<int>(w_row_cols_[rs].size())});
      w_row_cpos_[rs].push_back(static_cast<int>(col.size()) - 1);
      w_row_cols_[rs].push_back(p);
      w_row_vals_[rs].push_back(value);
    }
  }

  words_ = (m_ + 63) / 64;
  count_hist_.assign(ms + 1, 0);
  buckets_.assign(static_cast<std::size_t>(kBucketedCounts + 1) *
                      static_cast<std::size_t>(words_),
                  0);
  for (int p = 0; p < m_; ++p) {
    tally_column(
        p, static_cast<int>(w_cols_[static_cast<std::size_t>(p)].size()),
        true);
  }
  min_count_ = 0;
}

void LuFactorization::tally_column(int col, int count, bool add) {
  count_hist_[static_cast<std::size_t>(count)] += add ? 1 : -1;
  if (count > kBucketedCounts) return;
  std::uint64_t& word =
      buckets_[static_cast<std::size_t>(count * words_ + col / 64)];
  const std::uint64_t bit = std::uint64_t{1} << (col % 64);
  word = add ? word | bit : word & ~bit;
}

void LuFactorization::change_count(int col, int from, int to) {
  tally_column(col, from, false);
  tally_column(col, to, true);
  min_count_ = std::min(min_count_, to);
}

void LuFactorization::erase_col_entry(int col, int k) {
  auto& entries = w_cols_[static_cast<std::size_t>(col)];
  const int count = static_cast<int>(entries.size());
  if (k != count - 1) {
    const ColEntry moved = entries.back();
    entries[static_cast<std::size_t>(k)] = moved;
    w_row_cpos_[static_cast<std::size_t>(moved.row)]
               [static_cast<std::size_t>(moved.slot)] = k;
  }
  entries.pop_back();
  change_count(col, count, count - 1);
  col_stale_[static_cast<std::size_t>(col)] = 1;
}

LuFactorization::PivotChoice LuFactorization::best_in_column(int col) const {
  // Threshold partial pivoting: an entry qualifies when it reaches
  // pivot_tolerance times the column's largest magnitude.
  PivotChoice best;
  const auto& entries = w_cols_[static_cast<std::size_t>(col)];
  const auto value_of = [this](const ColEntry& e) {
    return w_row_vals_[static_cast<std::size_t>(e.row)]
                      [static_cast<std::size_t>(e.slot)];
  };
  const int col_count = static_cast<int>(entries.size());
  double col_max = 0.0;
  for (const ColEntry& e : entries) {
    col_max = std::max(col_max, std::abs(value_of(e)));
  }
  if (col_max <= options_.singular_tolerance) return best;
  const double acceptable = options_.pivot_tolerance * col_max;
  for (const ColEntry& e : entries) {
    const double v = value_of(e);
    const double mag = std::abs(v);
    if (mag < acceptable || mag <= options_.singular_tolerance) continue;
    const int row_count = static_cast<int>(
        w_row_cols_[static_cast<std::size_t>(e.row)].size());
    const PivotChoice candidate{static_cast<long long>(row_count - 1) *
                                    static_cast<long long>(col_count - 1),
                                mag, v, e.row, col};
    if (candidate.precedes(best)) best = candidate;
  }
  return best;
}

void LuFactorization::consider_column(int col, PivotChoice* best) {
  const auto js = static_cast<std::size_t>(col);
  if (col_stale_[js]) {
    col_best_[js] = best_in_column(col);
    col_stale_[js] = 0;
  }
  const PivotChoice& own = col_best_[js];
  if (own.row >= 0 && own.precedes(*best)) *best = own;
}

bool LuFactorization::select_pivot(PivotChoice* choice) {
  // Smallest active count: an empty active column is structurally
  // singular; otherwise walk the lower bound up to the first live count.
  if (count_hist_[0] > 0) return false;
  while (min_count_ <= m_ &&
         count_hist_[static_cast<std::size_t>(min_count_)] == 0) {
    ++min_count_;
  }
  if (min_count_ > m_) return false;

  // First pass: the first kPivotCandidateCap active columns, in index order,
  // whose count is within kCountSlack of the minimum. The OR of the count
  // bitsets over that range lists exactly those columns, word by word.
  PivotChoice best;
  const int count_cap = min_count_ + kCountSlack;
  int scanned = 0;
  if (count_cap <= kBucketedCounts) {
    for (int w = 0; w < words_ && scanned < kPivotCandidateCap; ++w) {
      std::uint64_t bits = 0;
      for (int c = min_count_; c <= count_cap; ++c) {
        bits |= buckets_[static_cast<std::size_t>(c * words_ + w)];
      }
      for (; bits != 0 && scanned < kPivotCandidateCap; bits &= bits - 1) {
        ++scanned;
        consider_column(w * 64 + std::countr_zero(bits), &best);
      }
    }
  } else {
    for (int j = 0; j < m_ && scanned < kPivotCandidateCap; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (!w_col_active_[js] ||
          static_cast<int>(w_cols_[js].size()) > count_cap) {
        continue;
      }
      ++scanned;
      consider_column(j, &best);
    }
  }
  // Second pass, only if nothing stable was found: every active column.
  if (best.row < 0) {
    for (int j = 0; j < m_; ++j) {
      if (w_col_active_[static_cast<std::size_t>(j)]) {
        consider_column(j, &best);
      }
    }
  }
  if (best.row < 0) return false;
  *choice = best;
  return true;
}

bool LuFactorization::factorize(int m, const std::vector<BasisColumn>& columns) {
  m_ = m;
  valid_ = false;
  clear_factor();
  load_working_matrix(columns);

  for (int step = 0; step < m; ++step) {
    PivotChoice choice;
    if (!select_pivot(&choice)) return false;
    const int pivot_row = choice.row;
    const int pivot_col = choice.col;
    const double pivot = choice.value;
    const auto rs = static_cast<std::size_t>(pivot_row);
    const auto cs = static_cast<std::size_t>(pivot_col);

    row_of_order_[static_cast<std::size_t>(step)] = pivot_row;
    col_of_order_[static_cast<std::size_t>(step)] = pivot_col;
    order_of_row_[rs] = step;
    order_of_col_[cs] = step;
    diag_[rs] = pivot;

    // The rows to eliminate, with their pivot-column entries, in row order.
    targets_.clear();
    for (const ColEntry& e : w_cols_[cs]) {
      if (e.row == pivot_row) continue;
      targets_.emplace_back(e.row,
                            w_row_vals_[static_cast<std::size_t>(e.row)]
                                       [static_cast<std::size_t>(e.slot)]);
    }
    std::sort(targets_.begin(), targets_.end());

    auto& prow_cols = w_row_cols_[rs];
    auto& prow_vals = w_row_vals_[rs];
    auto& prow_cpos = w_row_cpos_[rs];
    const int l_start = static_cast<int>(l_rows_.size());
    for (const auto& [i, entry] : targets_) {
      const auto is = static_cast<std::size_t>(i);
      auto& cols = w_row_cols_[is];
      auto& vals = w_row_vals_[is];
      auto& cpos = w_row_cpos_[is];
      const double mult = entry / pivot;
      if (std::abs(mult) > options_.drop_tolerance) {
        l_rows_.push_back(i);
        l_vals_.push_back(mult);
        // Combine: row_i -= mult * (active part of the pivot row).
        ++pos_epoch_;
        for (std::size_t s = 0; s < cols.size(); ++s) {
          const auto c2 = static_cast<std::size_t>(cols[s]);
          pos_[c2] = static_cast<int>(s);
          pos_stamp_[c2] = pos_epoch_;
        }
        for (std::size_t s = 0; s < prow_cols.size(); ++s) {
          const int c2 = prow_cols[s];
          if (c2 == pivot_col) continue;
          const auto c2s = static_cast<std::size_t>(c2);
          const double delta = mult * prow_vals[s];
          if (pos_stamp_[c2s] == pos_epoch_) {
            vals[static_cast<std::size_t>(pos_[c2s])] -= delta;
          } else if (std::abs(delta) > options_.drop_tolerance) {
            // Fill: link the new entry into both patterns.
            auto& entries = w_cols_[c2s];
            const int count = static_cast<int>(entries.size());
            entries.push_back({i, static_cast<int>(cols.size())});
            cpos.push_back(count);
            cols.push_back(c2);
            vals.push_back(-delta);
            change_count(c2, count, count + 1);
          }
        }
      }
      // Compress row i: drop the pivot-column entry and anything tiny.
      std::size_t out = 0;
      for (std::size_t s = 0; s < cols.size(); ++s) {
        const int c2 = cols[s];
        if (c2 == pivot_col) continue;  // col pattern cleared wholesale below
        const double v = vals[s];
        const int k = cpos[s];
        if (std::abs(v) <= options_.drop_tolerance) {
          erase_col_entry(c2, k);
          continue;
        }
        cols[out] = c2;
        vals[out] = v;
        cpos[out] = k;
        // The entry's value or its row's count may have moved.
        col_stale_[static_cast<std::size_t>(c2)] = 1;
        w_cols_[static_cast<std::size_t>(c2)][static_cast<std::size_t>(k)]
            .slot = static_cast<int>(out);
        ++out;
      }
      cols.resize(out);
      vals.resize(out);
      cpos.resize(out);
    }
    if (static_cast<int>(l_rows_.size()) > l_start) {
      lcols_.push_back(
          {pivot_row, l_start, static_cast<int>(l_rows_.size())});
    }

    // Freeze the pivot row: its remaining entries become U row pivot_row.
    std::size_t out = 0;
    for (std::size_t s = 0; s < prow_cols.size(); ++s) {
      const int c2 = prow_cols[s];
      if (c2 == pivot_col) continue;
      erase_col_entry(c2, prow_cpos[s]);
      prow_cols[out] = c2;
      prow_vals[out] = prow_vals[s];
      ++out;
    }
    prow_cols.resize(out);
    prow_vals.resize(out);
    prow_cpos.clear();

    // Retire the pivot column.
    tally_column(pivot_col, static_cast<int>(w_cols_[cs].size()), false);
    w_cols_[cs].clear();
    w_col_active_[cs] = 0;
  }

  // The frozen rows are exactly U; steal their storage.
  u_cols_ = std::move(w_row_cols_);
  u_vals_ = std::move(w_row_vals_);
  w_row_cols_.clear();
  w_row_vals_.clear();
  for (int r = 0; r < m; ++r) {
    for (const int c : u_cols_[static_cast<std::size_t>(r)]) {
      u_col_rows_[static_cast<std::size_t>(c)].push_back(r);
    }
  }

  nnz_ = static_cast<long>(l_rows_.size()) + m;
  for (int r = 0; r < m; ++r) {
    nnz_ += static_cast<long>(u_cols_[static_cast<std::size_t>(r)].size());
  }
  factor_nnz_ = nnz_;
  valid_ = true;
  return true;
}

void LuFactorization::ftran(std::vector<double>& dense,
                            bool save_spike) const {
  for (const LCol& lc : lcols_) {
    const double t = dense[static_cast<std::size_t>(lc.pivot_row)];
    if (t == 0.0) continue;
    for (int k = lc.start; k < lc.end; ++k) {
      dense[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(k)])] -=
          l_vals_[static_cast<std::size_t>(k)] * t;
    }
  }
  for (const RowEta& re : retas_) {
    double s = dense[static_cast<std::size_t>(re.target_row)];
    for (int k = re.start; k < re.end; ++k) {
      s -= r_vals_[static_cast<std::size_t>(k)] *
           dense[static_cast<std::size_t>(r_rows_[static_cast<std::size_t>(k)])];
    }
    dense[static_cast<std::size_t>(re.target_row)] = s;
  }
  if (save_spike) {
    spike_rows_.clear();
    std::fill(spike_.begin(), spike_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double v = dense[static_cast<std::size_t>(i)];
      if (v != 0.0) {
        spike_[static_cast<std::size_t>(i)] = v;
        spike_rows_.push_back(i);
      }
    }
    spike_valid_ = true;
  }
  // Back substitution U x = y, walking pivots last-to-first.
  work_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const auto r =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const auto c =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    double s = dense[r];
    const auto& cols = u_cols_[r];
    const auto& vals = u_vals_[r];
    for (std::size_t t = 0; t < cols.size(); ++t) {
      s -= vals[t] * work_[static_cast<std::size_t>(cols[t])];
    }
    work_[c] = s / diag_[r];
  }
  std::copy(work_.begin(), work_.end(), dense.begin());
}

void LuFactorization::btran(std::vector<double>& dense) const {
  // Forward substitution U^T z = c, scattering each solved row.
  work_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const auto r =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const auto c =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    const double z = dense[c] / diag_[r];
    work_[r] = z;
    if (z == 0.0) continue;
    const auto& cols = u_cols_[r];
    const auto& vals = u_vals_[r];
    for (std::size_t t = 0; t < cols.size(); ++t) {
      dense[static_cast<std::size_t>(cols[t])] -= vals[t] * z;
    }
  }
  // Transposed row etas, newest first.
  for (auto it = retas_.rbegin(); it != retas_.rend(); ++it) {
    const double t = work_[static_cast<std::size_t>(it->target_row)];
    if (t == 0.0) continue;
    for (int k = it->start; k < it->end; ++k) {
      work_[static_cast<std::size_t>(r_rows_[static_cast<std::size_t>(k)])] -=
          r_vals_[static_cast<std::size_t>(k)] * t;
    }
  }
  // Transposed elimination columns, newest first.
  for (auto it = lcols_.rbegin(); it != lcols_.rend(); ++it) {
    double s = 0.0;
    for (int k = it->start; k < it->end; ++k) {
      s += l_vals_[static_cast<std::size_t>(k)] *
           work_[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(k)])];
    }
    work_[static_cast<std::size_t>(it->pivot_row)] -= s;
  }
  std::copy(work_.begin(), work_.end(), dense.begin());
}

void LuFactorization::erase_u_entry(int row, int col) {
  auto& cols = u_cols_[static_cast<std::size_t>(row)];
  auto& vals = u_vals_[static_cast<std::size_t>(row)];
  for (std::size_t s = 0; s < cols.size(); ++s) {
    if (cols[s] == col) {
      cols[s] = cols.back();
      vals[s] = vals.back();
      cols.pop_back();
      vals.pop_back();
      return;
    }
  }
}

void LuFactorization::erase_u_col_row(int col, int row) {
  auto& rows = u_col_rows_[static_cast<std::size_t>(col)];
  for (std::size_t s = 0; s < rows.size(); ++s) {
    if (rows[s] == row) {
      rows[s] = rows.back();
      rows.pop_back();
      return;
    }
  }
}

bool LuFactorization::update(int position, double pivot_value) {
  if (!valid_ || !spike_valid_) {
    valid_ = false;
    return false;
  }
  const int t = order_of_col_[static_cast<std::size_t>(position)];
  const int r = row_of_order_[static_cast<std::size_t>(t)];
  const auto rs = static_cast<std::size_t>(r);
  const auto ps = static_cast<std::size_t>(position);
  const double old_diag = diag_[rs];

  // Drop the replaced column of U.
  for (const int i : u_col_rows_[ps]) {
    erase_u_entry(i, position);
    --nnz_;
  }
  u_col_rows_[ps].clear();

  // Capture the pivot row into the accumulator and detach it from U.
  ++epoch_;
  for (std::size_t s = 0; s < u_cols_[rs].size(); ++s) {
    const auto c2 = static_cast<std::size_t>(u_cols_[rs][s]);
    acc_[c2] = u_vals_[rs][s];
    stamp_[c2] = epoch_;
    erase_u_col_row(u_cols_[rs][s], r);
    --nnz_;
  }
  u_cols_[rs].clear();
  u_vals_[rs].clear();

  // Scatter the spike: off-pivot rows gain a U entry in `position`; the
  // pivot row's spike entry seeds the new diagonal.
  acc_[ps] = 0.0;
  stamp_[ps] = epoch_;
  for (const int i : spike_rows_) {
    const double v = spike_[static_cast<std::size_t>(i)];
    if (std::abs(v) <= options_.drop_tolerance) continue;
    if (i == r) {
      acc_[ps] = v;
      continue;
    }
    u_cols_[static_cast<std::size_t>(i)].push_back(position);
    u_vals_[static_cast<std::size_t>(i)].push_back(v);
    u_col_rows_[ps].push_back(i);
    ++nnz_;
  }
  spike_valid_ = false;

  // Cyclic shift: orders (t, m) move down one, the updated pivot goes last.
  for (int k = t; k < m_ - 1; ++k) {
    const int nr = row_of_order_[static_cast<std::size_t>(k) + 1];
    const int nc = col_of_order_[static_cast<std::size_t>(k) + 1];
    row_of_order_[static_cast<std::size_t>(k)] = nr;
    col_of_order_[static_cast<std::size_t>(k)] = nc;
    order_of_row_[static_cast<std::size_t>(nr)] = k;
    order_of_col_[static_cast<std::size_t>(nc)] = k;
  }
  row_of_order_[static_cast<std::size_t>(m_) - 1] = r;
  col_of_order_[static_cast<std::size_t>(m_) - 1] = position;
  order_of_row_[rs] = m_ - 1;
  order_of_col_[ps] = m_ - 1;

  // Eliminate the detached row against the pivots it now trails, recording
  // the multipliers as one Forrest-Tomlin row eta.
  const int reta_start = static_cast<int>(r_rows_.size());
  for (int k = t; k < m_ - 1; ++k) {
    const auto cj =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    if (stamp_[cj] != epoch_) continue;
    const double v = acc_[cj];
    if (std::abs(v) <= options_.drop_tolerance) continue;
    const auto rj =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const double mult = v / diag_[rj];
    r_rows_.push_back(static_cast<int>(rj));
    r_vals_.push_back(mult);
    const auto& cols = u_cols_[rj];
    const auto& vals = u_vals_[rj];
    for (std::size_t s = 0; s < cols.size(); ++s) {
      const auto c2 = static_cast<std::size_t>(cols[s]);
      if (stamp_[c2] == epoch_) {
        acc_[c2] -= mult * vals[s];
      } else {
        acc_[c2] = -mult * vals[s];
        stamp_[c2] = epoch_;
      }
    }
  }

  const double new_diag = stamp_[ps] == epoch_ ? acc_[ps] : 0.0;
  const int reta_end = static_cast<int>(r_rows_.size());
  if (std::abs(new_diag) <= options_.singular_tolerance) {
    valid_ = false;
    return false;
  }
  // Determinant identity: the new diagonal must equal old_diag * alpha_p.
  const double expected = old_diag * pivot_value;
  const double err = std::abs(new_diag - expected);
  if (err > options_.stability_tolerance *
                std::max({1.0, std::abs(new_diag), std::abs(expected)})) {
    valid_ = false;
    return false;
  }
  diag_[rs] = new_diag;
  if (reta_end > reta_start) {
    retas_.push_back({r, reta_start, reta_end});
    nnz_ += reta_end - reta_start;
  }
  ++updates_;
  return true;
}

bool LuFactorization::add_row(const std::vector<int>& positions,
                              const std::vector<double>& values) {
  if (!valid_) return false;
  // Solve U^T w = a; w becomes the row eta tying the new row to the old
  // factors (B_new = [[L,0],[w^T,1]] * [[U,0],[0,1]]).
  work2_.assign(static_cast<std::size_t>(m_), 0.0);
  for (std::size_t k = 0; k < positions.size(); ++k) {
    work2_[static_cast<std::size_t>(positions[k])] = values[k];
  }
  acc_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const auto r =
        static_cast<std::size_t>(row_of_order_[static_cast<std::size_t>(k)]);
    const auto c =
        static_cast<std::size_t>(col_of_order_[static_cast<std::size_t>(k)]);
    const double z = work2_[c] / diag_[r];
    acc_[r] = z;
    if (z == 0.0) continue;
    const auto& cols = u_cols_[r];
    const auto& vals = u_vals_[r];
    for (std::size_t s = 0; s < cols.size(); ++s) {
      work2_[static_cast<std::size_t>(cols[s])] -= vals[s] * z;
    }
  }
  const int reta_start = static_cast<int>(r_rows_.size());
  for (int i = 0; i < m_; ++i) {
    const double w = acc_[static_cast<std::size_t>(i)];
    if (std::abs(w) <= options_.drop_tolerance) continue;
    r_rows_.push_back(i);
    r_vals_.push_back(w);
  }
  const int reta_end = static_cast<int>(r_rows_.size());
  if (reta_end > reta_start) {
    retas_.push_back({m_, reta_start, reta_end});
    nnz_ += reta_end - reta_start;
  }

  // Grow every per-row / per-position structure by the new unit pivot.
  diag_.push_back(1.0);
  u_cols_.emplace_back();
  u_vals_.emplace_back();
  u_col_rows_.emplace_back();
  row_of_order_.push_back(m_);
  col_of_order_.push_back(m_);
  order_of_row_.push_back(m_);
  order_of_col_.push_back(m_);
  acc_.push_back(0.0);
  stamp_.push_back(0);
  spike_.push_back(0.0);
  spike_valid_ = false;
  ++m_;
  ++updates_;
  ++nnz_;
  return true;
}

bool LuFactorization::needs_refactor() const {
  if (!valid_) return true;
  if (updates_ >= options_.max_updates) return true;
  return static_cast<double>(nnz_) >
         options_.fill_ratio * static_cast<double>(factor_nnz_) +
             static_cast<double>(m_);
}

}  // namespace fpva::lp

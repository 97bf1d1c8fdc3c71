// Markowitz-pivoted sparse LU factorization of a simplex basis with
// Forrest-Tomlin column updates and warm row addition.
//
// The factorization maintains B = L * U where L is a product of elementary
// operators (column etas from the Markowitz elimination plus row etas from
// Forrest-Tomlin updates) and U is stored explicitly as sparse rows with a
// row/column pivot ordering. Replacing one basis column folds the FTRAN'd
// spike into U and appends a single bounded row eta, so fill grows with the
// spike size instead of compounding per pivot the way a product-form eta
// file does. Appending a row (a cut with its slack taking the new basis
// position) is one U^T solve plus one row eta — no refactorization.
//
// Pivot search. Each elimination step takes the smallest active column
// count c_min (an empty active column means singular), then examines the
// first 64 active columns in index order whose count is at most c_min + 3,
// picking the lowest Markowitz cost (r-1)(c-1) among entries that pass
// threshold partial pivoting; ties go to the larger magnitude, then the
// lower column, then the lower row. Only when none of those columns holds a
// usable entry does a second pass consider every active column. No step
// scans all m columns to find its candidates: a histogram of active column
// counts gives c_min, and per-count column bitsets (counts up to
// kBucketedCounts; past that the first pass scans) OR-ed over
// c_min..c_min+3 and walked with countr_zero list exactly the index-ordered
// candidates. Both are updated wherever a column pattern changes: fill,
// drop, freezing the pivot row, retiring the pivot column. Each column
// caches its own best entry until its pattern or the count of one of its
// rows changes, and every working entry is linked both ways (its slot in
// the row, its index in the column), so reading a value is O(1) and column
// removal is a swap with the last entry. Row storage keeps its order, so U,
// L and every FTRAN/BTRAN sum come out exactly as with a plain full-scan
// search; tests/lu_update_test.cpp keeps that scan as the oracle for the
// pivot sequence (pivot_rows()/pivot_cols()) and the solves.
//
// The class is deliberately standalone (columns come in as index/value
// views, vectors go in and out as dense arrays) so the differential fuzz
// harness in tests/lu_update_test.cpp can drive it against a dense solver
// and a product-form eta oracle without going through RevisedSimplex.
//
// Index spaces: FTRAN maps a vector indexed by row to a vector indexed by
// basis position (the coefficient of basis column p); BTRAN maps a vector
// indexed by basis position to one indexed by row. Rows and positions both
// range over [0, dimension()).
#ifndef FPVA_LP_LU_FACTORIZATION_H
#define FPVA_LP_LU_FACTORIZATION_H

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace fpva::lp {

/// One sparse basis column handed to LuFactorization::factorize — parallel
/// row-index / value views into caller-owned storage. Row indices must be
/// unique within a column.
struct BasisColumn {
  const int* rows = nullptr;
  const double* values = nullptr;
  int size = 0;
};

class LuFactorization {
 public:
  struct Options {
    /// Markowitz threshold pivoting: a pivot must reach this fraction of
    /// the largest entry in its column.
    double pivot_tolerance = 0.01;
    /// Entries below this magnitude are dropped during elimination.
    double drop_tolerance = 1e-12;
    /// A pivot (or updated diagonal) below this magnitude means singular.
    double singular_tolerance = 1e-11;
    /// Forrest-Tomlin consistency: the updated diagonal must match
    /// old_diagonal * alpha_pivot (a determinant identity) to this
    /// relative tolerance, else the update reports numerical trouble.
    double stability_tolerance = 1e-5;
    /// Updates (column replacements + row additions) after which
    /// needs_refactor() turns true.
    int max_updates = 100;
    /// needs_refactor() also turns true when the operator file grows past
    /// fill_ratio * (fresh factor nonzeros) + dimension().
    double fill_ratio = 3.0;
  };

  /// Column counts up to this value are kept in per-count bitsets by the
  /// pivot search; when the first pass's count range reaches past it, that
  /// pass scans the columns instead.
  static constexpr int kBucketedCounts = 32;

  LuFactorization() = default;
  explicit LuFactorization(Options options) : options_(options) {}

  /// Factorizes the m x m basis whose position-p column is columns[p].
  /// Returns false (and leaves the factorization invalid) when the basis
  /// is structurally or numerically singular.
  bool factorize(int m, const std::vector<BasisColumn>& columns);

  bool valid() const { return valid_; }
  int dimension() const { return m_; }

  /// dense := B^-1 dense. With save_spike, the partial result L^-1 a is
  /// stashed for a following update() of the column this vector came from;
  /// later ftran calls without save_spike leave the stash untouched.
  void ftran(std::vector<double>& dense, bool save_spike = false) const;

  /// dense := B^-T dense.
  void btran(std::vector<double>& dense) const;

  /// Forrest-Tomlin update: the basis column at `position` is replaced by
  /// the column whose ftran(..., /*save_spike=*/true) produced the saved
  /// spike. `pivot_value` is that FTRAN's entry at `position` (the simplex
  /// pivot element), used for the determinant-identity stability check.
  /// Returns false on instability or a singular replacement; the caller
  /// should refactorize from the new basis.
  bool update(int position, double pivot_value);

  /// Appends row m and basis position m, extending the basis as
  /// B_new = [[B, 0], [a^T, 1]] — the new position holds the unit column
  /// of the new row (a cut's slack). `positions`/`values` give a^T, the
  /// new row's coefficients on the current basic columns, indexed by basis
  /// position. Returns false only when the factorization is invalid.
  bool add_row(const std::vector<int>& positions,
               const std::vector<double>& values);

  /// True when the update/fill policy says a fresh factorization pays off.
  bool needs_refactor() const;

  int updates_since_factor() const { return updates_; }
  long fill() const { return nnz_; }
  long factor_fill() const { return factor_nnz_; }

  /// Pivot order: the k-th pivot pairs row pivot_rows()[k] with basis
  /// position pivot_cols()[k]. Right after factorize() this is the
  /// elimination sequence; update() rotates it and add_row() extends it.
  const std::vector<int>& pivot_rows() const { return row_of_order_; }
  const std::vector<int>& pivot_cols() const { return col_of_order_; }

 private:
  /// Elementary column operator from the elimination: subtracts multiples
  /// of the pivot row's value from the listed rows (FTRAN order).
  struct LCol {
    int pivot_row = 0;
    int start = 0;  ///< first slot in l_rows_/l_vals_
    int end = 0;
  };
  /// Elementary row operator from a Forrest-Tomlin update or row addition:
  /// target_row -= sum multipliers * listed rows.
  struct RowEta {
    int target_row = 0;
    int start = 0;  ///< first slot in r_rows_/r_vals_
    int end = 0;
  };

  void clear_factor();
  void erase_u_entry(int row, int col);
  void erase_u_col_row(int col, int row);

  Options options_;
  int m_ = 0;
  bool valid_ = false;

  std::vector<LCol> lcols_;
  std::vector<int> l_rows_;
  std::vector<double> l_vals_;
  std::vector<RowEta> retas_;
  std::vector<int> r_rows_;
  std::vector<double> r_vals_;

  // U: per-row off-diagonal entries (column = basis position) plus the
  // diagonal, and the transpose pattern for column deletion on update.
  std::vector<std::vector<int>> u_cols_;
  std::vector<std::vector<double>> u_vals_;
  std::vector<std::vector<int>> u_col_rows_;
  std::vector<double> diag_;  ///< pivot value, indexed by row

  // Pivot ordering: order k pairs row_of_order_[k] with col_of_order_[k].
  std::vector<int> row_of_order_, col_of_order_;
  std::vector<int> order_of_row_, order_of_col_;

  int updates_ = 0;
  long nnz_ = 0;         ///< live operator + U entries
  long factor_nnz_ = 0;  ///< nnz_ right after the last factorize()

  // Saved FTRAN intermediate (L^-1 a, indexed by row) for update().
  mutable std::vector<double> spike_;
  mutable std::vector<int> spike_rows_;
  mutable bool spike_valid_ = false;

  /// A pivot candidate (or the best one so far) of the Markowitz search.
  struct PivotChoice {
    long long cost = std::numeric_limits<long long>::max();
    double magnitude = 0.0;
    double value = 0.0;
    int row = -1;
    int col = -1;

    /// The search order: lower cost (r-1)*(c-1), then larger magnitude,
    /// then lower column, then lower row. It is total over distinct
    /// entries, so the best of per-column bests is the overall best.
    bool precedes(const PivotChoice& other) const {
      return cost < other.cost ||
             (cost == other.cost &&
              (magnitude > other.magnitude ||
               (magnitude == other.magnitude &&
                (col < other.col || (col == other.col && row < other.row)))));
    }
  };

  /// One entry of a working column: its row and its slot in that row.
  struct ColEntry {
    int row = 0;
    int slot = 0;
  };

  // Factorization working matrix (members to reuse allocations). Entries
  // are linked both ways: w_row_cpos_[i][s] is where row i sits in the
  // list of column w_row_cols_[i][s], and each column entry holds its
  // row's slot.
  std::vector<std::vector<int>> w_row_cols_;
  std::vector<std::vector<double>> w_row_vals_;
  std::vector<std::vector<int>> w_row_cpos_;
  std::vector<std::vector<ColEntry>> w_cols_;
  std::vector<char> w_col_active_;
  std::vector<std::pair<int, double>> targets_;  ///< pivot-column entries

  // Pivot-search state: active columns per count, and for counts up to
  // kBucketedCounts a column bitset per count (count-major, words_ words
  // each). min_count_ is a lower bound on the smallest active count.
  std::vector<int> count_hist_;
  std::vector<std::uint64_t> buckets_;
  int words_ = 0;
  int min_count_ = 0;
  // Each column's own best candidate, recomputed only when col_stale_ says
  // the column's entries or the count of one of its rows changed.
  std::vector<PivotChoice> col_best_;
  std::vector<char> col_stale_;

  mutable std::vector<double> work_;   ///< ftran/btran solve scratch
  mutable std::vector<double> work2_;  ///< second solve scratch
  std::vector<double> acc_;            ///< update/elimination row scratch
  std::vector<int> stamp_;             ///< acc_ column membership stamps
  int epoch_ = 0;
  std::vector<int> pos_, pos_stamp_;   ///< row-slot index scratch
  int pos_epoch_ = 0;

  void load_working_matrix(const std::vector<BasisColumn>& columns);
  bool select_pivot(PivotChoice* choice);
  PivotChoice best_in_column(int col) const;
  void consider_column(int col, PivotChoice* best);
  void tally_column(int col, int count, bool add);
  void change_count(int col, int from, int to);
  void erase_col_entry(int col, int k);
};

}  // namespace fpva::lp

#endif  // FPVA_LP_LU_FACTORIZATION_H

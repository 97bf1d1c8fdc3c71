// Differential fuzz harness for the Forrest-Tomlin LU factorization
// (lp/lu_factorization.h), run against two independent oracles:
//
//   dense LU   — Gaussian elimination with partial pivoting on an explicit
//                copy of the basis matrix (ground truth),
//   eta file   — a product-form eta oracle updated exactly the way the
//                pre-PR revised simplex maintained its basis.
//
// Random basis walks replace columns one at a time (saving the FTRAN spike
// exactly as the simplex does), interleave warm row additions, and force
// refactor-threshold edge cases; every FTRAN/BTRAN along the walk must
// agree across all three implementations. Singular and near-singular bases
// must be reported, not crash. A third oracle, a full-scan Markowitz
// elimination, pins the pivot sequence and the bits of fresh FTRAN/BTRAN.
//
// Every randomized case logs its seed on failure, so a CI hit reproduces
// with:  FPVA_LU_FUZZ_SEEDS=<seed> ./lu_update_test
// The seeded sweep also reads tests/lu_fuzz_seeds.txt through the
// FPVA_LU_SEED_FILE environment variable (the CI fuzz step does this).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lp/lu_factorization.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace fpva::lp {
namespace {

// ----------------------------------------------------------- dense oracle

/// Column-major dense matrix with LU solves (partial pivoting). Ground
/// truth for the sparse factorizations.
class DenseOracle {
 public:
  explicit DenseOracle(int m) : m_(m), cols_(static_cast<std::size_t>(m * m)) {}

  double& at(int row, int col) {
    return cols_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(row)];
  }
  double at(int row, int col) const {
    return cols_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(row)];
  }
  int dimension() const { return m_; }

  void set_column(int col, const std::vector<double>& dense) {
    for (int i = 0; i < m_; ++i) at(i, col) = dense[static_cast<std::size_t>(i)];
  }

  /// Extends to (m+1)x(m+1): new row `row_by_col` over the old columns,
  /// new column = unit vector of the new row.
  void add_row(const std::vector<double>& row_by_col) {
    const int old_m = m_;
    DenseOracle grown(old_m + 1);
    for (int c = 0; c < old_m; ++c) {
      for (int r = 0; r < old_m; ++r) grown.at(r, c) = at(r, c);
      grown.at(old_m, c) = row_by_col[static_cast<std::size_t>(c)];
    }
    grown.at(old_m, old_m) = 1.0;
    *this = grown;
  }

  /// Factors a copy; false when numerically singular.
  bool refresh() {
    lu_ = cols_;
    perm_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) perm_[static_cast<std::size_t>(i)] = i;
    for (int k = 0; k < m_; ++k) {
      int pivot = k;
      double best = std::abs(lu_at(k, k));
      for (int i = k + 1; i < m_; ++i) {
        if (std::abs(lu_at(i, k)) > best) {
          best = std::abs(lu_at(i, k));
          pivot = i;
        }
      }
      if (best < 1e-10) return false;
      if (pivot != k) {
        for (int c = 0; c < m_; ++c) std::swap(lu_ref(k, c), lu_ref(pivot, c));
        std::swap(perm_[static_cast<std::size_t>(k)],
                  perm_[static_cast<std::size_t>(pivot)]);
      }
      for (int i = k + 1; i < m_; ++i) {
        const double mult = lu_at(i, k) / lu_at(k, k);
        lu_ref(i, k) = mult;
        for (int c = k + 1; c < m_; ++c) lu_ref(i, c) -= mult * lu_at(k, c);
      }
    }
    return true;
  }

  /// x := B^-1 b (input indexed by row, output by column/position).
  std::vector<double> solve(const std::vector<double>& b) const {
    std::vector<double> y(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      y[static_cast<std::size_t>(i)] =
          b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    }
    for (int i = 1; i < m_; ++i) {
      for (int k = 0; k < i; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(i, k) * y[static_cast<std::size_t>(k)];
      }
    }
    for (int i = m_ - 1; i >= 0; --i) {
      for (int k = i + 1; k < m_; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(i, k) * y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] /= lu_at(i, i);
    }
    return y;
  }

  /// y := B^-T c (input indexed by column/position, output by row).
  std::vector<double> solve_transpose(const std::vector<double>& c) const {
    std::vector<double> y = c;
    for (int i = 0; i < m_; ++i) {
      for (int k = 0; k < i; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(k, i) * y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] /= lu_at(i, i);
    }
    for (int i = m_ - 1; i >= 0; --i) {
      for (int k = i + 1; k < m_; ++k) {
        y[static_cast<std::size_t>(i)] -=
            lu_at(k, i) * y[static_cast<std::size_t>(k)];
      }
    }
    std::vector<double> out(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      out[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
          y[static_cast<std::size_t>(i)];
    }
    return out;
  }

 private:
  double lu_at(int row, int col) const {
    return lu_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
               static_cast<std::size_t>(row)];
  }
  double& lu_ref(int row, int col) {
    return lu_[static_cast<std::size_t>(col) * static_cast<std::size_t>(m_) +
               static_cast<std::size_t>(row)];
  }

  int m_ = 0;
  std::vector<double> cols_;
  std::vector<double> lu_;
  std::vector<int> perm_;
};

// ------------------------------------------------------------- eta oracle

/// Product-form eta file, maintained exactly like the pre-PR revised
/// simplex basis: factorize = sequential column updates against the
/// current file, update = FTRAN the replacement column and append one eta
/// pivoting at the replaced position.
class EtaOracle {
 public:
  struct Eta {
    int pivot = 0;
    double pivot_value = 1.0;
    std::vector<int> rows;
    std::vector<double> values;
  };

  void ftran(std::vector<double>& dense) const {
    for (const Eta& eta : etas_) {
      const double t = dense[static_cast<std::size_t>(eta.pivot)];
      if (t == 0.0) continue;
      dense[static_cast<std::size_t>(eta.pivot)] = eta.pivot_value * t;
      for (std::size_t k = 0; k < eta.rows.size(); ++k) {
        dense[static_cast<std::size_t>(eta.rows[k])] += eta.values[k] * t;
      }
    }
  }

  void btran(std::vector<double>& dense) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double s = it->pivot_value * dense[static_cast<std::size_t>(it->pivot)];
      for (std::size_t k = 0; k < it->rows.size(); ++k) {
        s += it->values[k] * dense[static_cast<std::size_t>(it->rows[k])];
      }
      dense[static_cast<std::size_t>(it->pivot)] = s;
    }
  }

  /// Replaces position `p`: FTRANs `column` through the file and appends
  /// the pivot eta. False when the pivot is numerically vanishing.
  bool update(int p, std::vector<double> column) {
    ftran(column);
    const double pivot_value = column[static_cast<std::size_t>(p)];
    if (std::abs(pivot_value) < 1e-10) return false;
    Eta eta;
    eta.pivot = p;
    eta.pivot_value = 1.0 / pivot_value;
    for (int i = 0; i < static_cast<int>(column.size()); ++i) {
      if (i == p) continue;
      const double a = column[static_cast<std::size_t>(i)];
      if (std::abs(a) <= 1e-12) continue;
      eta.rows.push_back(i);
      eta.values.push_back(-a / pivot_value);
    }
    etas_.push_back(std::move(eta));
    return true;
  }

  bool factorize(const DenseOracle& matrix) {
    etas_.clear();
    const int m = matrix.dimension();
    std::vector<double> column(static_cast<std::size_t>(m));
    for (int p = 0; p < m; ++p) {
      for (int i = 0; i < m; ++i) {
        column[static_cast<std::size_t>(i)] = matrix.at(i, p);
      }
      if (!update(p, column)) return false;
    }
    return true;
  }

 private:
  std::vector<Eta> etas_;
};

// -------------------------------------------------------------- harness

std::vector<BasisColumn> gather_columns(const DenseOracle& matrix,
                                        std::vector<int>& rows,
                                        std::vector<double>& values,
                                        std::vector<int>& starts) {
  const int m = matrix.dimension();
  rows.clear();
  values.clear();
  starts.assign(1, 0);
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) {
      const double v = matrix.at(r, c);
      if (v != 0.0) {
        rows.push_back(r);
        values.push_back(v);
      }
    }
    starts.push_back(static_cast<int>(rows.size()));
  }
  std::vector<BasisColumn> columns(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    columns[cs] = {rows.data() + starts[cs], values.data() + starts[cs],
                   starts[cs + 1] - starts[cs]};
  }
  return columns;
}

/// Well-conditioned random sparse basis: dominant diagonal plus a few
/// off-diagonal entries per column.
DenseOracle random_basis(common::Rng& rng, int m) {
  DenseOracle matrix(m);
  for (int c = 0; c < m; ++c) {
    matrix.at(c, c) = 2.0 + rng.next_double() * 3.0;
    const int extras = static_cast<int>(rng.next_below(4));
    for (int e = 0; e < extras; ++e) {
      const int r = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(m)));
      if (r == c) continue;
      matrix.at(r, c) = rng.next_double() * 2.0 - 1.0;
    }
  }
  return matrix;
}

std::vector<double> random_vector(common::Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    v[static_cast<std::size_t>(i)] = rng.next_double() * 4.0 - 2.0;
  }
  return v;
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what,
                  std::uint64_t seed, int step) {
  double scale = 1.0;
  for (const double v : want) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-6 * scale)
        << what << " mismatch at slot " << i << " (seed=" << seed
        << " step=" << step << ")";
  }
}

/// One full random basis walk under `lu_options`: factorize, then a run of
/// column replacements and (optionally) row additions, checking FTRAN and
/// BTRAN against the dense oracle (always) and the eta oracle (until the
/// first row addition, which the eta file cannot express). The starting
/// dimension is drawn from [min_dim, min_dim + dim_span).
void run_basis_walk(std::uint64_t seed, LuFactorization::Options lu_options,
                    bool with_row_additions, int min_dim = 4,
                    int dim_span = 24) {
  common::Rng rng(seed);
  const int m0 = min_dim + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(dim_span)));
  DenseOracle matrix = random_basis(rng, m0);
  ASSERT_TRUE(matrix.refresh()) << "seed=" << seed;

  LuFactorization lu(lu_options);
  std::vector<int> rows, starts;
  std::vector<double> values;
  {
    const auto columns = gather_columns(matrix, rows, values, starts);
    ASSERT_TRUE(lu.factorize(matrix.dimension(), columns)) << "seed=" << seed;
  }
  EtaOracle eta;
  ASSERT_TRUE(eta.factorize(matrix)) << "seed=" << seed;
  bool eta_live = true;

  const int steps = 24 + static_cast<int>(rng.next_below(16));
  for (int step = 0; step < steps; ++step) {
    const int m = matrix.dimension();
    // Differential check on random vectors before mutating anything.
    {
      std::vector<double> b = random_vector(rng, m);
      std::vector<double> lu_x = b;
      lu.ftran(lu_x);
      expect_close(lu_x, matrix.solve(b), "ftran(dense)", seed, step);
      if (eta_live) {
        std::vector<double> eta_x = b;
        eta.ftran(eta_x);
        expect_close(lu_x, eta_x, "ftran(eta)", seed, step);
      }
      std::vector<double> c = random_vector(rng, m);
      std::vector<double> lu_y = c;
      lu.btran(lu_y);
      expect_close(lu_y, matrix.solve_transpose(c), "btran(dense)", seed,
                   step);
      if (eta_live) {
        std::vector<double> eta_y = c;
        eta.btran(eta_y);
        expect_close(lu_y, eta_y, "btran(eta)", seed, step);
      }
    }

    if (with_row_additions && rng.next_bool(0.15)) {
      // Warm row addition: random coefficients on a few positions.
      const int m_old = matrix.dimension();
      std::vector<double> row_by_col(static_cast<std::size_t>(m_old), 0.0);
      std::vector<int> positions;
      std::vector<double> coeffs;
      const int touched = 1 + static_cast<int>(rng.next_below(4));
      for (int t = 0; t < touched; ++t) {
        const int p = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(m_old)));
        if (row_by_col[static_cast<std::size_t>(p)] != 0.0) continue;
        const double v = rng.next_double() * 2.0 - 1.0;
        row_by_col[static_cast<std::size_t>(p)] = v;
        positions.push_back(p);
        coeffs.push_back(v);
      }
      ASSERT_TRUE(lu.add_row(positions, coeffs))
          << "seed=" << seed << " step=" << step;
      matrix.add_row(row_by_col);
      ASSERT_TRUE(matrix.refresh()) << "seed=" << seed << " step=" << step;
      eta_live = false;  // the product form has no row-addition operation
    } else {
      // Column replacement through the simplex-shaped path: FTRAN with
      // spike capture, then the Forrest-Tomlin update.
      const int p = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(m)));
      std::vector<double> column(static_cast<std::size_t>(m), 0.0);
      column[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(m)))] =
          2.0 + rng.next_double();
      const int extras = 1 + static_cast<int>(rng.next_below(4));
      for (int e = 0; e < extras; ++e) {
        column[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(m)))] +=
            rng.next_double() * 2.0 - 1.0;
      }
      std::vector<double> alpha = column;
      lu.ftran(alpha, /*save_spike=*/true);
      const double pivot_value = alpha[static_cast<std::size_t>(p)];
      if (std::abs(pivot_value) < 0.05) continue;  // simplex would not pivot

      if (!lu.update(p, pivot_value)) {
        // A rejected update must flag the factorization invalid; rebuild
        // from the (old) basis and carry on — the basis did not change.
        EXPECT_FALSE(lu.valid()) << "seed=" << seed << " step=" << step;
        const auto columns = gather_columns(matrix, rows, values, starts);
        ASSERT_TRUE(lu.factorize(matrix.dimension(), columns))
            << "seed=" << seed << " step=" << step;
        continue;
      }
      matrix.set_column(p, column);
      ASSERT_TRUE(matrix.refresh()) << "seed=" << seed << " step=" << step;
      if (eta_live) {
        ASSERT_TRUE(eta.update(p, column))
            << "seed=" << seed << " step=" << step;
      }
    }

    if (lu.needs_refactor()) {
      const auto columns = gather_columns(matrix, rows, values, starts);
      ASSERT_TRUE(lu.factorize(matrix.dimension(), columns))
          << "seed=" << seed << " step=" << step;
    }
  }
}

TEST(LuFactorizationTest, RandomBasisWalksMatchOracles) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_basis_walk(seed * 7919 + 1, LuFactorization::Options{}, false);
  }
}

TEST(LuFactorizationTest, RandomWalksWithRowAdditionsMatchDense) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_basis_walk(seed * 104729 + 3, LuFactorization::Options{}, true);
  }
}

// Refactor-threshold edge cases: a one-update budget and a zero fill
// allowance must schedule a refactorization after every update without
// ever producing a wrong solve.
TEST(LuFactorizationTest, TightRefactorThresholdsStayCorrect) {
  LuFactorization::Options tight;
  tight.max_updates = 1;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_basis_walk(seed * 31337 + 5, tight, true);
  }
  LuFactorization::Options no_fill;
  no_fill.fill_ratio = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_basis_walk(seed * 65537 + 7, no_fill, false);
  }
}

TEST(LuFactorizationTest, SingularBasisIsReported) {
  // Duplicate columns: structurally singular.
  DenseOracle matrix(4);
  for (int r = 0; r < 4; ++r) {
    matrix.at(r, 0) = r + 1.0;
    matrix.at(r, 1) = r + 1.0;
    matrix.at(r, 2) = r == 2 ? 1.0 : 0.0;
    matrix.at(r, 3) = r == 3 ? 1.0 : 0.0;
  }
  std::vector<int> rows, starts;
  std::vector<double> values;
  const auto columns = gather_columns(matrix, rows, values, starts);
  LuFactorization lu;
  EXPECT_FALSE(lu.factorize(4, columns));
  EXPECT_FALSE(lu.valid());
}

TEST(LuFactorizationTest, NearSingularBasisIsReported) {
  DenseOracle matrix(3);
  matrix.at(0, 0) = 1.0;
  matrix.at(1, 1) = 1e-13;  // below the singularity tolerance
  matrix.at(2, 2) = 1.0;
  std::vector<int> rows, starts;
  std::vector<double> values;
  const auto columns = gather_columns(matrix, rows, values, starts);
  LuFactorization lu;
  EXPECT_FALSE(lu.factorize(3, columns));
}

TEST(LuFactorizationTest, SingularUpdateIsRejected) {
  // Replacing column 1 with a copy of column 0 makes the basis singular;
  // the update must refuse and invalidate rather than corrupt.
  DenseOracle matrix = [] {
    DenseOracle m(4);
    for (int i = 0; i < 4; ++i) m.at(i, i) = 1.0 + i;
    m.at(0, 2) = 0.5;
    return m;
  }();
  ASSERT_TRUE(matrix.refresh());
  std::vector<int> rows, starts;
  std::vector<double> values;
  const auto columns = gather_columns(matrix, rows, values, starts);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(4, columns));
  std::vector<double> duplicate(4, 0.0);
  duplicate[0] = 1.0;  // equals column 0
  std::vector<double> alpha = duplicate;
  lu.ftran(alpha, /*save_spike=*/true);
  EXPECT_FALSE(lu.update(1, alpha[1]));
  EXPECT_FALSE(lu.valid());
}

// ------------------------------------------------ pivot-sequence oracle

/// A plain Markowitz elimination with LuFactorization's selection rule:
/// every step rescans all columns for the minimum count and for the
/// index-ordered candidates, and reads entries by searching their row.
/// It is the oracle for the pivot sequence, the factors, and the
/// FTRAN/BTRAN sums of a fresh factorization, and records which parts of
/// the rule each factorization reached.
class ReferenceLu {
 public:
  struct Coverage {
    int capped_steps = 0;       ///< first pass stopped at the candidate cap
    int unbucketed_steps = 0;   ///< min count + 3 above the bucketed range
    int second_pass_steps = 0;  ///< first pass found nothing stable
  };

  bool factorize(int m, const std::vector<BasisColumn>& columns) {
    m_ = m;
    const auto ms = static_cast<std::size_t>(m);
    row_of_order_.assign(ms, -1);
    col_of_order_.assign(ms, -1);
    diag_.assign(ms, 0.0);
    lcols_.clear();
    l_rows_.clear();
    l_vals_.clear();
    row_cols_.assign(ms, {});
    row_vals_.assign(ms, {});
    col_rows_.assign(ms, {});
    col_active_.assign(ms, 1);
    for (int p = 0; p < m; ++p) {
      const BasisColumn& column = columns[static_cast<std::size_t>(p)];
      for (int k = 0; k < column.size; ++k) {
        if (column.values[k] == 0.0) continue;
        const auto rs = static_cast<std::size_t>(column.rows[k]);
        row_cols_[rs].push_back(p);
        row_vals_[rs].push_back(column.values[k]);
        col_rows_[static_cast<std::size_t>(p)].push_back(column.rows[k]);
      }
    }
    std::vector<int> targets;
    for (int step = 0; step < m; ++step) {
      int pr = -1, pc = -1;
      if (!select(&pr, &pc)) return false;
      const auto rs = static_cast<std::size_t>(pr);
      const auto cs = static_cast<std::size_t>(pc);
      const double pivot = entry(pr, pc);
      row_of_order_[static_cast<std::size_t>(step)] = pr;
      col_of_order_[static_cast<std::size_t>(step)] = pc;
      diag_[rs] = pivot;
      targets.clear();
      for (const int i : col_rows_[cs]) {
        if (i != pr) targets.push_back(i);
      }
      std::sort(targets.begin(), targets.end());
      const int l_start = static_cast<int>(l_rows_.size());
      for (const int i : targets) {
        const auto is = static_cast<std::size_t>(i);
        const double mult = entry(i, pc) / pivot;
        if (std::abs(mult) > options_.drop_tolerance) {
          l_rows_.push_back(i);
          l_vals_.push_back(mult);
          for (std::size_t s = 0; s < row_cols_[rs].size(); ++s) {
            const int c2 = row_cols_[rs][s];
            if (c2 == pc) continue;
            const double delta = mult * row_vals_[rs][s];
            const auto at = std::find(row_cols_[is].begin(),
                                      row_cols_[is].end(), c2);
            if (at != row_cols_[is].end()) {
              row_vals_[is][static_cast<std::size_t>(
                  at - row_cols_[is].begin())] -= delta;
            } else if (std::abs(delta) > options_.drop_tolerance) {
              row_cols_[is].push_back(c2);
              row_vals_[is].push_back(-delta);
              col_rows_[static_cast<std::size_t>(c2)].push_back(i);
            }
          }
        }
        std::size_t out = 0;
        for (std::size_t s = 0; s < row_cols_[is].size(); ++s) {
          const int c2 = row_cols_[is][s];
          const double v = row_vals_[is][s];
          if (c2 == pc) continue;
          if (std::abs(v) <= options_.drop_tolerance) {
            auto& rows = col_rows_[static_cast<std::size_t>(c2)];
            rows.erase(std::find(rows.begin(), rows.end(), i));
            continue;
          }
          row_cols_[is][out] = c2;
          row_vals_[is][out] = v;
          ++out;
        }
        row_cols_[is].resize(out);
        row_vals_[is].resize(out);
      }
      if (static_cast<int>(l_rows_.size()) > l_start) {
        lcols_.push_back({pr, l_start, static_cast<int>(l_rows_.size())});
      }
      std::size_t out = 0;
      for (std::size_t s = 0; s < row_cols_[rs].size(); ++s) {
        const int c2 = row_cols_[rs][s];
        if (c2 == pc) continue;
        auto& rows = col_rows_[static_cast<std::size_t>(c2)];
        rows.erase(std::find(rows.begin(), rows.end(), pr));
        row_cols_[rs][out] = c2;
        row_vals_[rs][out] = row_vals_[rs][s];
        ++out;
      }
      row_cols_[rs].resize(out);
      row_vals_[rs].resize(out);
      col_rows_[cs].clear();
      col_active_[cs] = 0;
    }
    return true;
  }

  /// dense := B^-1 dense, summed in LuFactorization::ftran's order.
  void ftran(std::vector<double>& dense) const {
    for (const LCol& lc : lcols_) {
      const double t = dense[static_cast<std::size_t>(lc.pivot_row)];
      if (t == 0.0) continue;
      for (int k = lc.start; k < lc.end; ++k) {
        dense[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(k)])] -=
            l_vals_[static_cast<std::size_t>(k)] * t;
      }
    }
    std::vector<double> work(static_cast<std::size_t>(m_), 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      const auto r = static_cast<std::size_t>(
          row_of_order_[static_cast<std::size_t>(k)]);
      double s = dense[r];
      for (std::size_t t = 0; t < row_cols_[r].size(); ++t) {
        s -= row_vals_[r][t] *
             work[static_cast<std::size_t>(row_cols_[r][t])];
      }
      work[static_cast<std::size_t>(
          col_of_order_[static_cast<std::size_t>(k)])] = s / diag_[r];
    }
    dense = work;
  }

  /// dense := B^-T dense, summed in LuFactorization::btran's order.
  void btran(std::vector<double>& dense) const {
    std::vector<double> work(static_cast<std::size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      const auto r = static_cast<std::size_t>(
          row_of_order_[static_cast<std::size_t>(k)]);
      const double z =
          dense[static_cast<std::size_t>(
              col_of_order_[static_cast<std::size_t>(k)])] /
          diag_[r];
      work[r] = z;
      if (z == 0.0) continue;
      for (std::size_t t = 0; t < row_cols_[r].size(); ++t) {
        dense[static_cast<std::size_t>(row_cols_[r][t])] -=
            row_vals_[r][t] * z;
      }
    }
    for (auto it = lcols_.rbegin(); it != lcols_.rend(); ++it) {
      double s = 0.0;
      for (int k = it->start; k < it->end; ++k) {
        s += l_vals_[static_cast<std::size_t>(k)] *
             work[static_cast<std::size_t>(
                 l_rows_[static_cast<std::size_t>(k)])];
      }
      work[static_cast<std::size_t>(it->pivot_row)] -= s;
    }
    dense = work;
  }

  const std::vector<int>& pivot_rows() const { return row_of_order_; }
  const std::vector<int>& pivot_cols() const { return col_of_order_; }
  const Coverage& coverage() const { return coverage_; }

 private:
  struct LCol {
    int pivot_row = 0;
    int start = 0;
    int end = 0;
  };

  double entry(int row, int col) const {
    const auto& cols = row_cols_[static_cast<std::size_t>(row)];
    for (std::size_t s = 0; s < cols.size(); ++s) {
      if (cols[s] == col) return row_vals_[static_cast<std::size_t>(row)][s];
    }
    return 0.0;
  }

  bool select(int* pivot_row, int* pivot_col) {
    int min_count = std::numeric_limits<int>::max();
    for (int j = 0; j < m_; ++j) {
      if (!col_active_[static_cast<std::size_t>(j)]) continue;
      const int count =
          static_cast<int>(col_rows_[static_cast<std::size_t>(j)].size());
      if (count == 0) return false;
      min_count = std::min(min_count, count);
    }
    if (min_count == std::numeric_limits<int>::max()) return false;
    if (min_count + 3 > LuFactorization::kBucketedCounts) {
      ++coverage_.unbucketed_steps;
    }
    for (int pass = 0; pass < 2; ++pass) {
      const int count_cap =
          pass == 0 ? min_count + 3 : std::numeric_limits<int>::max();
      long long best_cost = std::numeric_limits<long long>::max();
      double best_mag = 0.0;
      int best_row = -1, best_col = -1;
      int scanned = 0;
      for (int j = 0; j < m_ && (pass == 1 || scanned < 64); ++j) {
        const auto js = static_cast<std::size_t>(j);
        if (!col_active_[js]) continue;
        const auto& rows = col_rows_[js];
        const int col_count = static_cast<int>(rows.size());
        if (col_count > count_cap) continue;
        ++scanned;
        double col_max = 0.0;
        for (const int i : rows) {
          col_max = std::max(col_max, std::abs(entry(i, j)));
        }
        if (col_max <= options_.singular_tolerance) continue;
        const double acceptable = options_.pivot_tolerance * col_max;
        for (const int i : rows) {
          const double mag = std::abs(entry(i, j));
          if (mag < acceptable || mag <= options_.singular_tolerance) continue;
          const int row_count =
              static_cast<int>(row_cols_[static_cast<std::size_t>(i)].size());
          const long long cost = static_cast<long long>(row_count - 1) *
                                 static_cast<long long>(col_count - 1);
          const bool better =
              cost < best_cost ||
              (cost == best_cost &&
               (mag > best_mag ||
                (mag == best_mag &&
                 (j < best_col || (j == best_col && i < best_row)))));
          if (better) {
            best_cost = cost;
            best_mag = mag;
            best_row = i;
            best_col = j;
          }
        }
      }
      if (pass == 0 && scanned == 64) ++coverage_.capped_steps;
      if (best_row >= 0) {
        *pivot_row = best_row;
        *pivot_col = best_col;
        return true;
      }
      if (pass == 0) ++coverage_.second_pass_steps;
    }
    return false;
  }

  LuFactorization::Options options_;
  int m_ = 0;
  std::vector<int> row_of_order_, col_of_order_;
  std::vector<double> diag_;
  std::vector<LCol> lcols_;
  std::vector<int> l_rows_;
  std::vector<double> l_vals_;
  std::vector<std::vector<int>> row_cols_;  ///< becomes U row by row
  std::vector<std::vector<double>> row_vals_;
  std::vector<std::vector<int>> col_rows_;
  std::vector<char> col_active_;
  Coverage coverage_;
};

/// Sparse basis given column by column, entries in arbitrary row order.
struct SparseBasis {
  int m = 0;
  std::vector<std::vector<int>> rows;
  std::vector<std::vector<double>> values;

  explicit SparseBasis(int dimension)
      : m(dimension),
        rows(static_cast<std::size_t>(dimension)),
        values(static_cast<std::size_t>(dimension)) {}

  bool has(int row, int col) const {
    const auto& r = rows[static_cast<std::size_t>(col)];
    return std::find(r.begin(), r.end(), row) != r.end();
  }
  void add(int row, int col, double value) {
    rows[static_cast<std::size_t>(col)].push_back(row);
    values[static_cast<std::size_t>(col)].push_back(value);
  }
  std::vector<BasisColumn> views() const {
    std::vector<BasisColumn> columns(static_cast<std::size_t>(m));
    for (std::size_t c = 0; c < columns.size(); ++c) {
      columns[c] = {rows[c].data(), values[c].data(),
                    static_cast<int>(rows[c].size())};
    }
    return columns;
  }
};

double signed_between(common::Rng& rng, double lo, double hi) {
  const double v = lo + rng.next_double() * (hi - lo);
  return rng.next_bool() ? v : -v;
}

/// A simplex-like basis: mostly slack unit columns, structural columns
/// with a dominant entry plus a few others, `dense_rows` rows touching
/// about half of all columns, and `dense_cols` columns with up to 48
/// entries (counts past the bucketed range while the minimum stays small).
/// With `gadget`, seven rows and columns form a block whose only
/// low-count column has entries below the singularity tolerance, so once
/// the rest is eliminated the first pass finds nothing stable and the
/// second pass picks a pivot whose fill makes that column usable.
SparseBasis simplex_like_basis(common::Rng& rng, int m, int dense_rows,
                               int dense_cols, bool gadget) {
  SparseBasis basis(m);
  std::vector<int> row_perm(static_cast<std::size_t>(m));
  std::vector<int> col_perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    row_perm[static_cast<std::size_t>(i)] = i;
    col_perm[static_cast<std::size_t>(i)] = i;
  }
  rng.shuffle(row_perm);
  rng.shuffle(col_perm);
  // The gadget takes the last seven (row, column) pairs of the shuffles.
  const int free = gadget ? m - 7 : m;
  const auto row_at = [&](int k) {
    return row_perm[static_cast<std::size_t>(k)];
  };
  const auto col_at = [&](int k) {
    return col_perm[static_cast<std::size_t>(k)];
  };
  for (int k = 0; k < free; ++k) {
    const int c = col_at(k);
    if (rng.next_bool(0.7)) {
      basis.add(row_at(k), c, rng.next_bool(0.5) ? 1.0 : -1.0);
      continue;
    }
    basis.add(row_at(k), c, signed_between(rng, 2.0, 5.0));
    const int extras = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < extras; ++e) {
      const int r = row_at(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(free))));
      if (!basis.has(r, c)) basis.add(r, c, signed_between(rng, 0.1, 1.0));
    }
  }
  for (int d = 0; d < dense_rows && free > 0; ++d) {
    const int r = row_at(static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(free))));
    for (int k = 0; k < free; ++k) {
      if (rng.next_bool(0.5) && !basis.has(r, col_at(k))) {
        basis.add(r, col_at(k), signed_between(rng, 0.1, 1.0));
      }
    }
  }
  for (int d = 0; d < dense_cols && free > 0; ++d) {
    const int c = col_at(static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(free))));
    for (int e = 0; e < 48; ++e) {
      const int r = row_at(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(free))));
      if (!basis.has(r, c)) basis.add(r, c, signed_between(rng, 0.01, 0.2));
    }
  }
  if (gadget) {
    // Rows r, s, t1..t5 and columns a, b, c1..c5 (see above). a holds
    // tiny entries in r and s; b is 0.02 in r and 1 elsewhere; c_k are
    // dense on s, t1..t5. The second pass picks (r, b), the cheapest
    // entry, and eliminating it fills 50x the tiny entries into a.
    const int r = row_at(free), s = row_at(free + 1);
    const int a = col_at(free), b = col_at(free + 1);
    basis.add(r, a, 8e-12);
    basis.add(s, a, 8e-12);
    basis.add(r, b, 0.02);
    for (int k = 1; k < 7; ++k) basis.add(row_at(free + k), b, 1.0);
    for (int k = 2; k < 7; ++k) {
      for (int q = 1; q < 7; ++q) {
        basis.add(row_at(free + q), col_at(free + k),
                  signed_between(rng, 0.5, 1.5));
      }
    }
  }
  // The loader must not depend on the entry order within a column.
  for (int c = 0; c < m; ++c) {
    auto& rows = basis.rows[static_cast<std::size_t>(c)];
    auto& values = basis.values[static_cast<std::size_t>(c)];
    for (std::size_t k = rows.size(); k > 1; --k) {
      const auto j = static_cast<std::size_t>(rng.next_below(k));
      std::swap(rows[k - 1], rows[j]);
      std::swap(values[k - 1], values[j]);
    }
  }
  return basis;
}

/// Overwrites a slack column of `basis` with a copy of a column holding
/// several entries, which makes it singular partway through elimination.
void duplicate_a_column(common::Rng& rng, SparseBasis& basis) {
  int source = -1, target = -1;
  for (int tries = 0; tries < 10 * basis.m && (source < 0 || target < 0);
       ++tries) {
    const int c = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(basis.m)));
    const std::size_t size = basis.rows[static_cast<std::size_t>(c)].size();
    if (size >= 3 && source < 0) source = c;
    if (size == 1 && target < 0) target = c;
  }
  ASSERT_GE(source, 0);
  ASSERT_GE(target, 0);
  basis.rows[static_cast<std::size_t>(target)] =
      basis.rows[static_cast<std::size_t>(source)];
  basis.values[static_cast<std::size_t>(target)] =
      basis.values[static_cast<std::size_t>(source)];
}

/// A fully dense basis: every count starts above the bucketed range.
SparseBasis dense_basis(common::Rng& rng, int m) {
  SparseBasis basis(m);
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) {
      basis.add(r, c, (r == c ? 4.0 : 0.0) + signed_between(rng, 0.1, 1.0));
    }
  }
  return basis;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Factorizes `basis` with both implementations and requires the same
/// outcome, the same (row, column) pivot sequence, and bit-identical
/// FTRAN/BTRAN results on random vectors.
void expect_same_factorization(const SparseBasis& basis, std::uint64_t seed,
                               bool expect_ok,
                               ReferenceLu::Coverage* coverage) {
  const auto columns = basis.views();
  LuFactorization lu;
  ReferenceLu reference;
  const bool ok = lu.factorize(basis.m, columns);
  ASSERT_EQ(reference.factorize(basis.m, columns), ok) << "seed=" << seed;
  ASSERT_EQ(ok, expect_ok) << "seed=" << seed;
  ASSERT_EQ(lu.pivot_rows(), reference.pivot_rows()) << "seed=" << seed;
  ASSERT_EQ(lu.pivot_cols(), reference.pivot_cols()) << "seed=" << seed;
  coverage->capped_steps += reference.coverage().capped_steps;
  coverage->unbucketed_steps += reference.coverage().unbucketed_steps;
  coverage->second_pass_steps += reference.coverage().second_pass_steps;
  if (!ok) return;
  common::Rng rng(seed ^ 0x5bd1e995ULL);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> b = random_vector(rng, basis.m);
    std::vector<double> want = b;
    lu.ftran(b);
    reference.ftran(want);
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_TRUE(same_bits(b[i], want[i]))
          << "ftran slot " << i << ": " << b[i] << " vs " << want[i]
          << " (seed=" << seed << ")";
    }
    std::vector<double> c = random_vector(rng, basis.m);
    want = c;
    lu.btran(c);
    reference.btran(want);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_TRUE(same_bits(c[i], want[i]))
          << "btran slot " << i << ": " << c[i] << " vs " << want[i]
          << " (seed=" << seed << ")";
    }
  }
}

// The bucketed pivot search must pick exactly what the full scan picks.
// Dimensions straddle the 64-column bitset words; the bases hit the
// 64-candidate cap, counts past the bucketed range (dense columns, and a
// dense block whose minimum count starts there), and the second pass.
TEST(LuFactorizationTest, PivotSequenceMatchesReference) {
  ReferenceLu::Coverage coverage;
  std::uint64_t seed = 0;
  for (const int m : {63, 64, 65, 129, 901}) {
    for (int variant = 0; variant < 4; ++variant) {
      ++seed;
      common::Rng rng(seed * 2246822519ULL + 13);
      const int dense_rows = variant % 2 == 0 ? 0 : 1 + variant;
      const int dense_cols = variant >= 2 ? 2 : 0;
      const bool gadget = variant != 0;
      expect_same_factorization(
          simplex_like_basis(rng, m, dense_rows, dense_cols, gadget), seed,
          /*expect_ok=*/true, &coverage);
      if (HasFatalFailure()) return;
    }
    ++seed;
    common::Rng rng(seed * 2246822519ULL + 13);
    SparseBasis singular = simplex_like_basis(rng, m, 1, 0, false);
    duplicate_a_column(rng, singular);
    if (HasFatalFailure()) return;
    expect_same_factorization(singular, seed, /*expect_ok=*/false,
                              &coverage);
    if (HasFatalFailure()) return;
  }
  for (const int m : {40, 65}) {
    ++seed;
    common::Rng rng(seed * 2246822519ULL + 13);
    expect_same_factorization(dense_basis(rng, m), seed, /*expect_ok=*/true,
                              &coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.capped_steps, 0);
  EXPECT_GT(coverage.unbucketed_steps, 0);
  EXPECT_GT(coverage.second_pass_steps, 0);
}

// ------------------------------------------------- end-to-end differential

Model random_lp(common::Rng& rng) {
  Model model;
  const int n = 4 + static_cast<int>(rng.next_below(8));
  const int m = 3 + static_cast<int>(rng.next_below(6));
  for (int j = 0; j < n; ++j) {
    model.add_variable(0.0, 1.0 + rng.next_double() * 9.0,
                       rng.next_double() * 4.0 - 2.0);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bool(0.4)) {
        terms.push_back({j, rng.next_double() * 2.0 - 0.5});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const Sense sense = rng.next_bool(0.3)
                            ? Sense::kGreaterEqual
                            : (rng.next_bool(0.2) ? Sense::kEqual
                                                  : Sense::kLessEqual);
    model.add_constraint(std::move(terms), sense,
                         rng.next_double() * 6.0 - 1.0);
  }
  return model;
}

SolveOptions factor_options(Factorization factorization) {
  SolveOptions options;
  options.algorithm = Algorithm::kRevised;
  options.factorization = factorization;
  return options;
}

// The solver-level hierarchy: Forrest-Tomlin vs eta vs dense tableau on
// random LPs — same status, same optimum.
TEST(LuFactorizationTest, RevisedSimplexFactorizationsAgree) {
  for (int trial = 0; trial < 120; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 2654435761u + 11);
    const Model model = random_lp(rng);
    const Solution ft = solve(model, factor_options(Factorization::kForrestTomlin));
    const Solution eta = solve(model, factor_options(Factorization::kEta));
    SolveOptions dense_options;
    dense_options.algorithm = Algorithm::kDenseTableau;
    const Solution dense = solve(model, dense_options);
    ASSERT_EQ(ft.status, dense.status) << "trial " << trial;
    ASSERT_EQ(eta.status, dense.status) << "trial " << trial;
    if (dense.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(ft.objective, dense.objective, 1e-6) << "trial " << trial;
      EXPECT_NEAR(eta.objective, dense.objective, 1e-6) << "trial " << trial;
    }
  }
}

// Warm row addition at the solver level: appending a violated row to a
// solved basis and reoptimizing must agree with a cold solve of the
// extended model.
TEST(LuFactorizationTest, WarmRowAdditionMatchesColdSolve) {
  for (int trial = 0; trial < 80; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 48271 + 23);
    Model model = random_lp(rng);
    RevisedSimplex warm(model, factor_options(Factorization::kForrestTomlin));
    const Solution first = warm.solve_cold();
    if (first.status != SolveStatus::kOptimal) continue;

    // A row cutting off part of the box keeps the LP interesting; three
    // rounds of add + reoptimize.
    for (int round = 0; round < 3; ++round) {
      std::vector<Term> terms;
      for (int j = 0; j < model.variable_count(); ++j) {
        if (rng.next_bool(0.5)) terms.push_back({j, 1.0 + rng.next_double()});
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      double activity = 0.0;
      for (const Term& term : terms) {
        activity += term.coefficient *
                    first.values[static_cast<std::size_t>(term.variable)];
      }
      const double rhs = activity * (0.4 + rng.next_double() * 0.4);
      warm.add_row(terms, Sense::kLessEqual, rhs);
      model.add_constraint(terms, Sense::kLessEqual, rhs);

      const Solution warm_solution = warm.reoptimize();
      if (warm.numerical_trouble()) break;  // cold fallback covered elsewhere
      const Solution cold = solve(model, factor_options(Factorization::kForrestTomlin));
      ASSERT_EQ(warm_solution.status, cold.status)
          << "trial " << trial << " round " << round;
      if (cold.status != SolveStatus::kOptimal) break;
      EXPECT_NEAR(warm_solution.objective, cold.objective, 1e-6)
          << "trial " << trial << " round " << round;
    }
  }
}

// ------------------------------------------------------- seeded fuzz entry

std::vector<std::uint64_t> configured_seeds() {
  std::vector<std::uint64_t> seeds;
  const auto parse_into = [&seeds](std::istream& in) {
    std::uint64_t seed = 0;
    while (in >> seed) seeds.push_back(seed);
  };
  if (const char* file = std::getenv("FPVA_LU_SEED_FILE")) {
    std::ifstream in(file);
    EXPECT_TRUE(in.good()) << "FPVA_LU_SEED_FILE unreadable: " << file;
    parse_into(in);
  }
  if (const char* inline_seeds = std::getenv("FPVA_LU_FUZZ_SEEDS")) {
    std::istringstream in(inline_seeds);
    parse_into(in);
  }
  return seeds;
}

// CI's nightly-style step points FPVA_LU_SEED_FILE at the committed seed
// list (tests/lu_fuzz_seeds.txt) and runs exactly this test; locally the
// test is a no-op unless seeds are configured.
TEST(LuFuzzTest, SeededSweep) {
  const std::vector<std::uint64_t> seeds = configured_seeds();
  for (const std::uint64_t seed : seeds) {
    run_basis_walk(seed, LuFactorization::Options{}, true);
    LuFactorization::Options tight;
    tight.max_updates = 2;
    run_basis_walk(seed ^ 0x9e3779b97f4a7c15ULL, tight, true);
    // Large-m walk: m0 in 65..160 puts the pivot search's count bitsets
    // over two or three 64-column words.
    run_basis_walk(seed ^ 0xc2b2ae3d27d4eb4fULL, LuFactorization::Options{},
                   true, 65, 96);
  }
}

}  // namespace
}  // namespace fpva::lp

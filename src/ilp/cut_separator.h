// Clique and lifted-cover cut separation for the ILP engine.
//
// Extracted from branch_and_bound.cpp so the separation logic is unit-
// testable on its own: the branch-and-bound root cutting loop drives one
// CutSeparator, and tests/cut_separator_test.cpp exercises violated-clique
// and lifted-cover separation directly instead of only end-to-end through
// ilp::solve.
#ifndef FPVA_ILP_CUT_SEPARATOR_H
#define FPVA_ILP_CUT_SEPARATOR_H

#include <set>
#include <utility>
#include <vector>

#include "ilp/model.h"
#include "ilp/presolve.h"

namespace fpva::ilp {

/// LP value of a conflict-graph literal under the point `x`.
double literal_value(int literal, const std::vector<double>& x);

/// Builds the variable-space terms and rhs of `sum literals <=
/// rhs_literals`: complemented literals contribute (1 - x), so each moves
/// 1 to the rhs. Returns the rhs.
double literal_row(const std::vector<int>& literals, int rhs_literals,
                   std::vector<lp::Term>* terms);

/// One violated inequality found by a separation round.
struct CandidateCut {
  std::vector<int> literals;  ///< sorted
  int rhs_literals = 1;       ///< 1 for cliques, |cover| - 1 for covers
  double violation = 0.0;
};

/// Separates violated lifted (extended minimal) cover cuts from one
/// normalized knapsack row under the fractional point `x`.
void separate_covers(const std::vector<PackedTerm>& items, double rhs,
                     const std::vector<double>& x,
                     std::vector<CandidateCut>& out);

/// Separation state of the root cutting loop: the clique table, the
/// normalized knapsack rows (original rows only — cuts never become
/// separation sources), and the signatures of every cut already added, so
/// a cut enters the model at most once over the whole loop. Cliques and
/// knapsacks are built from root bounds, so every cut separated from them
/// is globally valid.
class CutSeparator {
 public:
  CutSeparator(const Model& model, const std::vector<double>& lower,
               const std::vector<double>& upper,
               const std::vector<std::pair<int, int>>& implications);

  int clique_count() const { return static_cast<int>(table_.cliques.size()); }
  bool empty() const { return table_.cliques.empty() && knapsacks_.empty(); }

  /// Collects the most violated cuts under `x` that were not added before
  /// (at most `max_cuts`), recording their signatures as added.
  void separate(const std::vector<double>& x, int max_cuts,
                std::vector<CandidateCut>* out);

 private:
  CliqueTable table_;
  std::vector<std::vector<PackedTerm>> knapsacks_;
  std::vector<double> knapsack_rhs_;
  std::set<std::vector<int>> added_;
  std::vector<CandidateCut> candidates_;
};

}  // namespace fpva::ilp

#endif  // FPVA_ILP_CUT_SEPARATOR_H

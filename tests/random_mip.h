// Random 0/1 MIPs for the solver tests, and the brute-force optimum every
// solve over them is checked against. The instances have 6-10 binaries, so
// enumerating all 0/1 points is exact and cheap, and no solver
// configuration has to serve as the reference. Also the presolve-off,
// learning-off configuration the pipeline differentials compare the
// default with.
#ifndef FPVA_TESTS_RANDOM_MIP_H
#define FPVA_TESTS_RANDOM_MIP_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ilp/branch_and_bound.h"
#include "ilp/model.h"
#include "lp/model.h"

namespace fpva::test_support {

/// One knapsack row over 6-10 binaries (negated values as the objective)
/// plus `cover_rows` covering rows, each >= 1 over a random subset, which
/// exercise >= rows and propagation. Draws from `rng` in a fixed order, so
/// a seed and `cover_rows` name one instance.
inline ilp::Model random_mip(common::Rng& rng, int cover_rows = 2) {
  ilp::Model model;
  const int n = 6 + static_cast<int>(rng.next_below(5));
  std::vector<lp::Term> knap;
  for (int i = 0; i < n; ++i) {
    const int x = model.add_binary(-static_cast<double>(rng.next_in(1, 12)));
    knap.push_back({x, static_cast<double>(rng.next_in(1, 8))});
  }
  model.add_constraint(std::move(knap), lp::Sense::kLessEqual,
                       static_cast<double>(rng.next_in(6, 24)));
  for (int r = 0; r < cover_rows; ++r) {
    std::vector<lp::Term> cover;
    for (int i = 0; i < n; ++i) {
      if (rng.next_bool(0.4)) cover.push_back({i, 1.0});
    }
    if (cover.size() < 2) cover = {{0, 1.0}, {n - 1, 1.0}};
    model.add_constraint(std::move(cover), lp::Sense::kGreaterEqual, 1.0);
  }
  return model;
}

/// The minimum objective over every 0/1 point Model::is_feasible accepts,
/// or nullopt when no point is feasible. Every variable must be binary.
inline std::optional<double> brute_force_optimum(const ilp::Model& model) {
  const int n = model.variable_count();
  std::vector<double> point(static_cast<std::size_t>(n));
  std::optional<double> best;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    for (int j = 0; j < n; ++j) {
      point[static_cast<std::size_t>(j)] =
          static_cast<double>((mask >> j) & 1U);
    }
    if (!model.is_feasible(point)) continue;
    const double objective = model.lp().objective_value(point);
    if (!best.has_value() || objective < *best) best = objective;
  }
  return best;
}

/// The reference configuration the pipeline differentials compare the
/// default with: presolve and conflict learning, the two search switches
/// there are, both off. Node propagation, probing, the root cuts and the
/// node LPs' warm pipeline always run. A new search switch is added here,
/// so the differentials cover it.
inline ilp::Options all_switches_off() {
  ilp::Options options;
  options.presolve = false;
  options.conflict_learning = false;
  return options;
}

}  // namespace fpva::test_support

#endif  // FPVA_TESTS_RANDOM_MIP_H

// Explanation-checker harness for conflict-driven nogood learning.
//
// Every nogood the ConflictEngine learns is handed to an observer that
// *independently re-derives* it: the nogood's bound conditions are
// asserted on top of the model bounds and a self-contained dense fixpoint
// propagation (reimplemented here, sharing only the tolerance constants)
// over the model rows — plus the objective-cutoff row for bound-based
// nogoods and the previously learned nogoods a derivation may have
// resolved through — must prove infeasibility. A learned clause that the
// checker cannot refute would be one the solver had no right to prune
// with.
//
// Every randomized case logs its seed on failure, so a CI hit reproduces
// with:  FPVA_CONFLICT_FUZZ_SEEDS=<seed> ./conflict_test
// The seeded sweep also reads tests/conflict_fuzz_seeds.txt through the
// FPVA_CONFLICT_SEED_FILE environment variable (the CI fuzz step does
// this, under ASan/UBSan).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ilp_models.h"
#include "grid/presets.h"
#include "grid/serialize.h"
#include "ilp/branch_and_bound.h"
#include "ilp/conflict.h"
#include "ilp/model.h"
#include "ilp/presolve.h"
#include "random_mip.h"

namespace fpva::ilp {
namespace {

// ------------------------------------------------------ independent checker

struct CheckRow {
  std::vector<lp::Term> terms;  ///< duplicate variables merged
  lp::Sense sense = lp::Sense::kLessEqual;
  double rhs = 0.0;
};

std::vector<CheckRow> merged_rows(const Model& model) {
  std::vector<CheckRow> rows;
  for (int i = 0; i < model.constraint_count(); ++i) {
    const lp::Constraint& src = model.lp().constraint(i);
    std::map<int, double> acc;
    for (const lp::Term& term : src.terms) {
      acc[term.variable] += term.coefficient;
    }
    CheckRow row;
    row.sense = src.sense;
    row.rhs = src.rhs;
    for (const auto& [var, coefficient] : acc) {
      row.terms.push_back({var, coefficient});
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// One dense tightening pass of `row`; returns false on proven
/// infeasibility, sets *changed when a bound moved. Independent
/// reimplementation of activity-based bound tightening.
bool checker_tighten(const Model& model, const CheckRow& row,
                     std::vector<double>& lower, std::vector<double>& upper,
                     bool* changed) {
  double min_activity = 0.0;
  double max_activity = 0.0;
  for (const lp::Term& t : row.terms) {
    const auto v = static_cast<std::size_t>(t.variable);
    min_activity += std::min(t.coefficient * lower[v], t.coefficient * upper[v]);
    max_activity += std::max(t.coefficient * lower[v], t.coefficient * upper[v]);
  }
  const bool upper_active = row.sense != lp::Sense::kGreaterEqual;
  const bool lower_active = row.sense != lp::Sense::kLessEqual;
  if (upper_active && min_activity > row.rhs + kPropFeasTol) return false;
  if (lower_active && max_activity < row.rhs - kPropFeasTol) return false;
  for (const lp::Term& t : row.terms) {
    const auto v = static_cast<std::size_t>(t.variable);
    const double a = t.coefficient;
    if (a == 0.0) continue;
    const double contrib_min = std::min(a * lower[v], a * upper[v]);
    const double contrib_max = std::max(a * lower[v], a * upper[v]);
    double new_lo = lower[v];
    double new_hi = upper[v];
    if (upper_active) {
      const double headroom = row.rhs - (min_activity - contrib_min);
      if (a > 0.0) {
        new_hi = std::min(new_hi, headroom / a);
      } else {
        new_lo = std::max(new_lo, headroom / a);
      }
    }
    if (lower_active) {
      const double need = row.rhs - (max_activity - contrib_max);
      if (a > 0.0) {
        new_lo = std::max(new_lo, need / a);
      } else {
        new_hi = std::min(new_hi, need / a);
      }
    }
    if (model.is_integer(t.variable)) {
      new_lo = std::ceil(new_lo - kPropIntTol);
      new_hi = std::floor(new_hi + kPropIntTol);
    }
    if (new_lo > lower[v] + kPropImprove) {
      lower[v] = new_lo;
      *changed = true;
    }
    if (new_hi < upper[v] - kPropImprove) {
      upper[v] = new_hi;
      *changed = true;
    }
    if (lower[v] > upper[v] + kPropImprove) return false;
  }
  return true;
}

/// Unit propagation of an earlier nogood; false on proven infeasibility.
bool checker_apply_nogood(const Model& model, const Nogood& ng,
                          std::vector<double>& lower,
                          std::vector<double>& upper, bool* changed) {
  int free_count = 0;
  int free_index = -1;
  for (std::size_t i = 0; i < ng.lits.size(); ++i) {
    const BoundLit& lit = ng.lits[i];
    const auto v = static_cast<std::size_t>(lit.var);
    const bool satisfied = lit.is_lower ? lower[v] >= lit.value - kPropImprove
                                        : upper[v] <= lit.value + kPropImprove;
    if (satisfied) continue;
    const bool falsified = lit.is_lower ? upper[v] < lit.value - kPropImprove
                                        : lower[v] > lit.value + kPropImprove;
    if (falsified) return true;
    ++free_count;
    free_index = static_cast<int>(i);
    if (free_count > 1) return true;
  }
  if (free_count == 0) return false;  // all conditions hold: refuted
  const BoundLit& free = ng.lits[static_cast<std::size_t>(free_index)];
  if (!model.is_integer(free.var)) return true;
  if (std::abs(free.value - std::round(free.value)) > kPropIntTol) return true;
  const auto v = static_cast<std::size_t>(free.var);
  if (free.is_lower) {
    const double implied = std::round(free.value) - 1.0;
    if (implied < upper[v] - kPropImprove) {
      upper[v] = implied;
      *changed = true;
    }
  } else {
    const double implied = std::round(free.value) + 1.0;
    if (implied > lower[v] + kPropImprove) {
      lower[v] = implied;
      *changed = true;
    }
  }
  if (lower[v] > upper[v] + kPropImprove) return false;
  return true;
}

/// True when asserting `nogood`'s conditions over `model` propagates to a
/// contradiction — i.e. the learned clause really is implied by the model
/// (together with the recorded cutoff and the earlier learned clauses its
/// derivation may have resolved through).
bool checker_refutes(const Model& model, const Nogood& nogood,
                     const std::vector<Nogood>& earlier) {
  const int n = model.variable_count();
  std::vector<double> lower(static_cast<std::size_t>(n));
  std::vector<double> upper(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    lower[static_cast<std::size_t>(j)] = model.lp().variable(j).lower;
    upper[static_cast<std::size_t>(j)] = model.lp().variable(j).upper;
  }
  for (const BoundLit& lit : nogood.lits) {
    const auto v = static_cast<std::size_t>(lit.var);
    if (lit.is_lower) {
      lower[v] = std::max(lower[v], lit.value);
    } else {
      upper[v] = std::min(upper[v], lit.value);
    }
  }
  for (int j = 0; j < n; ++j) {
    const auto v = static_cast<std::size_t>(j);
    if (model.is_integer(j)) {
      lower[v] = std::ceil(lower[v] - kPropIntTol);
      upper[v] = std::floor(upper[v] + kPropIntTol);
    }
    if (lower[v] > upper[v] + kPropImprove) return true;
  }

  std::vector<CheckRow> rows = merged_rows(model);
  if (!nogood.lp_ray.empty()) {
    // LP-sourced clause: re-derive the aggregated inequality g.x <= g0 as
    // a sense-correct combination of the model rows (nonnegative weights
    // on <= rows, nonpositive on >= rows, free on = rows) — plus the
    // objective row with weight 1 and the recorded cutoff as rhs when
    // lp_objective — and let the fixpoint refute through it. A ray of the
    // wrong length or with wrong-signed weights is not a valid
    // combination, so the clause fails the check outright.
    if (nogood.lp_ray.size() !=
        static_cast<std::size_t>(model.constraint_count())) {
      return false;
    }
    CheckRow aggregated;
    aggregated.sense = lp::Sense::kLessEqual;
    std::map<int, double> acc;
    for (int i = 0; i < model.constraint_count(); ++i) {
      const double w = nogood.lp_ray[static_cast<std::size_t>(i)];
      const lp::Constraint& src = model.lp().constraint(i);
      if (src.sense == lp::Sense::kLessEqual && w < -1e-9) return false;
      if (src.sense == lp::Sense::kGreaterEqual && w > 1e-9) return false;
      if (w == 0.0) continue;
      for (const lp::Term& term : src.terms) {
        acc[term.variable] += w * term.coefficient;
      }
      aggregated.rhs += w * src.rhs;
    }
    if (nogood.lp_objective) {
      for (int j = 0; j < n; ++j) {
        const double c = model.lp().variable(j).objective;
        if (c != 0.0) acc[j] += c;
      }
      aggregated.rhs += nogood.cutoff;
    }
    for (const auto& [var, coefficient] : acc) {
      if (coefficient != 0.0) aggregated.terms.push_back({var, coefficient});
    }
    rows.push_back(std::move(aggregated));
  }
  if (nogood.bound_based) {
    // The ceil-strengthened objective cutoff the derivation relied on.
    CheckRow cutoff_row;
    cutoff_row.sense = lp::Sense::kLessEqual;
    cutoff_row.rhs = nogood.cutoff;
    for (int j = 0; j < n; ++j) {
      const double c = model.lp().variable(j).objective;
      if (c != 0.0) cutoff_row.terms.push_back({j, c});
    }
    if (!cutoff_row.terms.empty()) rows.push_back(std::move(cutoff_row));
  }
  // Earlier nogoods a 1-UIP resolution may have expanded through. A
  // bound-based antecedent is only usable when its cutoff is no tighter
  // than this nogood's own (cutoffs only tighten over a search, so every
  // antecedent qualifies; the guard makes the assumption explicit).
  std::vector<const Nogood*> usable;
  for (const Nogood& e : earlier) {
    if (!e.bound_based ||
        (nogood.bound_based && e.cutoff >= nogood.cutoff - 1e-9)) {
      usable.push_back(&e);
    }
  }

  for (int round = 0; round < 10000; ++round) {
    bool changed = false;
    for (const CheckRow& row : rows) {
      if (!checker_tighten(model, row, lower, upper, &changed)) return true;
    }
    for (const Nogood* e : usable) {
      if (!checker_apply_nogood(model, *e, lower, upper, &changed)) {
        return true;
      }
    }
    if (!changed) return false;
  }
  return false;
}

/// Observer that checks every learned nogood as it is emitted.
class CheckingObserver : public ConflictObserver {
 public:
  explicit CheckingObserver(std::string context) : context_(std::move(context)) {}

  void on_learned(const Model& model, const Nogood& nogood) override {
    ++seen_;
    EXPECT_FALSE(nogood.lits.empty()) << context_ << ": empty nogood";
    EXPECT_GE(nogood.lbd, 1) << context_;
    if (nogood.bound_based) {
      EXPECT_TRUE(std::isfinite(nogood.cutoff))
          << context_ << ": bound-based nogood without a cutoff";
    }
    if (nogood.lp_objective) {
      EXPECT_TRUE(nogood.bound_based)
          << context_ << ": lp_objective clause not marked bound-based";
      EXPECT_FALSE(nogood.lp_ray.empty())
          << context_ << ": lp_objective clause without a ray";
    }
    if (!checker_refutes(model, nogood, history_)) {
      ADD_FAILURE() << context_ << ": learned nogood #" << seen_
                    << " is not re-derivable from its antecedent rows ("
                    << nogood.lits.size() << " literals, lbd=" << nogood.lbd
                    << ", bound_based=" << nogood.bound_based << ")";
    }
    history_.push_back(nogood);
  }

  long seen() const { return seen_; }

 private:
  std::string context_;
  std::vector<Nogood> history_;
  long seen_ = 0;
};

// ------------------------------------------------------------- unit tests

TEST(ConflictEngineTest, RowConflictLearnsUipNogoodWithAssertion) {
  Model model;
  const int x = model.add_binary(0.0);
  const int y = model.add_binary(0.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGreaterEqual, 2.0);
  Propagator propagator(model);
  ConflictEngine engine(model, propagator, 100, nullptr);

  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0};
  // One decision: x = 0. Propagation forces y >= 2 -> empty domain.
  const auto outcome =
      engine.propagate_node({{x, 0.0, 0.0}}, lower, upper);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.bound_based);
  ASSERT_EQ(engine.pool().size(), 1u);
  const Nogood& learned = engine.pool().front();
  ASSERT_EQ(learned.lits.size(), 1u);
  EXPECT_EQ(learned.lits[0].var, x);
  EXPECT_FALSE(learned.lits[0].is_lower);
  EXPECT_EQ(learned.lits[0].value, 0.0);
  EXPECT_TRUE(outcome.has_assertion);
  EXPECT_EQ(outcome.assertion_level, 0);
  EXPECT_EQ(outcome.asserted.var, x);
  EXPECT_TRUE(outcome.asserted.is_lower);
  EXPECT_EQ(outcome.asserted.value, 1.0);
  EXPECT_TRUE(checker_refutes(model, learned, {}));
}

TEST(ConflictEngineTest, LearnedNogoodPropagatesAtLaterNodes) {
  // Rows chosen so the root fixpoint is trivial (no bound moves without a
  // decision): x + y >= 1 and y <= x. Branching x = 0 forces y <= 0, then
  // the covering row conflicts, learning {x <= 0}.
  Model model;
  const int x = model.add_binary(0.0);
  const int y = model.add_binary(0.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGreaterEqual, 1.0);
  model.add_constraint({{y, 1.0}, {x, -1.0}}, lp::Sense::kLessEqual, 0.0);
  Propagator propagator(model);
  ConflictEngine engine(model, propagator, 100, nullptr);

  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0};
  ASSERT_FALSE(engine.propagate_node({{x, 0.0, 0.0}}, lower, upper).feasible);
  ASSERT_EQ(engine.pool().size(), 1u);
  ASSERT_EQ(engine.pool().front().lits.size(), 1u);
  EXPECT_EQ(engine.pool().front().lits[0].var, x);

  // At a fresh decision-free node the learned {x <= 0} nogood is unit and
  // must force x = 1 (its negation) through pool propagation — the model
  // rows alone tighten nothing there.
  lower = {0.0, 0.0};
  upper = {1.0, 1.0};
  const auto outcome = engine.propagate_node({}, lower, upper);
  EXPECT_TRUE(outcome.feasible);
  EXPECT_EQ(lower[static_cast<std::size_t>(x)], 1.0);
  EXPECT_GE(engine.stats().nogood_propagations, 1L);
}

TEST(ConflictEngineTest, CutoffConflictIsBoundBasedAndRecordsCutoff) {
  Model model;
  const int x = model.add_binary(1.0);
  const int y = model.add_binary(1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGreaterEqual, 1.0);
  Propagator propagator(model);
  ConflictEngine engine(model, propagator, 100, nullptr);
  engine.set_cutoff(0.5);  // incumbent of 1 with an integral objective

  std::vector<double> lower = {0.0, 0.0};
  std::vector<double> upper = {1.0, 1.0};
  // x = 0 forces y >= 1; then the objective-cutoff row x + y <= 0.5 is
  // over-constrained -> a bound-based conflict.
  const auto outcome =
      engine.propagate_node({{x, 0.0, 0.0}}, lower, upper);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_TRUE(outcome.bound_based);
  ASSERT_EQ(engine.pool().size(), 1u);
  const Nogood& learned = engine.pool().front();
  EXPECT_TRUE(learned.bound_based);
  EXPECT_EQ(learned.cutoff, 0.5);
  EXPECT_TRUE(checker_refutes(model, learned, {}));
}

TEST(ConflictEngineTest, PoolDeletionKeepsMostActiveHalf) {
  // Learn many independent conflicts against a pool capped at 16: the
  // engine must evict down to half the cap and report the deletions.
  Model model;
  std::vector<int> xs, ys;
  for (int i = 0; i < 24; ++i) {
    const int x = model.add_binary(0.0);
    const int y = model.add_binary(0.0);
    model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGreaterEqual, 2.0);
    xs.push_back(x);
    ys.push_back(y);
  }
  Propagator propagator(model);
  ConflictEngine engine(model, propagator, 16, nullptr);
  std::vector<double> lower(48, 0.0);
  std::vector<double> upper(48, 1.0);
  for (int i = 0; i < 24; ++i) {
    std::fill(lower.begin(), lower.end(), 0.0);
    std::fill(upper.begin(), upper.end(), 1.0);
    const auto outcome =
        engine.propagate_node({{xs[static_cast<std::size_t>(i)], 0.0, 0.0}},
                              lower, upper);
    EXPECT_FALSE(outcome.feasible) << i;
  }
  EXPECT_EQ(engine.stats().nogoods_learned, 24L);
  EXPECT_GT(engine.stats().nogoods_deleted, 0L);
  EXPECT_LE(static_cast<int>(engine.pool().size()), 16);
}

TEST(ConflictEngineTest, PoolCapOfOneClampsToSixteen) {
  // A cap of one would evict on every second learn and leave the search
  // effectively memoryless; the engine clamps it to 16. Past that, the
  // pool reduces to its most active half, and every clause it keeps must
  // still be a checked refutation that propagates at a fresh node.
  Model model;
  std::vector<int> xs;
  for (int i = 0; i < 24; ++i) {
    const int x = model.add_binary(0.0);
    const int y = model.add_binary(0.0);
    model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGreaterEqual, 2.0);
    xs.push_back(x);
  }
  Propagator propagator(model);
  ConflictEngine engine(model, propagator, 1, nullptr);
  std::vector<double> lower(48, 0.0);
  std::vector<double> upper(48, 1.0);
  for (int i = 0; i < 24; ++i) {
    std::fill(lower.begin(), lower.end(), 0.0);
    std::fill(upper.begin(), upper.end(), 1.0);
    const ConflictEngine::Decision decision{xs[static_cast<std::size_t>(i)],
                                            0.0, 0.0};
    EXPECT_FALSE(engine.propagate_node({decision}, lower, upper).feasible)
        << i;
  }
  EXPECT_EQ(engine.stats().nogoods_learned, 24L);
  EXPECT_GT(engine.stats().nogoods_deleted, 0L);
  EXPECT_LE(static_cast<int>(engine.pool().size()), 16);
  EXPECT_GT(static_cast<int>(engine.pool().size()), 1);

  std::fill(lower.begin(), lower.end(), 0.0);
  std::fill(upper.begin(), upper.end(), 1.0);
  ASSERT_TRUE(engine.propagate_node({}, lower, upper).feasible);
  for (const Nogood& kept : engine.pool()) {
    EXPECT_TRUE(checker_refutes(model, kept, {}));
    ASSERT_EQ(kept.lits.size(), 1u);
    EXPECT_EQ(lower[static_cast<std::size_t>(kept.lits[0].var)], 1.0);
  }
}

// ------------------------------------------------------- LP-sourced clauses

/// Odd-hole instance whose s = 0 subtree is propagation-feasible but
/// LP-infeasible: the cyclic pairwise rows x_i + x_{i+1} <= 1 over five
/// binaries only admit sum x <= 2.5 fractionally, while the coverage row
/// demands sum x >= 3 - 5s. Single-constraint propagation cannot reason
/// across rows, and the hole has no clique beyond its edges for the root
/// clique cuts to add, so only the Farkas ray of the node LP can turn that
/// refutation into a clause — which must pass the extended explanation
/// checker and leave the optimum exactly where the learning-off search
/// finds it.
TEST(LpConflictTest, FarkasRefutationLearnsCheckedClause) {
  Model model;
  const int s = model.add_binary(2.0);
  std::vector<int> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(model.add_binary(-1.0));
  std::vector<lp::Term> coverage = {{s, 5.0}};
  for (int i = 0; i < 5; ++i) {
    const int x = xs[static_cast<std::size_t>(i)];
    const int next = xs[static_cast<std::size_t>((i + 1) % 5)];
    model.add_constraint({{x, 1.0}, {next, 1.0}}, lp::Sense::kLessEqual, 1.0);
    coverage.push_back({x, 1.0});
  }
  model.add_constraint(std::move(coverage), lp::Sense::kGreaterEqual, 3.0);

  for (const bool presolve : {false, true}) {
    CheckingObserver observer("farkas odd hole");
    Options on;
    on.presolve = presolve;
    // Input-order branching dives s = 0 first (s is var 0).
    on.conflict_observer = &observer;
    Options off = on;
    off.conflict_learning = false;
    off.conflict_observer = nullptr;

    const Result with = solve(model, on);
    const Result without = solve(model, off);
    ASSERT_EQ(with.status, ResultStatus::kOptimal) << presolve;
    ASSERT_EQ(without.status, ResultStatus::kOptimal) << presolve;
    EXPECT_EQ(with.objective, without.objective) << presolve;
    EXPECT_GE(with.lp_conflicts, 1L) << presolve;
    EXPECT_GE(with.lp_nogoods_learned, 1L) << presolve;
    EXPECT_GT(observer.seen(), 0L) << presolve;
  }
}

// ------------------------------------------------------------ fuzz drivers

/// Random MIP: every nogood learned while solving — LP-sourced ones
/// included, with their lp_ray re-derivation — must pass the checker, and
/// learning must not change the optimum.
void fuzz_mip(std::uint64_t seed) {
  common::Rng rng(seed);
  const Model model = test_support::random_mip(rng, /*cover_rows=*/3);
  CheckingObserver observer("mip seed=" + std::to_string(seed));
  Options learn;
  learn.conflict_observer = &observer;
  learn.conflict_backjumping = (seed % 2) == 0;  // cover both search shapes
  Options off = learn;
  off.conflict_learning = false;
  off.conflict_observer = nullptr;
  const Result with = solve(model, learn);
  const Result without = solve(model, off);
  ASSERT_EQ(with.status, without.status) << "seed=" << seed;
  if (with.status == ResultStatus::kOptimal) {
    EXPECT_EQ(with.objective, without.objective) << "seed=" << seed;
    EXPECT_TRUE(model.is_feasible(with.values, 1e-6)) << "seed=" << seed;
  }
}

/// Random small chain/cut-set instance through the full paper pipeline.
void fuzz_chain_instance(std::uint64_t seed) {
  common::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  const int rows = 2 + static_cast<int>(rng.next_below(2));
  const int cols = 2 + static_cast<int>(rng.next_below(2));
  const grid::ValveArray array = grid::full_array(rows, cols);
  CheckingObserver observer("chain seed=" + std::to_string(seed) + " " +
                            std::to_string(rows) + "x" +
                            std::to_string(cols));
  Options learn;
  learn.conflict_observer = &observer;
  learn.conflict_backjumping = rng.next_bool(0.5);
  Options off;
  off.conflict_learning = false;
  if (rng.next_bool(0.5)) {
    const bool masking = rng.next_bool(0.7);
    const auto with =
        core::find_minimum_cut_sets(array, 1, 8, masking, learn);
    const auto without =
        core::find_minimum_cut_sets(array, 1, 8, masking, off);
    ASSERT_EQ(with.has_value(), without.has_value()) << "seed=" << seed;
    if (with.has_value()) {
      EXPECT_EQ(with->cut_budget, without->cut_budget) << "seed=" << seed;
      EXPECT_EQ(with->proven_minimal, without->proven_minimal)
          << "seed=" << seed;
    }
  } else {
    const auto with = core::find_minimum_flow_paths(array, 1, 8, learn);
    const auto without = core::find_minimum_flow_paths(array, 1, 8, off);
    ASSERT_EQ(with.has_value(), without.has_value()) << "seed=" << seed;
    if (with.has_value()) {
      EXPECT_EQ(with->path_budget, without->path_budget) << "seed=" << seed;
      EXPECT_EQ(with->proven_minimal, without->proven_minimal)
          << "seed=" << seed;
    }
  }
}

TEST(ConflictExplanationTest, RandomMipsEveryNogoodChecks) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fuzz_mip(seed * 7907 + 11);
  }
}

TEST(ConflictExplanationTest, ChainAndCutSetInstancesEveryNogoodChecks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz_chain_instance(seed);
  }
}

// ---------------------------------------------------- learning differentials

/// Conflict learning off, on, and on with backjumping: optima bit-equal
/// in every cell.
TEST(ConflictDifferentialTest, OptimaIdenticalLearningOnAndOff) {
  for (int instance = 0; instance < 6; ++instance) {
    common::Rng rng(static_cast<std::uint64_t>(instance) * 48271 + 7);
    const Model model = test_support::random_mip(rng, /*cover_rows=*/3);
    Options off;
    off.conflict_learning = false;
    Options on;
    Options jumping;
    jumping.conflict_backjumping = true;
    const Result b = solve(model, off);
    for (const Options* config : {&on, &jumping}) {
      const Result a = solve(model, *config);
      ASSERT_EQ(a.status, b.status)
          << "instance " << instance << " jump "
          << config->conflict_backjumping;
      if (a.status == ResultStatus::kOptimal) {
        EXPECT_EQ(a.objective, b.objective)
            << "instance " << instance << " jump "
            << config->conflict_backjumping;
      }
    }
  }
}

/// Table-I preset and the paper's full arrays: budgets and certificates
/// must not depend on conflict learning (backjumping included — these
/// instances are small enough that even the dive-perturbing jumps close).
TEST(ConflictDifferentialTest, PresetBudgetsIdenticalLearningOnAndOff) {
  Options on;
  on.conflict_backjumping = true;
  Options off;
  off.conflict_learning = false;

  const grid::ValveArray table1 = grid::table1_array(5);
  const auto paths_on = core::find_minimum_flow_paths(table1, 1, 8, on);
  const auto paths_off = core::find_minimum_flow_paths(table1, 1, 8, off);
  ASSERT_TRUE(paths_on.has_value());
  ASSERT_TRUE(paths_off.has_value());
  EXPECT_EQ(paths_on->path_budget, paths_off->path_budget);
  EXPECT_EQ(paths_on->proven_minimal, paths_off->proven_minimal);

  for (const int n : {2, 3}) {
    const grid::ValveArray array = grid::full_array(n, n);
    const auto cuts_on = core::find_minimum_cut_sets(array, 1, 8, true, on);
    const auto cuts_off = core::find_minimum_cut_sets(array, 1, 8, true, off);
    ASSERT_TRUE(cuts_on.has_value()) << n;
    ASSERT_TRUE(cuts_off.has_value()) << n;
    EXPECT_EQ(cuts_on->cut_budget, cuts_off->cut_budget) << n;
    EXPECT_EQ(cuts_on->proven_minimal, cuts_off->proven_minimal) << n;
  }
}

/// The irregular array of examples/irregular_array.cpp (channels + a 2x2
/// obstacle): flow-path minima with learning on/off, with every learned
/// nogood checked.
TEST(ConflictDifferentialTest, IrregularArrayFlowPathsIdentical) {
  const std::string art =
      "+#+#+#+#+#+#+\n"
      "S.v.v.v.v.v.#\n"
      "+v+v+v+v+v+v+\n"
      "#.o.o.o.o.v.#\n"
      "+v+v+v+#+#+v+\n"
      "#.v.v.#####.#\n"
      "+v+v+v+#+#+v+\n"
      "#.v.v.#####.#\n"
      "+v+v+v+#+#+v+\n"
      "#.v.v.v.v.v.#\n"
      "+v+v+v+v+v+v+\n"
      "#.v.v.v.v.v.M\n"
      "+#+#+#+#+#+#+\n";
  const grid::ValveArray array = grid::parse_ascii(art);
  CheckingObserver observer("irregular array");
  Options on;
  on.conflict_observer = &observer;
  Options off;
  off.conflict_learning = false;
  const auto with = core::find_minimum_flow_paths(array, 1, 10, on);
  const auto without = core::find_minimum_flow_paths(array, 1, 10, off);
  ASSERT_TRUE(with.has_value());
  ASSERT_TRUE(without.has_value());
  EXPECT_EQ(with->path_budget, without->path_budget);
  EXPECT_EQ(with->proven_minimal, without->proven_minimal);
}

// ------------------------------------------------------- seeded fuzz entry

std::vector<std::uint64_t> configured_seeds() {
  std::vector<std::uint64_t> seeds;
  const auto parse_into = [&seeds](std::istream& in) {
    std::uint64_t seed = 0;
    while (in >> seed) seeds.push_back(seed);
  };
  if (const char* file = std::getenv("FPVA_CONFLICT_SEED_FILE")) {
    std::ifstream in(file);
    EXPECT_TRUE(in.good()) << "FPVA_CONFLICT_SEED_FILE unreadable: " << file;
    parse_into(in);
  }
  if (const char* inline_seeds = std::getenv("FPVA_CONFLICT_FUZZ_SEEDS")) {
    std::istringstream in(inline_seeds);
    parse_into(in);
  }
  return seeds;
}

// CI's sanitized fuzz step points FPVA_CONFLICT_SEED_FILE at the committed
// seed list (tests/conflict_fuzz_seeds.txt) and runs exactly this test;
// locally the test is a no-op unless seeds are configured.
TEST(ConflictFuzzTest, SeededSweep) {
  const std::vector<std::uint64_t> seeds = configured_seeds();
  for (const std::uint64_t seed : seeds) {
    fuzz_mip(seed);
    fuzz_chain_instance(seed % 97);
  }
}

}  // namespace
}  // namespace fpva::ilp

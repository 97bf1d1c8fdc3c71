#include "ilp/conflict.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace fpva::ilp {

namespace {

// Shared propagation tolerances (presolve.h): the explained propagation
// must deduce exactly what the plain Propagator deduces, or the learning-on
// search would diverge from the semantics the explanation checker replays.
constexpr double kFeasTol = kPropFeasTol;
constexpr double kImprove = kPropImprove;
constexpr double kIntTol = kPropIntTol;

}  // namespace

ConflictEngine::ConflictEngine(const Model& model,
                               const Propagator& propagator, int pool_cap,
                               ConflictObserver* observer)
    : model_(model),
      prop_(propagator),
      observer_(observer),
      pool_cap_(std::max(pool_cap, 16)),
      n_(propagator.variable_count()) {
  common::check(model.variable_count() == n_,
                "ConflictEngine: model/propagator arity mismatch");
  var_in_objective_.assign(static_cast<std::size_t>(n_), 0);
  for (int j = 0; j < n_; ++j) {
    const double c = model.lp().variable(j).objective;
    if (c != 0.0) {
      objective_terms_.push_back({j, c});
      var_in_objective_[static_cast<std::size_t>(j)] = 1;
    }
  }
  root_lower_.assign(static_cast<std::size_t>(n_), 0.0);
  root_upper_.assign(static_cast<std::size_t>(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    root_lower_[static_cast<std::size_t>(j)] = model.lp().variable(j).lower;
    root_upper_[static_cast<std::size_t>(j)] = model.lp().variable(j).upper;
  }
  pos_lower_.assign(static_cast<std::size_t>(n_), -1);
  pos_upper_.assign(static_cast<std::size_t>(n_), -1);
  row_dirty_.assign(static_cast<std::size_t>(prop_.row_count()), 0);
  var_nogoods_.resize(static_cast<std::size_t>(n_));
}

void ConflictEngine::set_root_bounds(const std::vector<double>& lower,
                                     const std::vector<double>& upper) {
  common::check(lower.size() == static_cast<std::size_t>(n_) &&
                    upper.size() == static_cast<std::size_t>(n_),
                "ConflictEngine::set_root_bounds: wrong arity");
  root_lower_ = lower;
  root_upper_ = upper;
}

// ------------------------------------------------------------------- trail

void ConflictEngine::reset_node_state() {
  trail_.clear();
  ante_.clear();
  ante_stage_.clear();
  std::fill(pos_lower_.begin(), pos_lower_.end(), -1);
  std::fill(pos_upper_.begin(), pos_upper_.end(), -1);
  conflict_lits_.clear();
  conflict_bound_based_ = false;
  conflict_nogood_ = -1;
  conflict_lp_ray_.clear();
  conflict_lp_objective_ = false;
  std::fill(row_dirty_.begin(), row_dirty_.end(), 0);
  dirty_rows_.clear();
  cutoff_dirty_ = std::isfinite(cutoff_) && !objective_terms_.empty();
  nogood_dirty_.assign(pool_.size(), 0);
  dirty_nogoods_.clear();
  for (const int g : root_unit_nogoods_) {
    nogood_dirty_[static_cast<std::size_t>(g)] = 1;
    dirty_nogoods_.push_back(g);
  }
}

int ConflictEngine::bound_pos(int var, bool is_lower) const {
  return is_lower ? pos_lower_[static_cast<std::size_t>(var)]
                  : pos_upper_[static_cast<std::size_t>(var)];
}

int ConflictEngine::bound_level(int var, bool is_lower) const {
  const int pos = bound_pos(var, is_lower);
  return pos < 0 ? 0 : trail_[static_cast<std::size_t>(pos)].level;
}

bool ConflictEngine::bound_is_bound_based(int var, bool is_lower) const {
  const int pos = bound_pos(var, is_lower);
  return pos >= 0 && trail_[static_cast<std::size_t>(pos)].bound_based;
}

void ConflictEngine::mark_var_dirty(int var) {
  const auto [begin, end] = prop_.rows_of(var);
  for (const int* r = begin; r != end; ++r) {
    if (!row_dirty_[static_cast<std::size_t>(*r)]) {
      row_dirty_[static_cast<std::size_t>(*r)] = 1;
      dirty_rows_.push_back(*r);
    }
  }
  if (var_in_objective_[static_cast<std::size_t>(var)] != 0 &&
      std::isfinite(cutoff_)) {
    cutoff_dirty_ = true;
  }
  for (const int g : var_nogoods_[static_cast<std::size_t>(var)]) {
    if (!nogood_dirty_[static_cast<std::size_t>(g)]) {
      nogood_dirty_[static_cast<std::size_t>(g)] = 1;
      dirty_nogoods_.push_back(g);
    }
  }
}

void ConflictEngine::push_entry(const BoundLit& lit, int reason_row,
                                int nogood_index, int decision_level) {
  TrailEntry entry;
  entry.lit = lit;
  entry.reason_row = reason_row;
  entry.nogood = nogood_index;
  entry.ante_begin = static_cast<int>(ante_.size());
  if (decision_level >= 0) {
    entry.level = decision_level;
  } else {
    for (const BoundLit& a : ante_stage_) {
      entry.level = std::max(entry.level, bound_level(a.var, a.is_lower));
    }
  }
  entry.bound_based =
      reason_row == kReasonCutoff ||
      (reason_row == kReasonNogood &&
       pool_[static_cast<std::size_t>(nogood_index)].bound_based);
  ante_.insert(ante_.end(), ante_stage_.begin(), ante_stage_.end());
  ante_stage_.clear();
  entry.ante_end = static_cast<int>(ante_.size());

  const auto v = static_cast<std::size_t>(lit.var);
  if (lit.is_lower) {
    entry.old_value = (*lower_)[v];
    entry.prev_pos = pos_lower_[v];
    pos_lower_[v] = static_cast<int>(trail_.size());
    (*lower_)[v] = lit.value;
  } else {
    entry.old_value = (*upper_)[v];
    entry.prev_pos = pos_upper_[v];
    pos_upper_[v] = static_cast<int>(trail_.size());
    (*upper_)[v] = lit.value;
  }
  trail_.push_back(entry);
  mark_var_dirty(lit.var);
}

// ------------------------------------------------------------- propagation

bool ConflictEngine::apply_decisions(
    const std::vector<Decision>& decisions) {
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    const int level = static_cast<int>(i) + 1;
    const auto v = static_cast<std::size_t>(d.var);
    if (d.lower > (*lower_)[v] + kImprove) {
      push_entry({d.var, true, d.lower}, kReasonDecision, -1, level);
    }
    if (d.upper < (*upper_)[v] - kImprove) {
      push_entry({d.var, false, d.upper}, kReasonDecision, -1, level);
    }
    if ((*lower_)[v] > (*upper_)[v] + kImprove) {
      // The decision emptied the domain outright (possible when branching
      // bounds riding a delta chain cross an asserted bound).
      conflict_lits_ = {{d.var, true, (*lower_)[v]},
                        {d.var, false, (*upper_)[v]}};
      conflict_bound_based_ = false;
      conflict_nogood_ = -1;
      return false;
    }
  }
  return true;
}

bool ConflictEngine::tighten_row(int row) {
  const auto [begin, end] = prop_.row_terms(row);
  return tighten_generic(begin, end, prop_.row_sense(row),
                         prop_.row_rhs(row), row);
}

bool ConflictEngine::tighten_cutoff_row() {
  return tighten_generic(objective_terms_.data(),
                         objective_terms_.data() + objective_terms_.size(),
                         lp::Sense::kLessEqual, cutoff_, kReasonCutoff);
}

bool ConflictEngine::tighten_generic(const lp::Term* begin,
                                     const lp::Term* end, lp::Sense sense,
                                     double rhs, int reason_row) {
  std::vector<double>& lower = *lower_;
  std::vector<double>& upper = *upper_;
  double min_activity = 0.0;
  double max_activity = 0.0;
  for (const lp::Term* t = begin; t != end; ++t) {
    const auto v = static_cast<std::size_t>(t->variable);
    const double a = t->coefficient;
    min_activity += std::min(a * lower[v], a * upper[v]);
    max_activity += std::max(a * lower[v], a * upper[v]);
  }
  const bool upper_active = sense != lp::Sense::kGreaterEqual;  // <= rhs
  const bool lower_active = sense != lp::Sense::kLessEqual;     // >= rhs

  // Explains the min-activity (resp. max-activity) side of the row: the
  // bound of each term that its activity contribution came from.
  const auto explain_activity = [&](bool min_side) {
    for (const lp::Term* t = begin; t != end; ++t) {
      const auto v = static_cast<std::size_t>(t->variable);
      const bool use_lower = (t->coefficient > 0.0) == min_side;
      conflict_lits_.push_back(
          {t->variable, use_lower, use_lower ? lower[v] : upper[v]});
    }
  };
  if (upper_active && min_activity > rhs + kFeasTol) {
    conflict_lits_.clear();
    explain_activity(/*min_side=*/true);
    conflict_bound_based_ = reason_row == kReasonCutoff;
    conflict_nogood_ = -1;
    return false;
  }
  if (lower_active && max_activity < rhs - kFeasTol) {
    conflict_lits_.clear();
    explain_activity(/*min_side=*/false);
    conflict_bound_based_ = reason_row == kReasonCutoff;
    conflict_nogood_ = -1;
    return false;
  }

  // Stages the antecedents of a deduction on `skip`: the activity-side
  // bounds of every other term of the row.
  const auto stage_antecedents = [&](const lp::Term* skip, bool min_side) {
    ante_stage_.clear();
    for (const lp::Term* t = begin; t != end; ++t) {
      if (t == skip) continue;
      const auto v = static_cast<std::size_t>(t->variable);
      const bool use_lower = (t->coefficient > 0.0) == min_side;
      ante_stage_.push_back(
          {t->variable, use_lower, use_lower ? lower[v] : upper[v]});
    }
  };

  for (const lp::Term* t = begin; t != end; ++t) {
    const auto v = static_cast<std::size_t>(t->variable);
    const double a = t->coefficient;
    if (a == 0.0) continue;
    const double contrib_min = std::min(a * lower[v], a * upper[v]);
    const double contrib_max = std::max(a * lower[v], a * upper[v]);
    double new_lo = lower[v];
    double new_hi = upper[v];
    // Which reading produced each side (for antecedent staging): the <=
    // reading tightens against the min activity of the other terms, the >=
    // reading against their max activity.
    bool lo_from_min_side = false;
    bool hi_from_min_side = false;
    bool lo_deduced = false;
    bool hi_deduced = false;
    if (upper_active) {
      const double headroom = rhs - (min_activity - contrib_min);
      if (a > 0.0) {
        if (headroom / a < new_hi) {
          new_hi = headroom / a;
          hi_from_min_side = true;
          hi_deduced = true;
        }
      } else {
        if (headroom / a > new_lo) {
          new_lo = headroom / a;
          lo_from_min_side = true;
          lo_deduced = true;
        }
      }
    }
    if (lower_active) {
      const double need = rhs - (max_activity - contrib_max);
      if (a > 0.0) {
        if (need / a > new_lo) {
          new_lo = need / a;
          lo_from_min_side = false;
          lo_deduced = true;
        }
      } else {
        if (need / a < new_hi) {
          new_hi = need / a;
          hi_from_min_side = false;
          hi_deduced = true;
        }
      }
    }
    if (new_lo <= lower[v] + kImprove && new_hi >= upper[v] - kImprove) {
      continue;
    }
    round_integer_bounds(prop_.is_integer(t->variable), new_lo, new_hi);
    if (new_lo > lower[v] + kImprove || new_hi < upper[v] - kImprove) {
      if (new_lo > new_hi + kImprove) {
        // Emptied domain: justify each side by its reading's antecedents
        // (or by the pre-existing bound when that side was not deduced).
        conflict_lits_.clear();
        if (new_lo > lower[v] + kImprove && lo_deduced) {
          stage_antecedents(t, lo_from_min_side);
          conflict_lits_.insert(conflict_lits_.end(), ante_stage_.begin(),
                                ante_stage_.end());
          ante_stage_.clear();
        } else {
          conflict_lits_.push_back({t->variable, true, lower[v]});
        }
        if (new_hi < upper[v] - kImprove && hi_deduced) {
          stage_antecedents(t, hi_from_min_side);
          conflict_lits_.insert(conflict_lits_.end(), ante_stage_.begin(),
                                ante_stage_.end());
          ante_stage_.clear();
        } else {
          conflict_lits_.push_back({t->variable, false, upper[v]});
        }
        conflict_bound_based_ = reason_row == kReasonCutoff;
        conflict_nogood_ = -1;
        return false;
      }
      const double applied_lo = std::min(new_lo, new_hi);
      const double applied_hi = std::max(new_lo, new_hi);
      if (applied_lo > lower[v] + kImprove) {
        if (lo_deduced) {
          stage_antecedents(t, lo_from_min_side);
        } else {
          // Integer-rounding-only improvement: justified by the variable's
          // own previous bound (plus integrality), not by the row.
          ante_stage_.clear();
          ante_stage_.push_back({t->variable, true, lower[v]});
        }
        push_entry({t->variable, true, applied_lo}, reason_row, -1, -1);
      } else {
        lower[v] = std::min(lower[v], applied_lo);  // FP-noise clamp only
      }
      if (applied_hi < upper[v] - kImprove) {
        if (hi_deduced) {
          stage_antecedents(t, hi_from_min_side);
        } else {
          ante_stage_.clear();
          ante_stage_.push_back({t->variable, false, upper[v]});
        }
        push_entry({t->variable, false, applied_hi}, reason_row, -1, -1);
      } else {
        upper[v] = std::max(upper[v], applied_hi);
      }
      // Keep this row's activities in sync with the bounds just applied
      // (the plain propagator recomputes them on the next dirty sweep; we
      // finish the current sweep with updated contributions).
      const double nmin = std::min(a * lower[v], a * upper[v]);
      const double nmax = std::max(a * lower[v], a * upper[v]);
      min_activity += nmin - contrib_min;
      max_activity += nmax - contrib_max;
    }
  }
  return true;
}

bool ConflictEngine::apply_nogood(int index) {
  const Nogood& ng = pool_[static_cast<std::size_t>(index)];
  const std::vector<double>& lower = *lower_;
  const std::vector<double>& upper = *upper_;
  int free_count = 0;
  int free_index = -1;
  for (std::size_t i = 0; i < ng.lits.size(); ++i) {
    const BoundLit& lit = ng.lits[i];
    const auto v = static_cast<std::size_t>(lit.var);
    const bool satisfied = lit.is_lower ? lower[v] >= lit.value - kImprove
                                        : upper[v] <= lit.value + kImprove;
    if (satisfied) continue;
    const bool falsified = lit.is_lower ? upper[v] < lit.value - kImprove
                                        : lower[v] > lit.value + kImprove;
    if (falsified) return true;  // inactive under this node's bounds
    ++free_count;
    free_index = static_cast<int>(i);
    if (free_count > 1) return true;
  }
  if (free_count == 0) {
    // Every condition holds: the node is inside the refuted region.
    conflict_lits_ = ng.lits;
    conflict_bound_based_ = ng.bound_based;
    conflict_nogood_ = index;
    return false;
  }
  // Unit: every other condition holds, so the free one must fail. Only
  // integer bounds have a clean negation (x >= v  ->  x <= v - 1).
  const BoundLit& free = ng.lits[static_cast<std::size_t>(free_index)];
  if (!prop_.is_integer(free.var)) return true;
  if (std::abs(free.value - std::round(free.value)) > kIntTol) return true;
  BoundLit implied;
  implied.var = free.var;
  implied.is_lower = !free.is_lower;
  implied.value = free.is_lower ? std::round(free.value) - 1.0
                                : std::round(free.value) + 1.0;
  const auto v = static_cast<std::size_t>(free.var);
  const bool improves = implied.is_lower
                            ? implied.value > lower[v] + kImprove
                            : implied.value < upper[v] - kImprove;
  if (!improves) return true;
  ante_stage_.clear();
  for (std::size_t i = 0; i < ng.lits.size(); ++i) {
    if (static_cast<int>(i) != free_index) ante_stage_.push_back(ng.lits[i]);
  }
  push_entry(implied, kReasonNogood, index, -1);
  ++stats_.nogood_propagations;
  if ((*lower_)[v] > (*upper_)[v] + kImprove) {
    conflict_lits_ = {{free.var, true, (*lower_)[v]},
                      {free.var, false, (*upper_)[v]}};
    conflict_bound_based_ = false;
    conflict_nogood_ = index;
    return false;
  }
  return true;
}

bool ConflictEngine::propagate_rows_and_pool() {
  for (int round = 0; round < kPropMaxRounds; ++round) {
    bool any = false;
    if (!dirty_rows_.empty()) {
      any = true;
      // Deterministic: ascending row order per sweep, like the plain
      // propagator.
      std::sort(dirty_rows_.begin(), dirty_rows_.end());
      row_scratch_.clear();
      row_scratch_.swap(dirty_rows_);
      for (const int row : row_scratch_) {
        row_dirty_[static_cast<std::size_t>(row)] = 0;
      }
      for (const int row : row_scratch_) {
        if (!tighten_row(row)) return false;
      }
    }
    if (cutoff_dirty_) {
      cutoff_dirty_ = false;
      if (std::isfinite(cutoff_) && !objective_terms_.empty()) {
        any = true;
        if (!tighten_cutoff_row()) return false;
      }
    }
    if (!dirty_nogoods_.empty()) {
      any = true;
      std::sort(dirty_nogoods_.begin(), dirty_nogoods_.end());
      nogood_scratch_.clear();
      nogood_scratch_.swap(dirty_nogoods_);
      for (const int g : nogood_scratch_) {
        nogood_dirty_[static_cast<std::size_t>(g)] = 0;
      }
      for (const int g : nogood_scratch_) {
        if (!apply_nogood(g)) return false;
      }
    }
    if (!any) break;
  }
  return true;
}

// ---------------------------------------------------------------- analysis

bool ConflictEngine::root_satisfies(const BoundLit& lit) const {
  const auto v = static_cast<std::size_t>(lit.var);
  return lit.is_lower ? root_lower_[v] >= lit.value - kImprove
                      : root_upper_[v] <= lit.value + kImprove;
}

int ConflictEngine::establishing_pos(const BoundLit& lit) const {
  int pos = bound_pos(lit.var, lit.is_lower);
  while (pos >= 0) {
    const TrailEntry& e = trail_[static_cast<std::size_t>(pos)];
    const bool old_satisfies = lit.is_lower
                                   ? e.old_value >= lit.value - kImprove
                                   : e.old_value <= lit.value + kImprove;
    if (!old_satisfies) return pos;
    pos = e.prev_pos;
  }
  return -1;
}

void ConflictEngine::resolve_add(const BoundLit& lit) {
  if (root_satisfies(lit)) return;  // globally true: never enters a nogood
  const int pos = establishing_pos(lit);
  if (pos < 0) return;  // defensive: nothing on the trail implies it
  const auto p = static_cast<std::size_t>(pos);
  if (marked_[p] != 0) {
    required_[p] = lit.is_lower ? std::max(required_[p], lit.value)
                                : std::min(required_[p], lit.value);
    return;
  }
  marked_[p] = 1;
  required_[p] = lit.value;
  marked_list_.push_back(pos);
  if (trail_[p].level == analysis_level_) ++count_top_;
}

ConflictEngine::NodeOutcome ConflictEngine::analyze() {
  if (lp_conflict_mode_) {
    ++stats_.lp_conflicts;
  } else {
    ++stats_.conflicts;
  }
  NodeOutcome out;
  out.feasible = false;
  bool bound_based = conflict_bound_based_;
  if (conflict_nogood_ >= 0) bump(conflict_nogood_);

  analysis_level_ = 0;
  for (const BoundLit& lit : conflict_lits_) {
    if (root_satisfies(lit)) continue;
    const int pos = establishing_pos(lit);
    if (pos >= 0) {
      analysis_level_ = std::max(
          analysis_level_, trail_[static_cast<std::size_t>(pos)].level);
    }
  }
  if (analysis_level_ == 0) {
    // The refutation is independent of every decision: nothing to learn,
    // and (when bound-based) nothing below the root can improve the
    // incumbent — the caller's normal pruning drains the search.
    out.bound_based = bound_based;
    decay_activity();
    return out;
  }

  marked_.assign(trail_.size(), 0);
  required_.assign(trail_.size(), 0.0);
  marked_list_.clear();
  count_top_ = 0;
  for (const BoundLit& lit : conflict_lits_) resolve_add(lit);

  // Resolve backwards to the first UIP: while more than one contribution
  // from the analysis level remains, replace the chronologically latest
  // one with its antecedents. Decisions are never expanded — they sit at
  // the lowest trail positions, so when the cursor reaches one, every
  // remaining analysis-level contribution is a decision bound (a branching
  // delta can tighten both sides of one variable at one level) and the
  // clause keeps them all, forfeiting the single-UIP assertion.
  int cursor = static_cast<int>(trail_.size()) - 1;
  int uip_pos = -1;
  while (count_top_ > 0) {
    while (cursor >= 0 &&
           !(marked_[static_cast<std::size_t>(cursor)] != 0 &&
             trail_[static_cast<std::size_t>(cursor)].level ==
                 analysis_level_)) {
      --cursor;
    }
    common::check(cursor >= 0, "conflict analysis lost the UIP");
    const TrailEntry& e = trail_[static_cast<std::size_t>(cursor)];
    if (count_top_ == 1) {
      uip_pos = cursor;
      break;
    }
    if (e.reason_row == kReasonDecision) break;
    marked_[static_cast<std::size_t>(cursor)] = 0;
    --count_top_;
    bound_based = bound_based || e.bound_based;
    if (e.reason_row == kReasonNogood) bump(e.nogood);
    for (int k = e.ante_begin; k < e.ante_end; ++k) {
      resolve_add(ante_[static_cast<std::size_t>(k)]);
    }
    --cursor;
  }

  // Collect the clause: one literal per still-marked entry, merged to the
  // tightest requirement per (variable, side).
  Nogood nogood;
  nogood.bound_based = bound_based;
  if (bound_based) nogood.cutoff = cutoff_;
  nogood.lp_ray = conflict_lp_ray_;
  nogood.lp_objective = conflict_lp_objective_;
  std::vector<int> lit_levels;
  int uip_lit = -1;
  for (const int pos : marked_list_) {
    const auto p = static_cast<std::size_t>(pos);
    if (marked_[p] == 0) continue;
    const TrailEntry& e = trail_[p];
    const BoundLit lit{e.lit.var, e.lit.is_lower, required_[p]};
    int found = -1;
    for (std::size_t i = 0; i < nogood.lits.size(); ++i) {
      if (nogood.lits[i].var == lit.var &&
          nogood.lits[i].is_lower == lit.is_lower) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found >= 0) {
      // Keep the tighter requirement (it implies the looser one).
      const bool tighter = lit.is_lower
                               ? lit.value > nogood.lits[
                                     static_cast<std::size_t>(found)].value
                               : lit.value < nogood.lits[
                                     static_cast<std::size_t>(found)].value;
      if (tighter) {
        nogood.lits[static_cast<std::size_t>(found)] = lit;
        lit_levels[static_cast<std::size_t>(found)] = e.level;
        if (pos == uip_pos) uip_lit = found;
      }
      continue;
    }
    if (pos == uip_pos) uip_lit = static_cast<int>(nogood.lits.size());
    nogood.lits.push_back(lit);
    lit_levels.push_back(e.level);
  }

  // Literal-block distance: distinct decision levels across the clause.
  std::vector<int> levels = lit_levels;
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  nogood.lbd = static_cast<int>(levels.size());

  out.bound_based = bound_based;
  if (uip_pos >= 0 && uip_lit >= 0) {
    const BoundLit& uip = nogood.lits[static_cast<std::size_t>(uip_lit)];
    int assertion_level = 0;
    for (std::size_t i = 0; i < nogood.lits.size(); ++i) {
      if (static_cast<int>(i) == uip_lit) continue;
      assertion_level = std::max(assertion_level, lit_levels[i]);
    }
    if (prop_.is_integer(uip.var) &&
        std::abs(uip.value - std::round(uip.value)) <= kIntTol) {
      out.has_assertion = true;
      out.assertion_level = assertion_level;
      out.asserted.var = uip.var;
      out.asserted.is_lower = !uip.is_lower;
      out.asserted.value = uip.is_lower ? std::round(uip.value) - 1.0
                                        : std::round(uip.value) + 1.0;
    }
  }
  if (!nogood.lits.empty()) {
    // Canonical order for duplicate detection and stable test output.
    std::sort(nogood.lits.begin(), nogood.lits.end(),
              [](const BoundLit& a, const BoundLit& b) {
                if (a.var != b.var) return a.var < b.var;
                if (a.is_lower != b.is_lower) return a.is_lower < b.is_lower;
                return a.value < b.value;
              });
    const int duplicate = find_duplicate(nogood);
    if (duplicate >= 0) {
      // The clause already exists: this conflict is a re-derivation (the
      // pool nogood fired with every literal re-established before its
      // unit step could assert). Backjumping again would re-push the same
      // prefix node and cycle forever — fall back to the plain DFS
      // backtrack, which always progresses, and keep the clause hot.
      bump(duplicate);
      out.has_assertion = false;
    } else {
      learn(std::move(nogood));
    }
  }
  decay_activity();
  return out;
}

// -------------------------------------------------------------------- pool

void ConflictEngine::decay_activity() {
  // MiniSat-style decay: the increment grows instead of every activity
  // shrinking. Rescale here too — bump() only fires when a nogood was a
  // conflict reason, so row-conflict-heavy searches would otherwise grow
  // the increment to +inf with no recovery.
  activity_inc_ /= 0.95;
  if (activity_inc_ > 1e100) {
    for (Nogood& other : pool_) other.activity *= 1e-100;
    activity_inc_ *= 1e-100;
  }
}

void ConflictEngine::bump(int nogood_index) {
  Nogood& ng = pool_[static_cast<std::size_t>(nogood_index)];
  ng.activity += activity_inc_;
  if (ng.activity > 1e100) {
    for (Nogood& other : pool_) other.activity *= 1e-100;
    activity_inc_ *= 1e-100;
  }
}

void ConflictEngine::register_nogood(int index) {
  const Nogood& ng = pool_[static_cast<std::size_t>(index)];
  for (const BoundLit& lit : ng.lits) {
    var_nogoods_[static_cast<std::size_t>(lit.var)].push_back(index);
  }
  if (ng.lits.size() == 1) root_unit_nogoods_.push_back(index);
  nogood_dirty_.resize(pool_.size(), 0);
}

void ConflictEngine::rebuild_incidence() {
  for (std::vector<int>& list : var_nogoods_) list.clear();
  root_unit_nogoods_.clear();
  for (std::size_t g = 0; g < pool_.size(); ++g) {
    for (const BoundLit& lit : pool_[g].lits) {
      var_nogoods_[static_cast<std::size_t>(lit.var)].push_back(
          static_cast<int>(g));
    }
    if (pool_[g].lits.size() == 1) {
      root_unit_nogoods_.push_back(static_cast<int>(g));
    }
  }
  nogood_dirty_.assign(pool_.size(), 0);
}

std::vector<double> ConflictEngine::signature(const Nogood& nogood) {
  std::vector<double> key;
  key.reserve(nogood.lits.size() * 3);
  for (const BoundLit& lit : nogood.lits) {
    key.push_back(static_cast<double>(lit.var));
    key.push_back(lit.is_lower ? 1.0 : 0.0);
    key.push_back(lit.value);
  }
  return key;
}

int ConflictEngine::find_duplicate(const Nogood& nogood) const {
  const auto it = sig_to_index_.find(signature(nogood));
  return it == sig_to_index_.end() ? -1 : it->second;
}

void ConflictEngine::learn(Nogood nogood) {
  if (observer_ != nullptr) observer_->on_learned(model_, nogood);
  nogood.activity = activity_inc_;
  sig_to_index_[signature(nogood)] = static_cast<int>(pool_.size());
  pool_.push_back(std::move(nogood));
  register_nogood(static_cast<int>(pool_.size()) - 1);
  ++stats_.nogoods_learned;
}

bool ConflictEngine::import_nogood(const Nogood& nogood) {
  if (nogood.lits.empty()) return false;
  if (find_duplicate(nogood) >= 0) return false;
  Nogood copy = nogood;
  copy.activity = activity_inc_;
  sig_to_index_[signature(copy)] = static_cast<int>(pool_.size());
  pool_.push_back(std::move(copy));
  register_nogood(static_cast<int>(pool_.size()) - 1);
  ++stats_.nogoods_imported;
  if (static_cast<int>(pool_.size()) > pool_cap_) reduce_pool();
  return true;
}

void ConflictEngine::reduce_pool() {
  // Keep the most active half; ties favour low LBD, then short clauses,
  // then age. Runs only between nodes (trail reason indices are dead).
  std::vector<int> order(pool_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Nogood& na = pool_[static_cast<std::size_t>(a)];
    const Nogood& nb = pool_[static_cast<std::size_t>(b)];
    if (na.activity != nb.activity) return na.activity > nb.activity;
    if (na.lbd != nb.lbd) return na.lbd < nb.lbd;
    if (na.lits.size() != nb.lits.size()) {
      return na.lits.size() < nb.lits.size();
    }
    return a < b;
  });
  const std::size_t keep = static_cast<std::size_t>(pool_cap_) / 2;
  order.resize(std::min(order.size(), keep));
  std::sort(order.begin(), order.end());  // preserve age order in the pool
  std::vector<Nogood> kept;
  kept.reserve(order.size());
  for (const int i : order) {
    kept.push_back(std::move(pool_[static_cast<std::size_t>(i)]));
  }
  stats_.nogoods_deleted += static_cast<long>(pool_.size() - kept.size());
  pool_ = std::move(kept);
  rebuild_incidence();
  sig_to_index_.clear();
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    sig_to_index_[signature(pool_[i])] = static_cast<int>(i);
  }
}

// -------------------------------------------------------------- node entry

ConflictEngine::NodeOutcome ConflictEngine::propagate_node(
    const std::vector<Decision>& decisions, std::vector<double>& lower,
    std::vector<double>& upper) {
  common::check(lower.size() == static_cast<std::size_t>(n_) &&
                    upper.size() == static_cast<std::size_t>(n_),
                "ConflictEngine::propagate_node: wrong arity");
  lower_ = &lower;
  upper_ = &upper;
  reset_node_state();
  if (decisions.empty()) {
    // Mirror the plain propagator's empty-seeds semantics: a decision-free
    // node (the root when the cut stage changed the model, or a backjump
    // to assertion level 0) sweeps every row and every nogood once —
    // nothing else would dirty them.
    for (int row = 0; row < prop_.row_count(); ++row) {
      row_dirty_[static_cast<std::size_t>(row)] = 1;
      dirty_rows_.push_back(row);
    }
    for (std::size_t g = 0; g < pool_.size(); ++g) {
      if (!nogood_dirty_[g]) {
        nogood_dirty_[g] = 1;
        dirty_nogoods_.push_back(static_cast<int>(g));
      }
    }
  }
  NodeOutcome out;
  if (!apply_decisions(decisions) || !propagate_rows_and_pool()) {
    out = analyze();
  }
  lower_ = nullptr;
  upper_ = nullptr;
  if (static_cast<int>(pool_.size()) > pool_cap_) reduce_pool();
  return out;
}

ConflictEngine::NodeOutcome ConflictEngine::analyze_lp_refutation(
    std::vector<BoundLit> lits, bool bound_based,
    std::vector<double> lp_ray, bool lp_objective,
    std::vector<double>& lower, std::vector<double>& upper) {
  common::check(lower.size() == static_cast<std::size_t>(n_) &&
                    upper.size() == static_cast<std::size_t>(n_),
                "ConflictEngine::analyze_lp_refutation: wrong arity");
  common::check(!lp_objective || bound_based,
                "analyze_lp_refutation: objective weight implies bound_based");
  // Re-enter the trail the preceding propagate_node left behind: the LP's
  // conflicting bound set resolves against those implications exactly like
  // a propagation conflict found at the fixpoint would.
  lower_ = &lower;
  upper_ = &upper;
  conflict_lits_ = std::move(lits);
  conflict_bound_based_ = bound_based;
  conflict_nogood_ = -1;
  conflict_lp_ray_ = std::move(lp_ray);
  conflict_lp_objective_ = lp_objective;
  lp_conflict_mode_ = true;
  NodeOutcome out = analyze();
  lp_conflict_mode_ = false;
  conflict_lp_ray_.clear();
  conflict_lp_objective_ = false;
  conflict_lits_.clear();
  lower_ = nullptr;
  upper_ = nullptr;
  if (static_cast<int>(pool_.size()) > pool_cap_) reduce_pool();
  return out;
}

}  // namespace fpva::ilp

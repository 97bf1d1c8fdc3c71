#include "ilp/presolve.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/logging.h"

namespace fpva::ilp {

namespace {

// Local aliases of the shared propagation tolerances (presolve.h), which
// also provides the shared round_integer_bounds helper.
constexpr double kFeasTol = kPropFeasTol;
constexpr double kImprove = kPropImprove;
constexpr double kIntTol = kPropIntTol;
constexpr int kMaxRounds = kPropMaxRounds;

constexpr int kMaxCliques = 4096;  ///< table cap after dominance filtering
/// Above this many conflict-bitset bytes, extension/dominance is skipped
/// (the raw cliques are still returned).
constexpr std::size_t kMaxAdjacencyBytes = 64u << 20;

}  // namespace

// ---------------------------------------------------------------- Propagator

Propagator::Propagator(const Model& model) {
  variable_count_ = model.variable_count();
  const int m = model.constraint_count();
  integer_.resize(static_cast<std::size_t>(variable_count_));
  for (int j = 0; j < variable_count_; ++j) {
    integer_[static_cast<std::size_t>(j)] = model.is_integer(j) ? 1 : 0;
  }

  // Merge duplicate terms per row through a stamped dense accumulator (no
  // per-row allocations), writing straight into the CSR arenas.
  row_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  row_sense_.resize(static_cast<std::size_t>(m));
  row_rhs_.resize(static_cast<std::size_t>(m));
  std::vector<int> stamp(static_cast<std::size_t>(variable_count_), -1);
  std::vector<double> acc(static_cast<std::size_t>(variable_count_), 0.0);
  for (int i = 0; i < m; ++i) {
    const lp::Constraint& src = model.lp().constraint(i);
    row_sense_[static_cast<std::size_t>(i)] = src.sense;
    row_rhs_[static_cast<std::size_t>(i)] = src.rhs;
    for (const lp::Term& term : src.terms) {
      const auto v = static_cast<std::size_t>(term.variable);
      if (stamp[v] != i) {
        stamp[v] = i;
        acc[v] = term.coefficient;
        ++row_start_[static_cast<std::size_t>(i) + 1];
      } else {
        acc[v] += term.coefficient;
      }
    }
  }
  for (int i = 0; i < m; ++i) {
    row_start_[static_cast<std::size_t>(i) + 1] +=
        row_start_[static_cast<std::size_t>(i)];
  }
  row_terms_.resize(static_cast<std::size_t>(row_start_[
      static_cast<std::size_t>(m)]));
  std::fill(stamp.begin(), stamp.end(), -1);
  std::vector<int> fill = row_start_;
  for (int i = 0; i < m; ++i) {
    const lp::Constraint& src = model.lp().constraint(i);
    for (const lp::Term& term : src.terms) {
      const auto v = static_cast<std::size_t>(term.variable);
      if (stamp[v] != i) {
        stamp[v] = i;
        acc[v] = term.coefficient;
        row_terms_[static_cast<std::size_t>(fill[static_cast<std::size_t>(
            i)]++)] = {term.variable, 0.0};
      } else {
        acc[v] += term.coefficient;
      }
    }
    for (int k = row_start_[static_cast<std::size_t>(i)];
         k < row_start_[static_cast<std::size_t>(i) + 1]; ++k) {
      lp::Term& term = row_terms_[static_cast<std::size_t>(k)];
      term.coefficient = acc[static_cast<std::size_t>(term.variable)];
    }
  }

  // Variable -> row incidence, CSR over the merged terms.
  var_start_.assign(static_cast<std::size_t>(variable_count_) + 1, 0);
  for (const lp::Term& term : row_terms_) {
    ++var_start_[static_cast<std::size_t>(term.variable) + 1];
  }
  for (int j = 0; j < variable_count_; ++j) {
    var_start_[static_cast<std::size_t>(j) + 1] +=
        var_start_[static_cast<std::size_t>(j)];
  }
  var_rows_.resize(row_terms_.size());
  std::vector<int> vfill = var_start_;
  for (int i = 0; i < m; ++i) {
    for (int k = row_start_[static_cast<std::size_t>(i)];
         k < row_start_[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto v = static_cast<std::size_t>(
          row_terms_[static_cast<std::size_t>(k)].variable);
      var_rows_[static_cast<std::size_t>(vfill[v]++)] = i;
    }
  }
}

bool Propagator::tighten_row(int row_index, std::vector<double>& lower,
                             std::vector<double>& upper,
                             std::vector<char>& row_dirty,
                             std::vector<int>& dirty_rows) const {
  const auto is = static_cast<std::size_t>(row_index);
  const int term_begin = row_start_[is];
  const int term_end = row_start_[is + 1];
  const double rhs = row_rhs_[is];
  double min_activity = 0.0;
  double max_activity = 0.0;
  for (int k = term_begin; k < term_end; ++k) {
    const lp::Term& term = row_terms_[static_cast<std::size_t>(k)];
    const auto v = static_cast<std::size_t>(term.variable);
    const double a = term.coefficient;
    min_activity += std::min(a * lower[v], a * upper[v]);
    max_activity += std::max(a * lower[v], a * upper[v]);
  }

  const bool upper_active =
      row_sense_[is] != lp::Sense::kGreaterEqual;  // <= rhs
  const bool lower_active = row_sense_[is] != lp::Sense::kLessEqual;  // >= rhs
  if (upper_active && min_activity > rhs + kFeasTol) return false;
  if (lower_active && max_activity < rhs - kFeasTol) return false;

  for (int k = term_begin; k < term_end; ++k) {
    const lp::Term& term = row_terms_[static_cast<std::size_t>(k)];
    const auto v = static_cast<std::size_t>(term.variable);
    const double a = term.coefficient;
    if (a == 0.0) continue;
    const double contrib_min = std::min(a * lower[v], a * upper[v]);
    const double contrib_max = std::max(a * lower[v], a * upper[v]);
    double new_lo = lower[v];
    double new_hi = upper[v];
    if (upper_active) {
      // a*x <= rhs - (min activity of the other terms)
      const double headroom = rhs - (min_activity - contrib_min);
      if (a > 0.0) {
        new_hi = std::min(new_hi, headroom / a);
      } else {
        new_lo = std::max(new_lo, headroom / a);
      }
    }
    if (lower_active) {
      // a*x >= rhs - (max activity of the other terms)
      const double need = rhs - (max_activity - contrib_max);
      if (a > 0.0) {
        new_lo = std::max(new_lo, need / a);
      } else {
        new_hi = std::min(new_hi, need / a);
      }
    }
    // Cheap pre-check before paying for ceil/floor: rounding only shrinks
    // the interval, so a candidate that does not improve the raw bounds
    // cannot improve the rounded ones either (integer bounds are integral).
    if (new_lo <= lower[v] + kImprove && new_hi >= upper[v] - kImprove) {
      continue;
    }
    round_integer_bounds(integer_[v] != 0, new_lo, new_hi);
    if (new_lo > lower[v] + kImprove || new_hi < upper[v] - kImprove) {
      if (new_lo > new_hi + kImprove) return false;
      // Keep the interval well-formed under floating point noise.
      lower[v] = std::min(new_lo, new_hi);
      upper[v] = std::max(new_lo, new_hi);
      for (int r = var_start_[v]; r < var_start_[v + 1]; ++r) {
        const int other = var_rows_[static_cast<std::size_t>(r)];
        if (!row_dirty[static_cast<std::size_t>(other)]) {
          row_dirty[static_cast<std::size_t>(other)] = 1;
          dirty_rows.push_back(other);
        }
      }
    }
  }
  return true;
}

bool Propagator::propagate(std::vector<double>& lower,
                           std::vector<double>& upper,
                           const std::vector<int>& seeds) const {
  common::check(lower.size() == static_cast<std::size_t>(variable_count_) &&
                    upper.size() == static_cast<std::size_t>(variable_count_),
                "Propagator::propagate: wrong arity");
  const std::size_t row_count = row_sense_.size();
  std::vector<char>& row_dirty = row_dirty_;
  row_dirty.assign(row_count, 0);
  std::vector<int>& dirty_rows = dirty_rows_;
  dirty_rows.clear();
  if (seeds.empty()) {
    dirty_rows.resize(row_count);
    for (std::size_t i = 0; i < row_count; ++i) {
      dirty_rows[i] = static_cast<int>(i);
      row_dirty[i] = 1;
    }
  } else {
    for (const int var : seeds) {
      const auto v = static_cast<std::size_t>(var);
      for (int r = var_start_[v]; r < var_start_[v + 1]; ++r) {
        const int row = var_rows_[static_cast<std::size_t>(r)];
        if (!row_dirty[static_cast<std::size_t>(row)]) {
          row_dirty[static_cast<std::size_t>(row)] = 1;
          dirty_rows.push_back(row);
        }
      }
    }
  }

  // Round-based sweeps: deterministic (ascending row order) and bounded.
  for (int round = 0; round < kMaxRounds && !dirty_rows.empty(); ++round) {
    std::sort(dirty_rows.begin(), dirty_rows.end());
    std::vector<int>& current = round_scratch_;
    current.clear();
    current.swap(dirty_rows);
    for (const int row : current) {
      row_dirty[static_cast<std::size_t>(row)] = 0;
    }
    for (const int row : current) {
      if (!tighten_row(row, lower, upper, row_dirty, dirty_rows)) {
        return false;
      }
    }
  }
  return true;
}

bool Propagator::any_droppable_row(const std::vector<double>& lower,
                                   const std::vector<double>& upper) const {
  const int m = static_cast<int>(row_sense_.size());
  for (int i = 0; i < m; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const int begin = row_start_[is];
    const int end = row_start_[is + 1];
    if (end - begin <= 1) return true;  // empty or singleton
    double min_activity = 0.0;
    double max_activity = 0.0;
    for (int k = begin; k < end; ++k) {
      const lp::Term& term = row_terms_[static_cast<std::size_t>(k)];
      const auto v = static_cast<std::size_t>(term.variable);
      min_activity += std::min(term.coefficient * lower[v],
                               term.coefficient * upper[v]);
      max_activity += std::max(term.coefficient * lower[v],
                               term.coefficient * upper[v]);
    }
    const bool upper_active = row_sense_[is] != lp::Sense::kGreaterEqual;
    const bool lower_active = row_sense_[is] != lp::Sense::kLessEqual;
    const bool upper_redundant =
        !upper_active || max_activity <= row_rhs_[is] + kFeasTol;
    const bool lower_redundant =
        !lower_active || min_activity >= row_rhs_[is] - kFeasTol;
    if (upper_redundant && lower_redundant) return true;
  }
  return false;
}

// ------------------------------------------------------------------- probing

bool probe_binaries(const Model& model, const Propagator& propagator,
                    std::vector<double>& lower, std::vector<double>& upper,
                    std::vector<std::pair<int, int>>* implications,
                    ProbeStats* stats, int max_probes) {
  const int n = model.variable_count();
  common::check(lower.size() == static_cast<std::size_t>(n) &&
                    upper.size() == static_cast<std::size_t>(n),
                "probe_binaries: wrong arity");
  // Reach the master fixpoint first, so every branch deduction below is
  // attributable to the probe itself.
  if (!propagator.propagate(lower, upper, {})) return false;

  const auto is_unfixed_binary = [&](int k) {
    const auto ks = static_cast<std::size_t>(k);
    return model.is_integer(k) && lower[ks] > -kIntTol &&
           upper[ks] < 1.0 + kIntTol && upper[ks] - lower[ks] > 0.5;
  };

  std::vector<double> lo0, hi0, lo1, hi1;
  std::vector<int> seed(1, 0);
  int probes = 0;
  for (int j = 0; j < n; ++j) {
    if (probes >= max_probes) break;
    if (!is_unfixed_binary(j)) continue;
    ++probes;
    if (stats != nullptr) ++stats->probed;
    seed[0] = j;
    lo0 = lower;
    hi0 = upper;
    hi0[static_cast<std::size_t>(j)] = 0.0;  // branch x_j = 0
    const bool feasible0 = propagator.propagate(lo0, hi0, seed);
    lo1 = lower;
    hi1 = upper;
    lo1[static_cast<std::size_t>(j)] = 1.0;  // branch x_j = 1
    const bool feasible1 = propagator.propagate(lo1, hi1, seed);
    if (!feasible0 && !feasible1) return false;
    if (!feasible0 || !feasible1) {
      // One branch is impossible, so every feasible point lies in the
      // surviving branch: adopt its whole propagated fixpoint.
      if (feasible0) {
        lower = lo0;
        upper = hi0;
      } else {
        lower = lo1;
        upper = hi1;
      }
      if (stats != nullptr) ++stats->fixings;
      continue;
    }
    // Both branches live: keep what holds in their union, and record the
    // binary implications each branch forces as conflict edges.
    for (int k = 0; k < n; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      if (k != j && implications != nullptr && is_unfixed_binary(k)) {
        if (hi0[ks] < 0.5) {  // x_j = 0 forces x_k = 0
          implications->push_back(
              {Lit::make(j, false), Lit::make(k, true)});
          if (stats != nullptr) ++stats->implications;
        }
        if (lo0[ks] > 0.5) {  // x_j = 0 forces x_k = 1
          implications->push_back(
              {Lit::make(j, false), Lit::make(k, false)});
          if (stats != nullptr) ++stats->implications;
        }
        if (hi1[ks] < 0.5) {  // x_j = 1 forces x_k = 0
          implications->push_back({Lit::make(j, true), Lit::make(k, true)});
          if (stats != nullptr) ++stats->implications;
        }
        if (lo1[ks] > 0.5) {  // x_j = 1 forces x_k = 1
          implications->push_back({Lit::make(j, true), Lit::make(k, false)});
          if (stats != nullptr) ++stats->implications;
        }
      }
      const double union_lo = std::min(lo0[ks], lo1[ks]);
      const double union_hi = std::max(hi0[ks], hi1[ks]);
      if (union_lo > lower[ks] + kImprove) {
        lower[ks] = union_lo;
        if (stats != nullptr) ++stats->tightenings;
      }
      if (union_hi < upper[ks] - kImprove) {
        upper[ks] = union_hi;
        if (stats != nullptr) ++stats->tightenings;
      }
    }
  }
  // Union tightenings can cascade through rows the probes never seeded.
  return propagator.propagate(lower, upper, {});
}

// --------------------------------------------------------------- clique table

bool normalize_packing_row(const Model& model,
                           const std::vector<lp::Term>& terms, double rhs,
                           const std::vector<double>& lower,
                           const std::vector<double>& upper,
                           std::vector<PackedTerm>* items, double* rhs_out) {
  std::vector<lp::Term> merged(terms);
  std::sort(merged.begin(), merged.end(),
            [](const lp::Term& a, const lp::Term& b) {
              return a.variable < b.variable;
            });
  std::size_t out = 0;
  for (std::size_t t = 0; t < merged.size(); ++t) {
    if (out > 0 && merged[out - 1].variable == merged[t].variable) {
      merged[out - 1].coefficient += merged[t].coefficient;
    } else {
      merged[out++] = merged[t];
    }
  }
  merged.resize(out);

  items->clear();
  for (const lp::Term& term : merged) {
    if (term.coefficient == 0.0) continue;
    const auto v = static_cast<std::size_t>(term.variable);
    if (upper[v] - lower[v] <= kImprove) {
      rhs -= term.coefficient * lower[v];
      continue;
    }
    const bool binary = model.is_integer(term.variable) &&
                        lower[v] > -kIntTol && upper[v] < 1.0 + kIntTol;
    if (!binary) return false;
    if (term.coefficient > 0.0) {
      items->push_back({Lit::make(term.variable, true), term.coefficient});
    } else {
      // a*x = a - a*(1-x): the complemented literal gets -a > 0 and the
      // constant a crosses to the right-hand side.
      items->push_back({Lit::make(term.variable, false), -term.coefficient});
      rhs -= term.coefficient;
    }
  }
  *rhs_out = rhs;
  return items->size() >= 2;
}

namespace {

/// Emits the cliques of one normalized packing row: the maximal prefix
/// clique of the coefficient-sorted items, plus one clique per tail item
/// against the prefix members it conflicts with.
void extract_row_cliques(std::vector<PackedTerm>& items, double rhs,
                         std::vector<Clique>& out) {
  std::sort(items.begin(), items.end(),
            [](const PackedTerm& a, const PackedTerm& b) {
              if (a.coefficient != b.coefficient) {
                return a.coefficient > b.coefficient;
              }
              return a.literal < b.literal;
            });
  // Largest k such that every pair inside the prefix overruns the rhs;
  // the two smallest prefix coefficients witness all pairs.
  std::size_t k = 0;
  for (std::size_t c = items.size(); c >= 2; --c) {
    if (items[c - 2].coefficient + items[c - 1].coefficient > rhs + kFeasTol) {
      k = c;
      break;
    }
  }
  if (k < 2) return;
  Clique prefix;
  prefix.literals.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    prefix.literals.push_back(items[i].literal);
  }
  // The clique coincides with the row itself only when it spans every item
  // with one shared coefficient equal to the rhs (sum lit <= 1 scaled).
  prefix.materialized =
      k == items.size() &&
      std::abs(items.front().coefficient - items.back().coefficient) <=
          kFeasTol &&
      std::abs(rhs - items.front().coefficient) <= kFeasTol;
  out.push_back(std::move(prefix));
  for (std::size_t j = k; j < items.size(); ++j) {
    Clique tail;
    for (std::size_t i = 0; i < k; ++i) {
      if (items[i].coefficient + items[j].coefficient > rhs + kFeasTol) {
        tail.literals.push_back(items[i].literal);
      }
    }
    if (tail.literals.empty()) continue;
    tail.literals.push_back(items[j].literal);
    out.push_back(std::move(tail));
  }
}

}  // namespace

CliqueTable build_clique_table(
    const Model& model, const std::vector<double>& lower,
    const std::vector<double>& upper,
    const std::vector<std::pair<int, int>>& extra_edges) {
  CliqueTable table;
  const int n = model.variable_count();
  std::vector<Clique> raw;

  // Row extraction: each sense contributes its <= reading(s).
  std::vector<lp::Term> negated;
  std::vector<PackedTerm> items;
  for (int i = 0; i < model.constraint_count(); ++i) {
    const lp::Constraint& row = model.lp().constraint(i);
    double packed_rhs = 0.0;
    if (row.sense != lp::Sense::kGreaterEqual &&
        normalize_packing_row(model, row.terms, row.rhs, lower, upper, &items,
                              &packed_rhs)) {
      extract_row_cliques(items, packed_rhs, raw);
    }
    if (row.sense != lp::Sense::kLessEqual) {
      negated.assign(row.terms.begin(), row.terms.end());
      for (lp::Term& term : negated) term.coefficient = -term.coefficient;
      if (normalize_packing_row(model, negated, -row.rhs, lower, upper,
                                &items, &packed_rhs)) {
        extract_row_cliques(items, packed_rhs, raw);
      }
    }
  }
  for (const auto& [a, b] : extra_edges) {
    if (a == b) continue;
    Clique edge;
    edge.literals = {std::min(a, b), std::max(a, b)};
    raw.push_back(std::move(edge));
  }
  if (raw.empty()) return table;
  for (Clique& clique : raw) {
    std::sort(clique.literals.begin(), clique.literals.end());
    clique.literals.erase(
        std::unique(clique.literals.begin(), clique.literals.end()),
        clique.literals.end());
  }

  // Conflict-graph bitsets over literals, for extension and dominance.
  const std::size_t n_lit = 2 * static_cast<std::size_t>(n);
  const std::size_t words = (n_lit + 63) / 64;
  const bool merge = n_lit * words * 8 <= kMaxAdjacencyBytes;
  if (merge) {
    std::vector<std::uint64_t> adjacency(n_lit * words, 0);
    const auto connect = [&](int a, int b) {
      adjacency[static_cast<std::size_t>(a) * words +
                static_cast<std::size_t>(b) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(b) % 64);
    };
    for (const Clique& clique : raw) {
      for (std::size_t x = 0; x < clique.literals.size(); ++x) {
        for (std::size_t y = x + 1; y < clique.literals.size(); ++y) {
          connect(clique.literals[x], clique.literals[y]);
          connect(clique.literals[y], clique.literals[x]);
        }
      }
    }
    // Greedy extension: absorb every literal in conflict with the whole
    // clique (lowest literal first; deterministic).
    std::vector<std::uint64_t> candidates(words);
    for (Clique& clique : raw) {
      std::fill(candidates.begin(), candidates.end(), ~std::uint64_t{0});
      for (const int lit : clique.literals) {
        const std::uint64_t* adj_row =
            adjacency.data() + static_cast<std::size_t>(lit) * words;
        for (std::size_t w = 0; w < words; ++w) candidates[w] &= adj_row[w];
      }
      bool extended = false;
      for (std::size_t w = 0; w < words; ++w) {
        while (candidates[w] != 0) {
          const int lit = static_cast<int>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(
                           candidates[w])));
          if (static_cast<std::size_t>(lit) >= n_lit) {
            candidates[w] = 0;
            break;
          }
          clique.literals.push_back(lit);
          extended = true;
          const std::uint64_t* adj_row =
              adjacency.data() + static_cast<std::size_t>(lit) * words;
          for (std::size_t w2 = 0; w2 < words; ++w2) {
            candidates[w2] &= adj_row[w2];
          }
        }
      }
      if (extended) {
        clique.materialized = false;  // now strictly stronger than the row
        std::sort(clique.literals.begin(), clique.literals.end());
      }
    }
  }

  // Dominance: drop duplicates and cliques contained in a larger clique.
  std::stable_sort(raw.begin(), raw.end(),
                   [](const Clique& a, const Clique& b) {
                     if (a.literals.size() != b.literals.size()) {
                       return a.literals.size() > b.literals.size();
                     }
                     return a.literals < b.literals;
                   });
  std::vector<std::vector<std::uint64_t>> kept_bits;
  std::vector<std::uint64_t> bits(words);
  for (Clique& clique : raw) {
    if (static_cast<int>(table.cliques.size()) >= kMaxCliques) break;
    std::fill(bits.begin(), bits.end(), 0);
    for (const int lit : clique.literals) {
      bits[static_cast<std::size_t>(lit) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(lit) % 64);
    }
    bool dominated = false;
    for (std::size_t k = 0; k < kept_bits.size() && !dominated; ++k) {
      if (table.cliques[k].literals.size() < clique.literals.size()) break;
      dominated = true;
      for (std::size_t w = 0; w < words; ++w) {
        if ((bits[w] & ~kept_bits[k][w]) != 0) {
          dominated = false;
          break;
        }
      }
      if (dominated && table.cliques[k].literals == clique.literals) {
        // Exact duplicate: remember when any copy mirrors a model row.
        table.cliques[k].materialized |= clique.materialized;
      }
    }
    if (dominated) continue;
    kept_bits.push_back(bits);
    table.cliques.push_back(std::move(clique));
  }
  return table;
}

// ------------------------------------------------------------------ presolve

std::vector<double> Presolved::restore(
    const std::vector<double>& reduced_values) const {
  common::check(reduced_values.size() == orig_of_reduced.size(),
                "Presolved::restore: wrong arity");
  std::vector<double> full = fixed_values;
  for (std::size_t r = 0; r < orig_of_reduced.size(); ++r) {
    full[static_cast<std::size_t>(orig_of_reduced[r])] = reduced_values[r];
  }
  return full;
}

Presolved presolve(const Model& model, const Propagator& propagator) {
  Presolved out;
  const int n = model.variable_count();
  out.original_variables = n;

  std::vector<double> lower(static_cast<std::size_t>(n));
  std::vector<double> upper(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    lower[static_cast<std::size_t>(j)] = model.lp().variable(j).lower;
    upper[static_cast<std::size_t>(j)] = model.lp().variable(j).upper;
  }

  if (!propagator.propagate(lower, upper, {})) {
    out.infeasible = true;
    return out;
  }

  // Count tightenings against the source model for the stats report.
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const lp::Variable& var = model.lp().variable(j);
    if (lower[js] > var.lower + kImprove) ++out.stats.bounds_tightened;
    if (upper[js] < var.upper - kImprove) ++out.stats.bounds_tightened;
  }

  // Identity fast path: when propagation changed nothing and no row is
  // droppable, hand the original model back untouched instead of paying
  // for a full rebuild (frequent for small, already-tight models).
  bool any_fixed = false;
  for (int j = 0; j < n && !any_fixed; ++j) {
    const auto js = static_cast<std::size_t>(j);
    any_fixed = upper[js] - lower[js] <= kImprove;
  }
  if (!any_fixed && out.stats.bounds_tightened == 0 &&
      !propagator.any_droppable_row(lower, upper)) {
    out.is_identity = true;
    return out;
  }

  // Partition variables into fixed (substituted) and surviving.
  out.fixed_values.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<int> red_of_orig(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (upper[js] - lower[js] <= kImprove) {
      const double value =
          model.is_integer(j) ? std::round(lower[js]) : lower[js];
      out.fixed_values[js] = value;
      out.objective_offset += model.lp().variable(j).objective * value;
      ++out.stats.variables_fixed;
      continue;
    }
    red_of_orig[js] = out.reduced.variable_count();
    out.orig_of_reduced.push_back(j);
    const lp::Variable& var = model.lp().variable(j);
    if (model.is_integer(j)) {
      out.reduced.add_integer(lower[js], upper[js], var.objective, var.name);
    } else {
      out.reduced.add_continuous(lower[js], upper[js], var.objective,
                                 var.name);
    }
  }

  // Rebuild rows over the surviving variables; drop the trivial ones.
  for (int i = 0; i < model.constraint_count(); ++i) {
    const lp::Constraint& src = model.lp().constraint(i);
    // Merge duplicates and substitute fixed variables into the rhs.
    std::vector<lp::Term> terms;
    double rhs = src.rhs;
    for (const lp::Term& term : src.terms) {
      const auto v = static_cast<std::size_t>(term.variable);
      if (red_of_orig[v] < 0) {
        rhs -= term.coefficient * out.fixed_values[v];
        continue;
      }
      bool found = false;
      for (lp::Term& existing : terms) {
        if (existing.variable == red_of_orig[v]) {
          existing.coefficient += term.coefficient;
          found = true;
          break;
        }
      }
      if (!found) terms.push_back({red_of_orig[v], term.coefficient});
    }

    const bool upper_active = src.sense != lp::Sense::kGreaterEqual;
    const bool lower_active = src.sense != lp::Sense::kLessEqual;
    if (terms.empty()) {
      // Fully substituted: feasibility was already checked by propagation,
      // but guard against tolerance drift anyway.
      if ((upper_active && 0.0 > rhs + kFeasTol) ||
          (lower_active && 0.0 < rhs - kFeasTol)) {
        out.infeasible = true;
        return out;
      }
      ++out.stats.rows_removed;
      continue;
    }
    if (terms.size() == 1) {
      // Singleton row: propagation already folded it into the variable
      // bounds, so the row itself is redundant.
      ++out.stats.rows_removed;
      continue;
    }
    double min_activity = 0.0;
    double max_activity = 0.0;
    for (const lp::Term& term : terms) {
      const lp::Variable& var = out.reduced.lp().variable(term.variable);
      min_activity +=
          std::min(term.coefficient * var.lower, term.coefficient * var.upper);
      max_activity +=
          std::max(term.coefficient * var.lower, term.coefficient * var.upper);
    }
    const bool upper_redundant = !upper_active || max_activity <= rhs + kFeasTol;
    const bool lower_redundant = !lower_active || min_activity >= rhs - kFeasTol;
    if (upper_redundant && lower_redundant) {
      ++out.stats.rows_removed;
      continue;
    }
    out.reduced.add_constraint(std::move(terms), src.sense, rhs);
  }
  return out;
}

}  // namespace fpva::ilp

// The paper's ILP formulations (Section III-B/III-C), built on ilp::Model.
//
// Flow-path model -- for a fixed path budget n_p:
//   (1)  sum of v around a cell = 2*c          (path chaining)
//   (2)  sum over paths of v >= 1 per valve    (coverage)
//   (3)  |f| <= M*v                            (flow only on the path)
//   (4)  net f into a cell = c                 (disjoint-loop exclusion)
//   (6)  M*p_m >= sum of v on path m           (path-used indicator)
//   (7)  minimize sum of p_m
// plus two hygiene constraints the paper leaves implicit: each path attaches
// to at most one source and, when used, at least one sink; and symmetry
// breaking p_m <= p_{m-1}.
//
// Cut-set model: the same structure on the planar dual (junction posts as
// cells, crossable sites as valves, boundary arcs as ports) plus the
// masking-exclusion constraint (9): c_p1 + c_p2 - 1 <= v_s.
//
// Following III-B-3, find_minimum_* starts from a small n_p and enlarges it
// until the model is feasible.
#ifndef FPVA_CORE_ILP_MODELS_H
#define FPVA_CORE_ILP_MODELS_H

#include <optional>
#include <vector>

#include "core/cut_set.h"
#include "core/flow_path.h"
#include "grid/array.h"
#include "ilp/branch_and_bound.h"

namespace fpva::core {

class CertStore;  // core/cert_store.h; find_minimum_* only carry a pointer

/// One III-B-3 budget-escalation stage. find_minimum_* records every stage
/// it ran — refuted, abandoned, or final — so frontier probes (the
/// slow-certify CI job, bench_certify) can report where the time and the
/// certificates went instead of hand-measuring each budget.
struct BudgetStage {
  int budget = 0;
  ilp::ResultStatus status = ilp::ResultStatus::kUnknown;
  long nodes = 0;
  long lp_pivots = 0;
  double seconds = 0.0;
  long conflicts = 0;
  long nogoods_learned = 0;
  long backjumps = 0;
  long lp_nogoods = 0;  ///< learned clauses carrying an LP ray
};

struct IlpPathResult {
  std::vector<FlowPath> paths;
  ilp::Result ilp;       ///< solver diagnostics of the final (feasible) run
  /// Number of paths actually used (== paths.size()). This can be smaller
  /// than the escalation budget that yielded feasibility: the unpinned
  /// objective minimizes used chains, so when a smaller budget's
  /// refutation was abandoned on limits the larger model may still find
  /// the smaller cover.
  int path_budget = 0;
  /// True when the budget is certified minimal — either every smaller
  /// budget was proven infeasible and the final (pinned) solve is proven
  /// optimal, or the final solve ran unpinned and its proven optimum
  /// certifies the minimum by itself. False means the cover is valid but
  /// carries no optimality certificate — downstream accounting must not
  /// report it as the paper's minimum.
  bool proven_minimal = true;
  /// Every escalation stage attempted, in budget order (find_minimum_*
  /// only; empty from the single-budget entry points).
  std::vector<BudgetStage> stages;
};

struct IlpCutResult {
  std::vector<CutSet> cuts;
  ilp::Result ilp;
  int cut_budget = 0;          ///< cuts actually used; see path_budget
  bool proven_minimal = true;  ///< see IlpPathResult::proven_minimal
  std::vector<BudgetStage> stages;  ///< see IlpPathResult::stages
};

/// Solves the flow-path model with path budget `max_paths`; std::nullopt
/// when infeasible (not all valves coverable with that many paths) or the
/// solver hits its limits without an incumbent.
///
/// `proven_budget_floor` > 0 asserts the caller has proven that no cover
/// with fewer than that many paths exists (III-B-3 escalation: budget
/// floor-1 came back infeasible); the model then pins the use indicators,
/// which turns the solve into pure feasibility search. On failure, the
/// solver diagnostics land in `failure_diagnostics` (when non-null), so
/// callers can distinguish proven infeasibility from abandoned limits.
std::optional<IlpPathResult> solve_flow_path_model(
    const grid::ValveArray& array, int max_paths,
    const ilp::Options& options = {}, int proven_budget_floor = 0,
    ilp::Result* failure_diagnostics = nullptr);

/// III-B-3: tries budgets first..last until feasible.
///
/// With a non-null `store`, every finished stage is persisted and a rerun
/// resumes instead of re-solving: refutations are reused when the
/// recorded configuration fingerprint matches, feasible stages are
/// re-validated by replaying the stored witness (simulator + coverage +
/// budget checks) rather than trusted, deadline-truncated stages leave a
/// partial checkpoint whose learned unit nogoods seed the next attempt,
/// and any mismatch or verification failure degrades to a live re-solve.
std::optional<IlpPathResult> find_minimum_flow_paths(
    const grid::ValveArray& array, int first_budget, int last_budget,
    const ilp::Options& options = {}, CertStore* store = nullptr);

/// Solves the dual cut-set model with cut budget `max_cuts`; constraint (9)
/// is included when `masking_exclusion` is true. `proven_budget_floor` and
/// `failure_diagnostics` as in solve_flow_path_model.
std::optional<IlpCutResult> solve_cut_set_model(
    const grid::ValveArray& array, int max_cuts, bool masking_exclusion,
    const ilp::Options& options = {}, int proven_budget_floor = 0,
    ilp::Result* failure_diagnostics = nullptr);

/// Tries cut budgets first..last until feasible. `store` resumes as in
/// find_minimum_flow_paths.
std::optional<IlpCutResult> find_minimum_cut_sets(
    const grid::ValveArray& array, int first_budget, int last_budget,
    bool masking_exclusion, const ilp::Options& options = {},
    CertStore* store = nullptr);

}  // namespace fpva::core

#endif  // FPVA_CORE_ILP_MODELS_H

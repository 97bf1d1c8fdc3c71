// Cut-set planner: staircase family plus a dual-grid greedy snake.
//
// Generating covering cut-sets is the complementary problem of generating
// covering flow paths (Section III-C): a source/sink-separating cut is
// exactly a simple path in the planar dual of the cell grid -- the graph of
// junction posts -- running between two boundary arcs that hold the sources
// and sinks apart. Two consequences the planner exploits:
//
//   * Every internal valve joins two cells on adjacent anti-diagonals
//     d = row+col, so the "staircase" interfaces between consecutive
//     anti-diagonals partition all valves, and each is a valid cut when the
//     source sits in the low-diagonal corner and the sink in the high one.
//     An n x n array has exactly 2n-2 such staircases, which reproduces the
//     cut-set counts n_c of the paper's Table I.
//   * Valves the staircases cannot test (their interface is broken by an
//     always-open channel) are picked up by a greedy snake on the dual
//     grid, the exact mirror of the flow-path snake.
//
// The paper's masking-exclusion constraint (9) -- if both end posts of a
// valve lie on the cut curve, the valve must belong to the cut -- is the
// requirement that the dual path be chordless; make_chordless() enforces it
// by absorbing chord valves into the cut.
//
// The planner walks the dual grid through a step table built once per
// array: for every post, the (up to four) steps to its neighbour posts that
// a cut may cross -- not an always-open channel, not a port gateway -- each
// with the post it reaches and the valve it crosses. Routing, the snake and
// chord absorption read that table instead of classifying sites per step.
#ifndef FPVA_CORE_CUT_PLANNER_H
#define FPVA_CORE_CUT_PLANNER_H

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/cut_set.h"
#include "grid/array.h"

namespace fpva::core {

/// Number of junction posts of the dual grid ((rows+1)*(cols+1)).
int dual_post_count(const grid::ValveArray& array);

/// Dense id of the junction post at `post` (a (even,even) site).
int dual_post_id(const grid::ValveArray& array, grid::Site post);

/// Inverse of dual_post_id().
grid::Site dual_post_site(const grid::ValveArray& array, int id);

/// Boundary-arc id per post (-1 for interior posts). Arcs are the maximal
/// runs of boundary posts between port sites; a cut is a dual path whose
/// endpoints lie on two different arcs.
std::vector<int> dual_boundary_arcs(const grid::ValveArray& array,
                                    int* arc_count);

class CutPlanner {
 public:
  explicit CutPlanner(const grid::ValveArray& array);

  const grid::ValveArray& array() const { return *array_; }

  /// The staircase cut between cell anti-diagonals d-1 and d, for
  /// d in [1, rows+cols-2]; std::nullopt when a channel breaks the
  /// interface or the staircase fails validation.
  std::optional<CutSet> staircase(int diagonal) const;

  /// One cut containing `through`, optionally refusing to include valves
  /// marked in `avoid`.
  std::optional<CutSet> cut_through(grid::ValveId through,
                                    const std::vector<bool>* avoid = nullptr);

  /// Decides whether a finished cut variant is taken.
  using Accept = std::function<bool(const CutSet&)>;

  /// The first cut through `through` that `accept` takes, trying the
  /// planner's variants in order (per start arc, both crossing
  /// orientations) and building each only when the ones before it were
  /// refused; std::nullopt when none is taken. Variants are structurally
  /// valid, but one may still mask the target's own leak (Fig. 5(d)), so
  /// find_detecting_cut() accepts by simulation. When `wanted` is given the
  /// dual snake chains through those valves too, so one cut can retest many
  /// still-uncovered valves.
  std::optional<CutSet> first_cut(grid::ValveId through,
                                  const std::vector<bool>* avoid,
                                  const std::vector<bool>* wanted,
                                  const Accept& accept);

  /// Absorbs chord valves (both end posts on the curve, valve not in the
  /// cut) into `cut` -- the paper's constraint (9) -- appending them in
  /// ascending ValveId order. Scans only the steps out of the curve's
  /// posts, not every valve of the array.
  void make_chordless(CutSet& cut) const;

 private:
  /// A dual step out of a post that a cut may cross.
  struct Step {
    int to = -1;                                ///< post reached
    grid::ValveId valve = grid::kInvalidValve;  ///< invalid for a wall
  };
  struct Walk;

  int post_id(grid::Site post) const;
  grid::Site post_site(int id) const;
  std::span<const Step> steps_from(int post) const;
  static bool crosses(const Step& step, const std::vector<bool>* avoid);
  bool is_terminal(int post, int arc) const;
  std::vector<int> bfs_route(const std::vector<int>& from_set, int goal_arc,
                             int goal_post, const std::vector<char>& visited,
                             const std::vector<bool>* avoid) const;
  bool reachable_arc(int from, int arc, const std::vector<char>& visited,
                     const std::vector<bool>* avoid) const;
  std::optional<CutSet> build_cut(grid::ValveId seed_valve,
                                  const std::vector<bool>& wanted,
                                  const std::vector<bool>* avoid,
                                  const Accept& accept);
  bool snake(Walk& walk, const std::vector<bool>& wanted,
             const std::vector<bool>* avoid);
  bool detour(Walk& walk, const std::vector<bool>& wanted,
              const std::vector<bool>* avoid);
  std::optional<CutSet> finalize(Walk& walk,
                                 const std::vector<bool>* avoid) const;

  const grid::ValveArray* array_;
  int post_rows_ = 0;
  int post_cols_ = 0;
  std::vector<int> arc_of_post_;  ///< boundary arc id per post, -1 interior
  int arc_count_ = 0;
  std::vector<std::vector<int>> arc_posts_;  ///< posts of each arc, by id
  std::vector<int> step_begin_;  ///< per post, its first entry in steps_
  std::vector<Step> steps_;      ///< {0,+2}, {0,-2}, {+2,0}, {-2,0} order
  mutable std::vector<int> curve_posts_;  // scratch for make_chordless
  mutable std::vector<int> post_mark_;    // scratch, epoch-based
  mutable std::vector<int> valve_mark_;   // scratch, epoch-based
  mutable int mark_epoch_ = 0;
  mutable std::vector<int> bfs_parent_;
  mutable std::vector<int> bfs_queue_;
  mutable std::vector<int> bfs_mark_;
  mutable int bfs_epoch_ = 0;
};

/// A cut through `valve` whose test vector behaviorally detects the valve's
/// stuck-at-1 fault. A cut may mask the very leak it targets (e.g. it also
/// closes the only feed into the valve's upstream cell), so each attempt
/// takes CutPlanner::first_cut() with the simulator as the judge: the first
/// variant whose vector detects the fault wins and later variants are never
/// built. Attempts after the first avoid the valves that share a cell with
/// `valve`, each in turn and then all at once, until a detecting shape is
/// found or `max_attempts` attempts have failed.
std::optional<CutSet> find_detecting_cut(CutPlanner& planner,
                                         const sim::Simulator& simulator,
                                         grid::ValveId valve,
                                         int max_attempts = 8,
                                         const std::vector<bool>* wanted =
                                             nullptr);

}  // namespace fpva::core

#endif  // FPVA_CORE_CUT_PLANNER_H

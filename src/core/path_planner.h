// Constructive flow-path planner ("greedy snake").
//
// The paper finds a minimum set of covering flow paths with an ILP
// (Section III-B); this planner is the scalable constructive engine used
// for the large arrays. It grows one simple source->sink path at a time:
//
//   1. seed: route from the source to a still-uncovered valve and cross it;
//   2. snake: repeatedly step through adjacent uncovered valves, preferring
//      to continue straight (which yields the serpentine shapes of
//      Fig. 8(a)). A step may only enter a cell that still reaches the sink
//      through unvisited cells; one BFS backwards from the sink marks those
//      cells once per step, and every candidate step is answered from the
//      mark;
//   3. detour: when no adjacent uncovered valve remains, walk to the
//      nearest cell that still borders one;
//   4. finish: close the path to the sink through unvisited cells.
//
// The reachability guard makes every produced path a valid simple path;
// behavioral coverage is re-checked downstream by the generator.
#ifndef FPVA_CORE_PATH_PLANNER_H
#define FPVA_CORE_PATH_PLANNER_H

#include <optional>
#include <vector>

#include "core/flow_path.h"
#include "grid/array.h"

namespace fpva::core {

class PathPlanner {
 public:
  struct CoverResult {
    std::vector<FlowPath> paths;
    /// Valves no simple source->sink path can cross (e.g. walled pockets).
    std::vector<grid::ValveId> uncoverable;
  };

  explicit PathPlanner(const grid::ValveArray& array);

  const grid::ValveArray& array() const { return *array_; }

  /// Generates paths until every valve in `targets` (true entries) is
  /// covered or proven uncoverable. Entries outside `targets` may be
  /// covered incidentally but are not sought out.
  CoverResult cover(const std::vector<bool>& targets);

  /// Like cover(), but continues from an existing coverage state:
  /// `covered` marks valves that no longer need covering and is updated
  /// with everything the new paths cross.
  CoverResult cover_remaining(const std::vector<bool>& targets,
                              std::vector<bool>& covered);

  /// One path that crosses `through`, optionally refusing to cross any
  /// valve marked true in `avoid` (the port advisor's separability test). When
  /// `prefer` is given, the snake extends the path through those valves
  /// too. Returns std::nullopt when no such simple path exists.
  std::optional<FlowPath> path_through(
      grid::ValveId through, const std::vector<bool>* avoid = nullptr,
      const std::vector<bool>* prefer = nullptr);

 private:
  // The planner contracts each channel-connected component ("fluidic sea")
  // into one node so a simple node path touches every sea at most once;
  // see the .cpp for the physical rationale.
  struct Link {
    int to = -1;  ///< destination node
    grid::ValveId valve = grid::kInvalidValve;
    int from_cell = -1;  ///< departure cell inside the source node
    int to_cell = -1;    ///< arrival cell inside the destination node

    int from_node(const PathPlanner& planner) const {
      return planner.node_of_cell_[static_cast<std::size_t>(from_cell)];
    }
  };
  struct Walk;  // in-progress path state (defined in the .cpp)
  struct Hookup {
    int source_port;
    int sink_port;
    int source_node;
    int source_cell;
    int sink_node;
    int sink_cell;
  };

  bool link_allowed(const Link& link, const std::vector<bool>* avoid) const;
  std::vector<int> bfs_route(int from, int goal,
                             const std::vector<char>& visited,
                             const std::vector<bool>* avoid) const;
  bool reachable(int from, int goal, const std::vector<char>& visited,
                 const std::vector<bool>* avoid) const;
  /// Marks (bfs_mark_ == bfs_epoch_) every node that reaches `sink`
  /// through unvisited nodes.
  void mark_sink_side(int sink, const std::vector<char>& visited,
                      const std::vector<bool>* avoid) const;

  std::optional<FlowPath> build_path(grid::ValveId seed_valve,
                                     const std::vector<bool>& wanted,
                                     const std::vector<bool>* avoid);
  bool try_seed(Walk& walk, int seed_link, const std::vector<bool>& wanted,
                const std::vector<bool>* avoid);
  void snake(Walk& walk, const std::vector<bool>& wanted,
             const std::vector<bool>* avoid);
  bool detour(Walk& walk, const std::vector<bool>& wanted,
              const std::vector<bool>* avoid);
  bool finish(Walk& walk, const std::vector<bool>* avoid);
  std::optional<FlowPath> expand(const Walk& walk,
                                 const Hookup& hookup) const;

  const grid::ValveArray* array_;
  int node_count_ = 0;
  std::vector<int> node_of_cell_;  ///< fluid cell index -> node id
  std::vector<int> link_begin_;
  std::vector<Link> links_;
  std::vector<Hookup> hookups_;
  mutable std::vector<int> bfs_parent_;   // scratch: link into each node
  mutable std::vector<int> bfs_queue_;    // scratch
  mutable std::vector<int> bfs_mark_;     // scratch, epoch-based
  mutable int bfs_epoch_ = 0;
};

}  // namespace fpva::core

#endif  // FPVA_CORE_PATH_PLANNER_H

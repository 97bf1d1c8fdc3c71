#include "core/path_planner.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "common/strings.h"
#include "graph/union_find.h"

namespace fpva::core {

using grid::Cell;
using grid::Direction;
using grid::Site;

namespace {

constexpr int kMaxPaths = 4096;        ///< safety valve for the cover loop
constexpr int kMaxDetourAttempts = 8;  ///< nearest-frontier candidates to try

}  // namespace

// The planner works on a contracted graph: every channel-connected group of
// cells (a "fluidic sea") is one node, every ordinary fluid cell its own
// node. A simple path in this graph touches each sea at most once, which is
// exactly the physical requirement -- a path that left a sea and re-entered
// it later would let pressure bypass the intermediate valves through the
// always-open channels, masking their stuck-at-0 faults (the Fig. 5(a)
// interference problem in its fluidic-sea form). Node walks are expanded
// back to concrete cell sequences at the end.

/// In-progress path: an ordered node sequence, the link taken into each
/// node (links_ index; -1 for the first node), and a visited mask.
struct PathPlanner::Walk {
  int source_port = -1;
  int sink_port = -1;
  int sink_node = -1;
  std::vector<int> nodes;
  std::vector<int> entry_links;  // parallel to nodes
  std::vector<char> visited;

  int head() const { return nodes.back(); }

  void push(int node, int entry_link) {
    nodes.push_back(node);
    entry_links.push_back(entry_link);
    visited[static_cast<std::size_t>(node)] = 1;
  }

  void truncate(std::size_t size) {
    while (nodes.size() > size) {
      visited[static_cast<std::size_t>(nodes.back())] = 0;
      nodes.pop_back();
      entry_links.pop_back();
    }
  }
};

PathPlanner::PathPlanner(const grid::ValveArray& array) : array_(&array) {
  const int cell_count = array.rows() * array.cols();

  // Contract channel components.
  graph::UnionFind components(cell_count);
  for (int index = 0; index < cell_count; ++index) {
    const Cell cell = array.cell_at_index(index);
    if (!array.is_fluid(cell)) continue;
    for (const Direction direction :
         {Direction::kRight, Direction::kDown}) {
      const auto next = array.neighbor(cell, direction);
      if (!next || !array.is_fluid(*next)) continue;
      if (array.site_kind(valve_site_of(cell, direction)) ==
          grid::SiteKind::kChannel) {
        components.unite(index, array.cell_index(*next));
      }
    }
  }
  node_of_cell_.assign(static_cast<std::size_t>(cell_count), -1);
  node_count_ = 0;
  std::vector<int> node_of_root(static_cast<std::size_t>(cell_count), -1);
  for (int index = 0; index < cell_count; ++index) {
    if (!array.is_fluid(array.cell_at_index(index))) continue;
    const int root = components.find(index);
    if (node_of_root[static_cast<std::size_t>(root)] < 0) {
      node_of_root[static_cast<std::size_t>(root)] = node_count_++;
    }
    node_of_cell_[static_cast<std::size_t>(index)] =
        node_of_root[static_cast<std::size_t>(root)];
  }

  // Valve links between distinct nodes. Valves bridging one sea with itself
  // are permanently bypassed (see channel_bypassed_valves) and dropped.
  link_begin_.assign(static_cast<std::size_t>(node_count_) + 1, 0);
  const auto for_each_link = [&](auto&& visit) {
    for (int index = 0; index < cell_count; ++index) {
      const Cell cell = array.cell_at_index(index);
      if (!array.is_fluid(cell)) continue;
      for (const Direction direction : grid::kAllDirections) {
        const auto next = array.neighbor(cell, direction);
        if (!next || !array.is_fluid(*next)) continue;
        const Site gate = valve_site_of(cell, direction);
        if (array.site_kind(gate) != grid::SiteKind::kValve) continue;
        const int from_node =
            node_of_cell_[static_cast<std::size_t>(index)];
        const int to_node = node_of_cell_[static_cast<std::size_t>(
            array.cell_index(*next))];
        if (from_node == to_node) continue;
        visit(from_node, to_node, array.valve_id(gate), index,
              array.cell_index(*next));
      }
    }
  };
  for_each_link([&](int from, int, grid::ValveId, int, int) {
    ++link_begin_[static_cast<std::size_t>(from) + 1];
  });
  for (std::size_t i = 1; i < link_begin_.size(); ++i) {
    link_begin_[i] += link_begin_[i - 1];
  }
  links_.resize(static_cast<std::size_t>(link_begin_.back()));
  std::vector<int> cursor(link_begin_.begin(), link_begin_.end() - 1);
  for_each_link(
      [&](int from, int to, grid::ValveId valve, int from_cell, int to_cell) {
        links_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(from)]++)] =
            Link{to, valve, from_cell, to_cell};
      });

  for (std::size_t s = 0; s < array.ports().size(); ++s) {
    if (array.ports()[s].kind != grid::PortKind::kSource) continue;
    for (std::size_t t = 0; t < array.ports().size(); ++t) {
      if (array.ports()[t].kind != grid::PortKind::kSink) continue;
      const int source_cell =
          array.cell_index(array.port_cell(array.ports()[s]));
      const int sink_cell =
          array.cell_index(array.port_cell(array.ports()[t]));
      hookups_.push_back(Hookup{
          static_cast<int>(s), static_cast<int>(t),
          node_of_cell_[static_cast<std::size_t>(source_cell)], source_cell,
          node_of_cell_[static_cast<std::size_t>(sink_cell)], sink_cell});
    }
  }
  common::check(!hookups_.empty(),
                "PathPlanner: array has no source/sink hookup");
  bfs_parent_.assign(static_cast<std::size_t>(node_count_), -1);
  bfs_mark_.assign(static_cast<std::size_t>(node_count_), 0);
  bfs_queue_.reserve(static_cast<std::size_t>(node_count_));
}

bool PathPlanner::link_allowed(const Link& link,
                               const std::vector<bool>* avoid) const {
  return avoid == nullptr ||
         !(*avoid)[static_cast<std::size_t>(link.valve)];
}

std::vector<int> PathPlanner::bfs_route(int from, int goal,
                                        const std::vector<char>& visited,
                                        const std::vector<bool>* avoid) const {
  // Returns the link indices of a shortest node route from -> goal through
  // unvisited nodes; empty when none exists (or from == goal).
  ++bfs_epoch_;
  bfs_queue_.clear();
  bfs_mark_[static_cast<std::size_t>(from)] = bfs_epoch_;
  bfs_parent_[static_cast<std::size_t>(from)] = -1;
  bfs_queue_.push_back(from);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int node = bfs_queue_[head];
    if (node == goal) {
      std::vector<int> route;
      for (int walk = goal; bfs_parent_[static_cast<std::size_t>(walk)] >= 0;
           walk = links_[static_cast<std::size_t>(
                             bfs_parent_[static_cast<std::size_t>(walk)])]
                      .from_node(*this)) {
        route.push_back(bfs_parent_[static_cast<std::size_t>(walk)]);
      }
      std::reverse(route.begin(), route.end());
      return route;
    }
    const int begin = link_begin_[static_cast<std::size_t>(node)];
    const int end = link_begin_[static_cast<std::size_t>(node) + 1];
    for (int k = begin; k < end; ++k) {
      const Link& link = links_[static_cast<std::size_t>(k)];
      if (!link_allowed(link, avoid)) continue;
      if (visited[static_cast<std::size_t>(link.to)]) continue;
      if (bfs_mark_[static_cast<std::size_t>(link.to)] == bfs_epoch_) continue;
      bfs_mark_[static_cast<std::size_t>(link.to)] = bfs_epoch_;
      bfs_parent_[static_cast<std::size_t>(link.to)] = k;
      bfs_queue_.push_back(link.to);
    }
  }
  return {};
}

bool PathPlanner::reachable(int from, int goal,
                            const std::vector<char>& visited,
                            const std::vector<bool>* avoid) const {
  if (from == goal) return true;
  ++bfs_epoch_;
  bfs_queue_.clear();
  bfs_mark_[static_cast<std::size_t>(from)] = bfs_epoch_;
  bfs_queue_.push_back(from);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int node = bfs_queue_[head];
    const int begin = link_begin_[static_cast<std::size_t>(node)];
    const int end = link_begin_[static_cast<std::size_t>(node) + 1];
    for (int k = begin; k < end; ++k) {
      const Link& link = links_[static_cast<std::size_t>(k)];
      if (!link_allowed(link, avoid)) continue;
      if (link.to == goal) return true;
      if (visited[static_cast<std::size_t>(link.to)]) continue;
      if (bfs_mark_[static_cast<std::size_t>(link.to)] == bfs_epoch_) continue;
      bfs_mark_[static_cast<std::size_t>(link.to)] = bfs_epoch_;
      bfs_queue_.push_back(link.to);
    }
  }
  return false;
}

void PathPlanner::mark_sink_side(int sink, const std::vector<char>& visited,
                                 const std::vector<bool>* avoid) const {
  // One BFS backwards from the sink. Links come in symmetric pairs and
  // link_allowed() looks only at the valve, so a node is reached here
  // exactly when reachable(node, sink, ...) would find the sink from it.
  ++bfs_epoch_;
  bfs_queue_.clear();
  bfs_mark_[static_cast<std::size_t>(sink)] = bfs_epoch_;
  bfs_queue_.push_back(sink);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int node = bfs_queue_[head];
    const int begin = link_begin_[static_cast<std::size_t>(node)];
    const int end = link_begin_[static_cast<std::size_t>(node) + 1];
    for (int k = begin; k < end; ++k) {
      const Link& link = links_[static_cast<std::size_t>(k)];
      if (!link_allowed(link, avoid)) continue;
      if (visited[static_cast<std::size_t>(link.to)]) continue;
      if (bfs_mark_[static_cast<std::size_t>(link.to)] == bfs_epoch_) continue;
      bfs_mark_[static_cast<std::size_t>(link.to)] = bfs_epoch_;
      bfs_queue_.push_back(link.to);
    }
  }
}

PathPlanner::CoverResult PathPlanner::cover(const std::vector<bool>& targets) {
  std::vector<bool> covered(static_cast<std::size_t>(array_->valve_count()),
                            false);
  return cover_remaining(targets, covered);
}

PathPlanner::CoverResult PathPlanner::cover_remaining(
    const std::vector<bool>& targets, std::vector<bool>& covered) {
  common::check(static_cast<int>(targets.size()) == array_->valve_count() &&
                    static_cast<int>(covered.size()) == array_->valve_count(),
                "PathPlanner::cover: mask arity != valve count");
  CoverResult result;
  std::vector<bool> wanted(targets.size());
  std::vector<bool> abandoned(targets.size(), false);
  while (static_cast<int>(result.paths.size()) < kMaxPaths) {
    grid::ValveId seed = grid::kInvalidValve;
    for (std::size_t v = 0; v < targets.size(); ++v) {
      wanted[v] = targets[v] && !covered[v] && !abandoned[v];
      if (wanted[v] && seed == grid::kInvalidValve) {
        seed = static_cast<grid::ValveId>(v);
      }
    }
    if (seed == grid::kInvalidValve) break;

    std::optional<FlowPath> path = build_path(seed, wanted, nullptr);
    if (!path.has_value()) {
      abandoned[static_cast<std::size_t>(seed)] = true;
      continue;
    }
    for (const grid::ValveId valve : path_valves(*array_, *path)) {
      covered[static_cast<std::size_t>(valve)] = true;
    }
    result.paths.push_back(std::move(*path));
  }
  for (std::size_t v = 0; v < abandoned.size(); ++v) {
    if (abandoned[v] && !covered[v]) {
      result.uncoverable.push_back(static_cast<grid::ValveId>(v));
    }
  }
  return result;
}

std::optional<FlowPath> PathPlanner::path_through(
    grid::ValveId through, const std::vector<bool>* avoid,
    const std::vector<bool>* prefer) {
  std::vector<bool> wanted(static_cast<std::size_t>(array_->valve_count()),
                           false);
  if (prefer != nullptr) wanted = *prefer;
  wanted[static_cast<std::size_t>(through)] = true;
  return build_path(through, wanted, avoid);
}

std::optional<FlowPath> PathPlanner::build_path(
    grid::ValveId seed_valve, const std::vector<bool>& wanted,
    const std::vector<bool>* avoid) {
  if (avoid != nullptr && (*avoid)[static_cast<std::size_t>(seed_valve)]) {
    return std::nullopt;
  }
  // Locate the (up to two, one per direction) links realizing the seed
  // valve; a bypassed valve has none and is uncoverable.
  std::vector<int> seed_links;
  for (int k = 0; k < static_cast<int>(links_.size()); ++k) {
    if (links_[static_cast<std::size_t>(k)].valve == seed_valve) {
      seed_links.push_back(k);
    }
  }
  if (seed_links.empty()) return std::nullopt;

  for (const Hookup& hookup : hookups_) {
    for (const int seed_link : seed_links) {
      Walk walk;
      walk.source_port = hookup.source_port;
      walk.sink_port = hookup.sink_port;
      walk.sink_node = hookup.sink_node;
      walk.visited.assign(static_cast<std::size_t>(node_count_), 0);
      walk.push(hookup.source_node, -1);
      if (!try_seed(walk, seed_link, wanted, avoid)) {
        continue;
      }
      return expand(walk, hookup);
    }
  }
  return std::nullopt;
}

bool PathPlanner::try_seed(Walk& walk, int seed_link,
                           const std::vector<bool>& wanted,
                           const std::vector<bool>* avoid) {
  const Link& link = links_[static_cast<std::size_t>(seed_link)];
  const int entry_node = link.from_node(*this);
  const int exit_node = link.to;
  // Route source -> entry node, keeping the sink and the exit node free.
  if (entry_node != walk.head()) {
    if (entry_node == walk.sink_node) return false;
    std::vector<char> blocked = walk.visited;
    blocked[static_cast<std::size_t>(walk.sink_node)] = 1;
    if (exit_node != walk.sink_node) {
      blocked[static_cast<std::size_t>(exit_node)] = 1;
    }
    const std::vector<int> route =
        bfs_route(walk.head(), entry_node, blocked, avoid);
    if (route.empty()) return false;
    for (const int step : route) {
      walk.push(links_[static_cast<std::size_t>(step)].to, step);
    }
  } else if (entry_node == walk.sink_node) {
    return false;  // crossing after arrival would not be observable
  }
  // Cross the seed valve.
  if (walk.visited[static_cast<std::size_t>(exit_node)]) return false;
  if (!link_allowed(link, avoid)) return false;
  walk.push(exit_node, seed_link);
  if (exit_node == walk.sink_node) {
    return true;
  }
  if (!reachable(walk.head(), walk.sink_node, walk.visited, avoid)) {
    return false;
  }
  snake(walk, wanted, avoid);
  return finish(walk, avoid);
}

void PathPlanner::snake(Walk& walk, const std::vector<bool>& wanted,
                        const std::vector<bool>* avoid) {
  int last_delta = 0;  // cell-index delta of the previous crossing
  for (;;) {
    const int head = walk.head();
    const int begin = link_begin_[static_cast<std::size_t>(head)];
    const int end = link_begin_[static_cast<std::size_t>(head) + 1];
    int best_link = -1;
    int best_score = -1;
    bool sink_side_marked = false;
    for (int k = begin; k < end; ++k) {
      const Link& link = links_[static_cast<std::size_t>(k)];
      if (!link_allowed(link, avoid)) continue;
      if (link.to == walk.sink_node) continue;  // only enter to finish
      if (walk.visited[static_cast<std::size_t>(link.to)]) continue;
      if (!wanted[static_cast<std::size_t>(link.valve)]) continue;
      // Stepping onto link.to keeps the sink reachable iff link.to reaches
      // it through unvisited nodes: one sink-side mark answers every
      // candidate of this step.
      if (!sink_side_marked) {
        mark_sink_side(walk.sink_node, walk.visited, avoid);
        sink_side_marked = true;
      }
      if (bfs_mark_[static_cast<std::size_t>(link.to)] != bfs_epoch_) continue;
      const int score =
          (link.to_cell - link.from_cell == last_delta) ? 1 : 0;
      if (score > best_score) {
        best_score = score;
        best_link = k;
      }
    }
    if (best_link >= 0) {
      const Link& link = links_[static_cast<std::size_t>(best_link)];
      last_delta = link.to_cell - link.from_cell;
      walk.push(link.to, best_link);
      continue;
    }
    if (!detour(walk, wanted, avoid)) {
      return;
    }
    last_delta = 0;
  }
}

bool PathPlanner::detour(Walk& walk, const std::vector<bool>& wanted,
                         const std::vector<bool>* avoid) {
  // BFS over unvisited nodes (sink excluded) collecting, nearest first,
  // nodes bordering a wanted valve.
  ++bfs_epoch_;
  bfs_queue_.clear();
  const int start = walk.head();
  bfs_mark_[static_cast<std::size_t>(start)] = bfs_epoch_;
  bfs_parent_[static_cast<std::size_t>(start)] = -1;
  bfs_queue_.push_back(start);
  std::vector<int> candidates;
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int node = bfs_queue_[head];
    const int begin = link_begin_[static_cast<std::size_t>(node)];
    const int end = link_begin_[static_cast<std::size_t>(node) + 1];
    bool borders_wanted = false;
    for (int k = begin; k < end; ++k) {
      const Link& link = links_[static_cast<std::size_t>(k)];
      if (!link_allowed(link, avoid)) continue;
      if (wanted[static_cast<std::size_t>(link.valve)] &&
          link.to != walk.sink_node &&
          !walk.visited[static_cast<std::size_t>(link.to)]) {
        borders_wanted = true;
      }
      if (walk.visited[static_cast<std::size_t>(link.to)]) continue;
      if (link.to == walk.sink_node) continue;
      if (bfs_mark_[static_cast<std::size_t>(link.to)] == bfs_epoch_) continue;
      bfs_mark_[static_cast<std::size_t>(link.to)] = bfs_epoch_;
      bfs_parent_[static_cast<std::size_t>(link.to)] = k;
      bfs_queue_.push_back(link.to);
    }
    if (node != start && borders_wanted) {
      candidates.push_back(node);
      if (static_cast<int>(candidates.size()) >=
          kMaxDetourAttempts) {
        break;
      }
    }
  }

  std::vector<std::vector<int>> routes;
  routes.reserve(candidates.size());
  for (const int candidate : candidates) {
    std::vector<int> route;
    for (int node = candidate;
         bfs_parent_[static_cast<std::size_t>(node)] >= 0;
         node = links_[static_cast<std::size_t>(
                           bfs_parent_[static_cast<std::size_t>(node)])]
                    .from_node(*this)) {
      route.push_back(bfs_parent_[static_cast<std::size_t>(node)]);
    }
    std::reverse(route.begin(), route.end());
    routes.push_back(std::move(route));
  }

  for (const std::vector<int>& route : routes) {
    const std::size_t snapshot = walk.nodes.size();
    for (const int step : route) {
      walk.push(links_[static_cast<std::size_t>(step)].to, step);
    }
    const int head = walk.head();
    const int begin = link_begin_[static_cast<std::size_t>(head)];
    const int end = link_begin_[static_cast<std::size_t>(head) + 1];
    bool usable = false;
    for (int k = begin; k < end && !usable; ++k) {
      const Link& link = links_[static_cast<std::size_t>(k)];
      if (!link_allowed(link, avoid)) continue;
      if (!wanted[static_cast<std::size_t>(link.valve)]) continue;
      if (link.to == walk.sink_node ||
          walk.visited[static_cast<std::size_t>(link.to)]) {
        continue;
      }
      walk.visited[static_cast<std::size_t>(link.to)] = 1;
      usable = reachable(link.to, walk.sink_node, walk.visited, avoid);
      walk.visited[static_cast<std::size_t>(link.to)] = 0;
    }
    if (usable) {
      return true;
    }
    walk.truncate(snapshot);
  }
  return false;
}

bool PathPlanner::finish(Walk& walk, const std::vector<bool>* avoid) {
  if (walk.head() == walk.sink_node) return true;
  const std::vector<int> route =
      bfs_route(walk.head(), walk.sink_node, walk.visited, avoid);
  if (route.empty()) return false;  // guard should prevent this
  for (const int step : route) {
    walk.push(links_[static_cast<std::size_t>(step)].to, step);
  }
  return true;
}

std::optional<FlowPath> PathPlanner::expand(const Walk& walk,
                                            const Hookup& hookup) const {
  // Convert the node walk to a concrete cell path, routing through each sea
  // from its entry cell to the next crossing's departure cell via channel
  // links only.
  FlowPath path;
  path.source_port = walk.source_port;
  path.sink_port = walk.sink_port;

  const auto in_sea_route = [&](int from_cell, int to_cell,
                                std::vector<Cell>& out) {
    // BFS within one component using channel links only.
    if (from_cell == to_cell) return true;
    std::vector<int> parent(
        static_cast<std::size_t>(array_->rows() * array_->cols()), -2);
    std::vector<int> queue{from_cell};
    parent[static_cast<std::size_t>(from_cell)] = -1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int cell_index = queue[head];
      if (cell_index == to_cell) break;
      const Cell cell = array_->cell_at_index(cell_index);
      for (const Direction direction : grid::kAllDirections) {
        const auto next = array_->neighbor(cell, direction);
        if (!next || !array_->is_fluid(*next)) continue;
        if (array_->site_kind(valve_site_of(cell, direction)) !=
            grid::SiteKind::kChannel) {
          continue;
        }
        const int next_index = array_->cell_index(*next);
        if (parent[static_cast<std::size_t>(next_index)] != -2) continue;
        parent[static_cast<std::size_t>(next_index)] = cell_index;
        queue.push_back(next_index);
      }
    }
    if (parent[static_cast<std::size_t>(to_cell)] == -2) return false;
    std::vector<Cell> segment;
    for (int cell = to_cell; cell != from_cell;
         cell = parent[static_cast<std::size_t>(cell)]) {
      segment.push_back(array_->cell_at_index(cell));
    }
    std::reverse(segment.begin(), segment.end());
    out.insert(out.end(), segment.begin(), segment.end());
    return true;
  };

  int position_cell = hookup.source_cell;
  path.cells.push_back(array_->cell_at_index(position_cell));
  for (std::size_t i = 1; i < walk.nodes.size(); ++i) {
    const Link& link =
        links_[static_cast<std::size_t>(walk.entry_links[i])];
    // Route inside the current node to the crossing's departure cell.
    if (!in_sea_route(position_cell, link.from_cell, path.cells)) {
      return std::nullopt;
    }
    path.cells.push_back(array_->cell_at_index(link.to_cell));
    position_cell = link.to_cell;
  }
  // Route inside the final node to the sink's port cell.
  if (!in_sea_route(position_cell, hookup.sink_cell, path.cells)) {
    return std::nullopt;
  }
  const auto problem = validate_flow_path(*array_, path);
  if (problem.has_value()) {
    common::log_warning(
        common::cat("path expansion produced an invalid path: ", *problem));
    return std::nullopt;
  }
  return path;
}

}  // namespace fpva::core

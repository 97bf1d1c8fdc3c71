#include "core/cut_planner.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"

namespace fpva::core {

using grid::Site;

/// In-progress dual path: an ordered post sequence plus a visited mask.
struct CutPlanner::Walk {
  int start_arc = -1;
  std::vector<int> posts;
  std::vector<char> visited;

  int head() const { return posts.back(); }

  void push(int post) {
    posts.push_back(post);
    visited[static_cast<std::size_t>(post)] = 1;
  }

  void truncate(std::size_t size) {
    while (posts.size() > size) {
      visited[static_cast<std::size_t>(posts.back())] = 0;
      posts.pop_back();
    }
  }
};

namespace {

constexpr int kMaxDetourAttempts = 8;  ///< nearest-frontier candidates to try

/// The valve-parity site between two adjacent posts.
Site site_between_posts(Site a, Site b) {
  return Site{(a.row + b.row) / 2, (a.col + b.col) / 2};
}

/// The two end posts of a valve-parity site.
std::pair<Site, Site> end_posts(Site site) {
  if (site.row % 2 != 0) {
    return {Site{site.row - 1, site.col}, Site{site.row + 1, site.col}};
  }
  return {Site{site.row, site.col - 1}, Site{site.row, site.col + 1}};
}

}  // namespace

int dual_post_count(const grid::ValveArray& array) {
  return (array.rows() + 1) * (array.cols() + 1);
}

int dual_post_id(const grid::ValveArray& array, Site post) {
  common::check(has_post_parity(post) && array.in_bounds(post),
                "dual_post_id: not a junction post");
  return (post.row / 2) * (array.cols() + 1) + post.col / 2;
}

Site dual_post_site(const grid::ValveArray& array, int id) {
  const int post_cols = array.cols() + 1;
  return Site{2 * (id / post_cols), 2 * (id % post_cols)};
}

std::vector<int> dual_boundary_arcs(const grid::ValveArray& array,
                                    int* arc_count) {
  std::vector<int> arcs(static_cast<std::size_t>(dual_post_count(array)), -1);

  // Port sites split the boundary ring of posts into arcs. Walk the ring
  // clockwise from post (0,0) and bump the arc id at every port site.
  std::set<Site> port_sites;
  for (const grid::Port& port : array.ports()) {
    port_sites.insert(port.site);
  }
  std::vector<Site> ring;
  const int last_row = 2 * array.rows();
  const int last_col = 2 * array.cols();
  for (int c = 0; c <= last_col; c += 2) ring.push_back(Site{0, c});
  for (int r = 2; r <= last_row; r += 2) ring.push_back(Site{r, last_col});
  for (int c = last_col - 2; c >= 0; c -= 2) ring.push_back(Site{last_row, c});
  for (int r = last_row - 2; r >= 2; r -= 2) ring.push_back(Site{r, 0});

  int arc = 0;
  arcs[static_cast<std::size_t>(dual_post_id(array, ring.front()))] = 0;
  for (std::size_t i = 0; i + 1 < ring.size(); ++i) {
    if (port_sites.count(site_between_posts(ring[i], ring[i + 1]))) {
      ++arc;
    }
    arcs[static_cast<std::size_t>(dual_post_id(array, ring[i + 1]))] = arc;
  }
  // Close the ring: if no port separates the last post from the first, the
  // final arc is the same as arc 0.
  const bool wrap_is_port =
      port_sites.count(site_between_posts(ring.back(), ring.front())) > 0;
  if (!wrap_is_port && arc > 0) {
    for (auto& assigned : arcs) {
      if (assigned == arc) assigned = 0;
    }
    --arc;
  }
  if (arc_count != nullptr) *arc_count = arc + 1;
  return arcs;
}

CutPlanner::CutPlanner(const grid::ValveArray& array) : array_(&array) {
  post_rows_ = array.rows() + 1;
  post_cols_ = array.cols() + 1;
  arc_of_post_ = dual_boundary_arcs(array, &arc_count_);
  const int post_count = post_rows_ * post_cols_;
  arc_posts_.resize(static_cast<std::size_t>(arc_count_));
  for (int p = 0; p < post_count; ++p) {
    const int arc = arc_of_post_[static_cast<std::size_t>(p)];
    if (arc >= 0) arc_posts_[static_cast<std::size_t>(arc)].push_back(p);
  }

  // The dual step table. A step is left out when no cut may ever cross
  // it: an always-open channel cannot be closed, and a port gateway can
  // never be part of a cut (walking along the boundary through walls is
  // free).
  const auto crossable = [&](Site site) {
    if (array.site_kind(site) == grid::SiteKind::kChannel) return false;
    for (const grid::Port& port : array.ports()) {
      if (port.site == site) return false;
    }
    return true;
  };
  static constexpr int kSteps[][2] = {{0, 2}, {0, -2}, {2, 0}, {-2, 0}};
  step_begin_.reserve(static_cast<std::size_t>(post_count) + 1);
  steps_.reserve(4 * static_cast<std::size_t>(post_count));
  step_begin_.push_back(0);
  for (int p = 0; p < post_count; ++p) {
    const Site post = post_site(p);
    for (const auto& step : kSteps) {
      const Site next{post.row + step[0], post.col + step[1]};
      if (!array.in_bounds(next)) continue;
      const Site site = site_between_posts(post, next);
      if (!crossable(site)) continue;
      steps_.push_back(Step{post_id(next), array.valve_id(site)});
    }
    step_begin_.push_back(static_cast<int>(steps_.size()));
  }

  post_mark_.assign(static_cast<std::size_t>(post_count), 0);
  valve_mark_.assign(static_cast<std::size_t>(array.valve_count()), 0);
  bfs_parent_.assign(static_cast<std::size_t>(post_count), -1);
  bfs_mark_.assign(static_cast<std::size_t>(post_count), 0);
  bfs_queue_.reserve(static_cast<std::size_t>(post_count));
}

int CutPlanner::post_id(Site post) const {
  common::check(has_post_parity(post), "post_id: not a junction post");
  return (post.row / 2) * post_cols_ + (post.col / 2);
}

Site CutPlanner::post_site(int id) const {
  return Site{2 * (id / post_cols_), 2 * (id % post_cols_)};
}

std::span<const CutPlanner::Step> CutPlanner::steps_from(int post) const {
  const auto begin = static_cast<std::size_t>(
      step_begin_[static_cast<std::size_t>(post)]);
  const auto end = static_cast<std::size_t>(
      step_begin_[static_cast<std::size_t>(post) + 1]);
  return std::span<const Step>(steps_).subspan(begin, end - begin);
}

bool CutPlanner::crosses(const Step& step, const std::vector<bool>* avoid) {
  return avoid == nullptr || step.valve == grid::kInvalidValve ||
         !(*avoid)[static_cast<std::size_t>(step.valve)];
}

bool CutPlanner::is_terminal(int post, int start_arc) const {
  const int arc = arc_of_post_[static_cast<std::size_t>(post)];
  return arc >= 0 && arc != start_arc;
}

std::vector<int> CutPlanner::bfs_route(const std::vector<int>& from_set,
                                       int goal_arc, int goal_post,
                                       const std::vector<char>& visited,
                                       const std::vector<bool>* avoid) const {
  ++bfs_epoch_;
  bfs_queue_.clear();
  // A single seed is the walk's own (already-visited) head; multi-seeds are
  // candidate arc posts and must respect the visited/blocked mask.
  const bool single_seed = from_set.size() == 1;
  for (const int post : from_set) {
    if (!single_seed && visited[static_cast<std::size_t>(post)]) continue;
    bfs_mark_[static_cast<std::size_t>(post)] = bfs_epoch_;
    bfs_parent_[static_cast<std::size_t>(post)] = -1;
    bfs_queue_.push_back(post);
  }
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int post = bfs_queue_[head];
    const bool arrived =
        goal_post >= 0
            ? post == goal_post
            : (arc_of_post_[static_cast<std::size_t>(post)] >= 0 &&
               arc_of_post_[static_cast<std::size_t>(post)] != goal_arc &&
               goal_arc >= 0);
    if (arrived) {
      std::vector<int> route;
      for (int walk = post; walk >= 0;
           walk = bfs_parent_[static_cast<std::size_t>(walk)]) {
        route.push_back(walk);
      }
      std::reverse(route.begin(), route.end());
      return route;
    }
    for (const Step& step : steps_from(post)) {
      if (!crosses(step, avoid)) continue;
      const int next = step.to;
      if (visited[static_cast<std::size_t>(next)]) continue;
      if (bfs_mark_[static_cast<std::size_t>(next)] == bfs_epoch_) continue;
      bfs_mark_[static_cast<std::size_t>(next)] = bfs_epoch_;
      bfs_parent_[static_cast<std::size_t>(next)] = post;
      bfs_queue_.push_back(next);
    }
  }
  return {};
}

bool CutPlanner::reachable_arc(int from, int start_arc,
                               const std::vector<char>& visited,
                               const std::vector<bool>* avoid) const {
  if (is_terminal(from, start_arc)) return true;
  ++bfs_epoch_;
  bfs_queue_.clear();
  bfs_mark_[static_cast<std::size_t>(from)] = bfs_epoch_;
  bfs_queue_.push_back(from);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    for (const Step& step : steps_from(bfs_queue_[head])) {
      if (!crosses(step, avoid)) continue;
      const int next = step.to;
      if (is_terminal(next, start_arc)) return true;
      if (visited[static_cast<std::size_t>(next)]) continue;
      if (bfs_mark_[static_cast<std::size_t>(next)] == bfs_epoch_) continue;
      bfs_mark_[static_cast<std::size_t>(next)] = bfs_epoch_;
      bfs_queue_.push_back(next);
    }
  }
  return false;
}

std::optional<CutSet> CutPlanner::staircase(int diagonal) const {
  const int max_diagonal = array_->rows() + array_->cols() - 2;
  common::check(diagonal >= 1 && diagonal <= max_diagonal,
                "staircase: diagonal out of range");
  // Posts (2a, 2b) with a+b in {d, d+1}, ordered by a-b, zigzag between the
  // two levels; consecutive posts are grid-adjacent and their midpoints are
  // exactly the valves joining cell anti-diagonals d-1 and d.
  struct Entry {
    int key;
    Site post;
  };
  std::vector<Entry> entries;
  for (int level = diagonal; level <= diagonal + 1; ++level) {
    const int a_low = std::max(0, level - array_->cols());
    const int a_high = std::min(array_->rows(), level);
    for (int a = a_low; a <= a_high; ++a) {
      const int b = level - a;
      entries.push_back(Entry{2 * a - level, Site{2 * a, 2 * b}});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) { return x.key < y.key; });

  CutSet cut;
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    const Site a = entries[i].post;
    const Site b = entries[i + 1].post;
    if (std::abs(a.row - b.row) + std::abs(a.col - b.col) != 2) {
      return std::nullopt;  // clipped chain (degenerate corner diagonal)
    }
    const Site site = site_between_posts(a, b);
    if (array_->site_kind(site) == grid::SiteKind::kChannel) {
      return std::nullopt;  // a fluidic sea breaks this interface
    }
    cut.sites.push_back(site);
  }
  // The zigzag between levels runs along the chip boundary at both ends;
  // those boundary wall crossings are free and carry no information.
  while (!cut.sites.empty() && array_->is_boundary_site(cut.sites.front())) {
    cut.sites.erase(cut.sites.begin());
  }
  while (!cut.sites.empty() && array_->is_boundary_site(cut.sites.back())) {
    cut.sites.pop_back();
  }
  if (cut.sites.empty()) return std::nullopt;
  if (validate_cut_set(*array_, cut).has_value()) return std::nullopt;
  return cut;
}

std::optional<CutSet> CutPlanner::cut_through(grid::ValveId through,
                                              const std::vector<bool>* avoid) {
  return first_cut(through, avoid, nullptr, nullptr);
}

std::optional<CutSet> CutPlanner::first_cut(grid::ValveId through,
                                            const std::vector<bool>* avoid,
                                            const std::vector<bool>* wanted,
                                            const Accept& accept) {
  std::vector<bool> mask(static_cast<std::size_t>(array_->valve_count()),
                         false);
  if (wanted != nullptr) mask = *wanted;
  mask[static_cast<std::size_t>(through)] = true;
  return build_cut(through, mask, avoid, accept);
}

std::optional<CutSet> CutPlanner::build_cut(grid::ValveId seed_valve,
                                            const std::vector<bool>& wanted,
                                            const std::vector<bool>* avoid,
                                            const Accept& accept) {
  if (avoid != nullptr && (*avoid)[static_cast<std::size_t>(seed_valve)]) {
    return std::nullopt;
  }
  const Site seed_site =
      array_->valves()[static_cast<std::size_t>(seed_valve)];
  // End posts of the seed valve.
  Site post_a, post_b;
  if (seed_site.row % 2 != 0) {
    post_a = Site{seed_site.row - 1, seed_site.col};
    post_b = Site{seed_site.row + 1, seed_site.col};
  } else {
    post_a = Site{seed_site.row, seed_site.col - 1};
    post_b = Site{seed_site.row, seed_site.col + 1};
  }

  const int post_count = post_rows_ * post_cols_;
  for (int start_arc = 0; start_arc < arc_count_; ++start_arc) {
    const std::vector<int>& arc_posts =
        arc_posts_[static_cast<std::size_t>(start_arc)];
    if (arc_posts.empty()) continue;
    for (int orientation = 0; orientation < 2; ++orientation) {
      const int first = post_id(orientation == 0 ? post_a : post_b);
      const int second = post_id(orientation == 0 ? post_b : post_a);
      Walk walk;
      walk.start_arc = start_arc;
      walk.visited.assign(static_cast<std::size_t>(post_count), 0);
      // Route from the arc to the first end post, keeping the second end
      // post free for the crossing.
      std::vector<char> blocked = walk.visited;
      blocked[static_cast<std::size_t>(second)] = 1;
      const std::vector<int> route =
          bfs_route(arc_posts, -1, first, blocked, avoid);
      if (route.empty()) continue;
      for (const int post : route) walk.push(post);
      walk.push(second);  // cross the seed valve
      if (!is_terminal(second, start_arc) &&
          !reachable_arc(second, start_arc, walk.visited, avoid)) {
        continue;
      }
      if (!snake(walk, wanted, avoid)) continue;
      auto cut = finalize(walk, avoid);
      if (cut.has_value() && (!accept || accept(*cut))) return cut;
    }
  }
  return std::nullopt;
}

bool CutPlanner::snake(Walk& walk, const std::vector<bool>& wanted,
                       const std::vector<bool>* avoid) {
  int last_step = 0;
  while (!is_terminal(walk.head(), walk.start_arc)) {
    const int head = walk.head();
    int best_to = -1;
    int best_score = -1;
    for (const Step& step : steps_from(head)) {
      if (!crosses(step, avoid)) continue;
      const int next = step.to;
      if (walk.visited[static_cast<std::size_t>(next)]) continue;
      const bool covers = step.valve != grid::kInvalidValve &&
                          wanted[static_cast<std::size_t>(step.valve)];
      if (!covers) continue;
      if (is_terminal(next, walk.start_arc)) {
        walk.push(next);
        return true;  // crossed a wanted valve straight into the far arc
      }
      walk.visited[static_cast<std::size_t>(next)] = 1;
      const bool safe =
          reachable_arc(next, walk.start_arc, walk.visited, avoid);
      walk.visited[static_cast<std::size_t>(next)] = 0;
      if (!safe) continue;
      const int score = (next - head == last_step) ? 1 : 0;
      if (score > best_score) {
        best_score = score;
        best_to = next;
      }
    }
    if (best_to >= 0) {
      last_step = best_to - walk.head();
      walk.push(best_to);
      continue;
    }
    if (!detour(walk, wanted, avoid)) {
      // No more wanted valves reachable: close the cut to the far arc.
      const std::vector<int> route = bfs_route(
          {walk.head()}, walk.start_arc, -1, walk.visited, avoid);
      if (route.size() <= 1) return false;
      for (std::size_t i = 1; i < route.size(); ++i) walk.push(route[i]);
      return true;
    }
    last_step = 0;
  }
  return true;
}

bool CutPlanner::detour(Walk& walk, const std::vector<bool>& wanted,
                        const std::vector<bool>* avoid) {
  // BFS over unvisited posts collecting, nearest first, posts that border a
  // wanted crossing.
  ++bfs_epoch_;
  bfs_queue_.clear();
  const int start = walk.head();
  bfs_mark_[static_cast<std::size_t>(start)] = bfs_epoch_;
  bfs_parent_[static_cast<std::size_t>(start)] = -1;
  bfs_queue_.push_back(start);
  std::vector<int> candidates;
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int post = bfs_queue_[head];
    bool borders_wanted = false;
    for (const Step& step : steps_from(post)) {
      if (!crosses(step, avoid)) continue;
      const int next = step.to;
      if (step.valve != grid::kInvalidValve &&
          wanted[static_cast<std::size_t>(step.valve)] &&
          !walk.visited[static_cast<std::size_t>(next)]) {
        borders_wanted = true;
      }
      if (walk.visited[static_cast<std::size_t>(next)]) continue;
      if (bfs_mark_[static_cast<std::size_t>(next)] == bfs_epoch_) continue;
      bfs_mark_[static_cast<std::size_t>(next)] = bfs_epoch_;
      bfs_parent_[static_cast<std::size_t>(next)] = post;
      bfs_queue_.push_back(next);
    }
    if (post != start && borders_wanted) {
      candidates.push_back(post);
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
    for (int post = candidate; post != start;
         post = bfs_parent_[static_cast<std::size_t>(post)]) {
      route.push_back(post);
    }
    std::reverse(route.begin(), route.end());
    routes.push_back(std::move(route));
  }

  for (const std::vector<int>& route : routes) {
    const std::size_t snapshot = walk.posts.size();
    for (const int post : route) walk.push(post);
    bool usable = false;
    for (const Step& step : steps_from(walk.head())) {
      if (!crosses(step, avoid)) continue;
      if (step.valve == grid::kInvalidValve ||
          !wanted[static_cast<std::size_t>(step.valve)]) {
        continue;
      }
      const int next = step.to;
      if (walk.visited[static_cast<std::size_t>(next)]) continue;
      if (is_terminal(next, walk.start_arc)) {
        usable = true;
        break;
      }
      walk.visited[static_cast<std::size_t>(next)] = 1;
      usable = reachable_arc(next, walk.start_arc, walk.visited, avoid);
      walk.visited[static_cast<std::size_t>(next)] = 0;
      if (usable) break;
    }
    if (usable) return true;
    walk.truncate(snapshot);
  }
  return false;
}

std::optional<CutSet> CutPlanner::finalize(
    Walk& walk, const std::vector<bool>* avoid) const {
  CutSet cut;
  for (std::size_t i = 0; i + 1 < walk.posts.size(); ++i) {
    cut.sites.push_back(site_between_posts(
        post_site(walk.posts[i]), post_site(walk.posts[i + 1])));
  }
  make_chordless(cut);
  if (avoid != nullptr) {
    // Chord absorption (constraint (9)) may have pulled in a valve the
    // caller explicitly excluded; such a cut shape is unusable.
    for (const grid::ValveId v : cut_valves(*array_, cut)) {
      if ((*avoid)[static_cast<std::size_t>(v)]) return std::nullopt;
    }
  }
  if (validate_cut_set(*array_, cut).has_value()) return std::nullopt;
  return cut;
}

void CutPlanner::make_chordless(CutSet& cut) const {
  // Mark the posts the curve touches and the valves already in the cut.
  ++mark_epoch_;
  curve_posts_.clear();
  for (const Site site : cut.sites) {
    const auto [a, b] = end_posts(site);
    for (const int post : {post_id(a), post_id(b)}) {
      int& mark = post_mark_[static_cast<std::size_t>(post)];
      if (mark == mark_epoch_) continue;
      mark = mark_epoch_;
      curve_posts_.push_back(post);
    }
    const grid::ValveId id = array_->valve_id(site);
    if (id != grid::kInvalidValve) {
      valve_mark_[static_cast<std::size_t>(id)] = mark_epoch_;
    }
  }
  // A chord joins two curve posts, so it is a step out of a curve post.
  // Channels are no steps and cannot be absorbed; validate_cut_set decides
  // if that matters.
  std::vector<grid::ValveId> chords;
  for (const int post : curve_posts_) {
    for (const Step& step : steps_from(post)) {
      if (step.valve == grid::kInvalidValve ||
          post_mark_[static_cast<std::size_t>(step.to)] != mark_epoch_) {
        continue;
      }
      int& mark = valve_mark_[static_cast<std::size_t>(step.valve)];
      if (mark == mark_epoch_) continue;  // in the cut, or found already
      mark = mark_epoch_;
      chords.push_back(step.valve);
    }
  }
  std::sort(chords.begin(), chords.end());
  for (const grid::ValveId id : chords) {
    cut.sites.push_back(array_->valves()[static_cast<std::size_t>(id)]);
  }
}

std::optional<CutSet> find_detecting_cut(CutPlanner& planner,
                                         const sim::Simulator& simulator,
                                         grid::ValveId valve,
                                         int max_attempts,
                                         const std::vector<bool>* wanted) {
  const grid::ValveArray& array = planner.array();
  const grid::Site site = array.valves()[static_cast<std::size_t>(valve)];
  const auto [side_a, side_b] = array.sides(site);
  const sim::Fault fault[] = {sim::stuck_at_1(valve)};

  // The valves sharing a cell with the target: closing the wrong subset of
  // them starves the leak route (the Fig. 5(d) masking). Retry shapes that
  // avoid each of them in turn, then all at once as a last resort.
  std::vector<grid::ValveId> neighbors;
  for (const grid::Cell cell :
       {side_a.value_or(grid::Cell{-9, -9}),
        side_b.value_or(grid::Cell{-9, -9})}) {
    if (!array.cell_in_bounds(cell)) continue;
    for (const grid::Direction direction : grid::kAllDirections) {
      const grid::ValveId other =
          array.valve_id(valve_site_of(cell, direction));
      if (other != grid::kInvalidValve && other != valve) {
        neighbors.push_back(other);
      }
    }
  }

  std::vector<bool> avoid(static_cast<std::size_t>(array.valve_count()),
                          false);
  int attempts = 0;
  const CutPlanner::Accept detects = [&](const CutSet& cut) {
    return simulator.detects(to_test_vector(array, simulator, cut, "probe"),
                             fault);
  };
  const auto probe = [&](const std::vector<bool>* mask) {
    return planner.first_cut(valve, mask, wanted, detects);
  };

  if (auto cut = probe(nullptr); cut.has_value()) return cut;
  ++attempts;
  for (const grid::ValveId neighbor : neighbors) {
    if (attempts >= max_attempts) break;
    std::fill(avoid.begin(), avoid.end(), false);
    avoid[static_cast<std::size_t>(neighbor)] = true;
    if (auto cut = probe(&avoid); cut.has_value()) return cut;
    ++attempts;
  }
  if (attempts < max_attempts && neighbors.size() > 1) {
    std::fill(avoid.begin(), avoid.end(), false);
    for (const grid::ValveId neighbor : neighbors) {
      avoid[static_cast<std::size_t>(neighbor)] = true;
    }
    if (auto cut = probe(&avoid); cut.has_value()) return cut;
  }
  return std::nullopt;
}

}  // namespace fpva::core

#include "sim/diagnosis/dd_cache.h"

#include <algorithm>

#include "common/check.h"

namespace fpva::sim::diagnosis {

namespace {

/// FNV-1a over the two key spans. 64-bit, platform-stable.
std::uint64_t hash_key(std::span<const std::uint64_t> applied_words,
                       std::span<const int> surviving) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  for (const std::uint64_t word : applied_words) mix(word);
  mix(0x517cc1b727220a95ULL);  // domain separator: words vs indices
  for (const int index : surviving) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(index)));
  }
  return hash;
}

}  // namespace

int DecisionDiagramCache::intern(
    std::span<const std::uint64_t> applied_words,
    std::span<const int> surviving) {
  const std::uint64_t hash = hash_key(applied_words, surviving);
  const auto bucket = buckets_.find(hash);
  int head = bucket == buckets_.end() ? kNoNode : bucket->second;
  // Collisions chain through Node::next; exact key comparison makes hash
  // collisions harmless (two states never alias).
  for (int id = head; id != kNoNode; id = nodes_[static_cast<std::size_t>(
                                         id)].next) {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    if (std::equal(node.applied.begin(), node.applied.end(),
                   applied_words.begin(), applied_words.end()) &&
        std::equal(node.surviving.begin(), node.surviving.end(),
                   surviving.begin(), surviving.end())) {
      return id;
    }
  }
  const int id = static_cast<int>(nodes_.size());
  Node node;
  node.applied.assign(applied_words.begin(), applied_words.end());
  node.surviving.assign(surviving.begin(), surviving.end());
  node.next = head;
  nodes_.push_back(std::move(node));
  buckets_[hash] = id;
  return id;
}

std::span<const int> DecisionDiagramCache::surviving(int node) const {
  common::check(node >= 0 && node < node_count(),
                "DecisionDiagramCache: bad node id");
  return nodes_[static_cast<std::size_t>(node)].surviving;
}

int DecisionDiagramCache::chosen_test(int node) const {
  common::check(node >= 0 && node < node_count(),
                "DecisionDiagramCache: bad node id");
  return nodes_[static_cast<std::size_t>(node)].test;
}

void DecisionDiagramCache::set_chosen_test(int node, int test) {
  common::check(node >= 0 && node < node_count(),
                "DecisionDiagramCache: bad node id");
  nodes_[static_cast<std::size_t>(node)].test = test;
}

int DecisionDiagramCache::child(int node, std::uint32_t outcome) const {
  common::check(node >= 0 && node < node_count(),
                "DecisionDiagramCache: bad node id");
  const auto& children = nodes_[static_cast<std::size_t>(node)].children;
  const auto it = std::lower_bound(
      children.begin(), children.end(), outcome,
      [](const std::pair<std::uint32_t, int>& edge, std::uint32_t key) {
        return edge.first < key;
      });
  return it != children.end() && it->first == outcome ? it->second : kNoNode;
}

void DecisionDiagramCache::link_child(int node, std::uint32_t outcome,
                                      int child) {
  common::check(node >= 0 && node < node_count(),
                "DecisionDiagramCache: bad node id");
  common::check(child >= 0 && child < node_count(),
                "DecisionDiagramCache: bad child id");
  auto& children = nodes_[static_cast<std::size_t>(node)].children;
  const auto it = std::lower_bound(
      children.begin(), children.end(), outcome,
      [](const std::pair<std::uint32_t, int>& edge, std::uint32_t key) {
        return edge.first < key;
      });
  if (it != children.end() && it->first == outcome) {
    common::check(it->second == child,
                  "DecisionDiagramCache: conflicting child for outcome");
    return;
  }
  children.insert(it, {outcome, child});
}

}  // namespace fpva::sim::diagnosis

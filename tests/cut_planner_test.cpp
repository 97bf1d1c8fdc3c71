#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "core/cut_planner.h"
#include "core/generator.h"
#include "grid/builder.h"
#include "grid/presets.h"

namespace fpva::core {
namespace {

using grid::Cell;
using grid::Site;

TEST(DualGridTest, PostIdsRoundTrip) {
  const auto array = grid::full_array(3, 5);
  EXPECT_EQ(dual_post_count(array), 4 * 6);
  for (int id = 0; id < dual_post_count(array); ++id) {
    const Site post = dual_post_site(array, id);
    EXPECT_TRUE(has_post_parity(post));
    EXPECT_EQ(dual_post_id(array, post), id);
  }
}

TEST(DualGridTest, DefaultPortsMakeTwoArcs) {
  const auto array = grid::full_array(4, 4);
  int arc_count = 0;
  const auto arcs = dual_boundary_arcs(array, &arc_count);
  EXPECT_EQ(arc_count, 2);
  // Interior posts carry no arc.
  EXPECT_EQ(arcs[static_cast<std::size_t>(
                dual_post_id(array, Site{2, 2}))],
            -1);
  // Post above the source (0,0) and post below it land in different arcs.
  const int above = arcs[static_cast<std::size_t>(
      dual_post_id(array, Site{0, 0}))];
  const int below = arcs[static_cast<std::size_t>(
      dual_post_id(array, Site{2, 0}))];
  EXPECT_NE(above, below);
}

TEST(CutPlannerTest, StaircasePartitionsFullArrayValves) {
  const auto array = grid::full_array(5, 5);
  CutPlanner planner(array);
  std::set<Site> seen;
  int total = 0;
  for (int d = 1; d <= 8; ++d) {
    const auto cut = planner.staircase(d);
    ASSERT_TRUE(cut.has_value()) << "d=" << d;
    EXPECT_EQ(validate_cut_set(array, *cut), std::nullopt);
    for (const Site site : cut->sites) {
      EXPECT_TRUE(seen.insert(site).second)
          << "site " << grid::to_string(site) << " in two staircases";
      ++total;
    }
  }
  // The 2n-2 staircases cover every internal valve exactly once.
  EXPECT_EQ(total, array.valve_count());
}

TEST(CutPlannerTest, StaircaseCountMatchesTable1Law) {
  // n_c = 2n-2 staircases on full arrays reproduces Table I's cut counts:
  // every staircase exists, and the generator's cut stage needs no more.
  for (const int n : {5, 10, 15}) {
    const auto array = grid::full_array(n, n);
    const CutPlanner planner(array);
    for (int d = 1; d <= 2 * n - 2; ++d) {
      EXPECT_TRUE(planner.staircase(d).has_value()) << "n=" << n << " d=" << d;
    }
    const auto set = generate_test_set(array);
    EXPECT_EQ(set.cut_stage.vectors, 2 * n - 2) << "n=" << n;
    EXPECT_TRUE(set.undetected.empty()) << "n=" << n;
  }
}

TEST(CutPlannerTest, ChannelBreaksOneStaircase) {
  // The generator patches the broken interface with snake cuts (see
  // CutCoverSweep).
  const auto array = grid::table1_array(5);  // channel at (5,4), interface 4
  CutPlanner planner(array);
  EXPECT_FALSE(planner.staircase(4).has_value());
  EXPECT_TRUE(planner.staircase(3).has_value());
}

class CutCoverSweep : public ::testing::TestWithParam<int> {};

// The generator's cuts -- staircases plus dual-snake patches -- are valid
// cut-sets and together contain every valve of the preset.
TEST_P(CutCoverSweep, CoversTable1Array) {
  const auto array = grid::table1_array(GetParam());
  const auto set = generate_test_set(array);
  std::vector<bool> covered(static_cast<std::size_t>(array.valve_count()),
                            false);
  for (const CutSet& cut : set.cuts) {
    EXPECT_EQ(validate_cut_set(array, cut), std::nullopt);
    for (const grid::ValveId v : cut_valves(array, cut)) {
      covered[static_cast<std::size_t>(v)] = true;
    }
  }
  int missing = 0;
  for (const bool c : covered) missing += !c;
  EXPECT_EQ(missing, 0);
}

INSTANTIATE_TEST_SUITE_P(Table1, CutCoverSweep,
                         ::testing::Values(5, 10, 15, 20));

TEST(CutPlannerTest, CutThroughSpecificValve) {
  const auto array = grid::full_array(5, 5);
  CutPlanner planner(array);
  for (const grid::ValveId v : {0, 13, 27, 39}) {
    const auto cut = planner.cut_through(v);
    ASSERT_TRUE(cut.has_value()) << "valve " << v;
    EXPECT_EQ(validate_cut_set(array, *cut), std::nullopt);
    const auto valves = cut_valves(array, *cut);
    EXPECT_NE(std::find(valves.begin(), valves.end(), v), valves.end());
  }
}

TEST(CutPlannerTest, CutThroughRespectsAvoid) {
  const auto array = grid::full_array(4, 4);
  CutPlanner planner(array);
  std::vector<bool> avoid(static_cast<std::size_t>(array.valve_count()),
                          false);
  avoid[3] = avoid[8] = true;
  const auto cut = planner.cut_through(12, &avoid);
  if (cut.has_value()) {
    for (const grid::ValveId v : cut_valves(array, *cut)) {
      EXPECT_FALSE(avoid[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(CutPlannerTest, ChordlessAbsorbsBracketedValves) {
  // The U-shaped dual path (2,2)->(4,2)->(4,4)->(2,4) crosses sites (3,2),
  // (4,3) and (3,4). Its open ends, posts (2,2) and (2,4), are the two end
  // posts of the valve at site (2,3): that valve is a chord of the curve,
  // and constraint (9) makes make_chordless absorb it.
  const auto array = grid::full_array(3, 3);
  CutPlanner planner(array);
  CutSet cut;
  cut.sites = {Site{3, 2}, Site{4, 3}, Site{3, 4}};
  planner.make_chordless(cut);
  EXPECT_NE(std::find(cut.sites.begin(), cut.sites.end(), (Site{2, 3})),
            cut.sites.end());
}

/// The two end posts of a valve-parity site.
std::pair<Site, Site> end_posts(Site site) {
  if (site.row % 2 != 0) {
    return {Site{site.row - 1, site.col}, Site{site.row + 1, site.col}};
  }
  return {Site{site.row, site.col - 1}, Site{site.row, site.col + 1}};
}

/// Oracle for CutPlanner::make_chordless: scan every valve of the array in
/// ValveId (row-major) order and append each one that is not in the cut
/// and has both end posts on the curve.
void chordless_by_full_scan(const grid::ValveArray& array, CutSet& cut) {
  std::set<Site> in_cut(cut.sites.begin(), cut.sites.end());
  std::set<Site> on_curve;
  for (const Site site : cut.sites) {
    const auto [a, b] = end_posts(site);
    on_curve.insert(a);
    on_curve.insert(b);
  }
  for (const Site site : array.valves()) {
    if (in_cut.count(site)) continue;
    const auto [a, b] = end_posts(site);
    if (on_curve.count(a) && on_curve.count(b)) {
      cut.sites.push_back(site);
      in_cut.insert(site);
    }
  }
}

grid::ValveArray oracle_layout(const std::string& name) {
  if (name == "full_6x6") return grid::full_array(6, 6);
  if (name == "table1_5") return grid::table1_array(5);
  if (name == "table1_10") return grid::table1_array(10);
  return grid::LayoutBuilder(6, 6)  // "channel_cross"
      .channel_run(Site{5, 4}, Site{5, 8})
      .channel_run(Site{6, 7}, Site{8, 7})
      .default_ports()
      .build();
}

class ChordlessOracleSweep : public ::testing::TestWithParam<std::string> {};

// Every cut the generator emits, each of its one-site-short copies (the
// dropped site becomes a chord when both of its posts stay on the curve),
// and each of its tail-truncated copies (make_chordless appends chords at
// the tail, so these bring back the multi-chord curves from before
// absorption): the planner must absorb the same chords in the same order
// as the full scan.
TEST_P(ChordlessOracleSweep, MatchesFullValveScan) {
  const grid::ValveArray array = oracle_layout(GetParam());
  const CutPlanner planner(array);
  const auto set = generate_test_set(array);
  ASSERT_FALSE(set.cuts.empty());
  int chords = 0;
  const auto check = [&](const CutSet& input, const std::string& label) {
    CutSet expected = input;
    chordless_by_full_scan(array, expected);
    CutSet actual = input;
    planner.make_chordless(actual);
    ASSERT_EQ(actual.sites, expected.sites) << label;
    chords += static_cast<int>(expected.sites.size() - input.sites.size());
  };
  for (const CutSet& emitted : set.cuts) {
    // Constraint (9) holds on every emitted cut, staircases included.
    CutSet absorbed = emitted;
    chordless_by_full_scan(array, absorbed);
    EXPECT_EQ(absorbed.sites, emitted.sites);
    const std::size_t size = emitted.sites.size();
    for (std::size_t drop = 0; drop <= size; ++drop) {
      CutSet input = emitted;
      if (drop < size) {
        input.sites.erase(input.sites.begin() +
                          static_cast<std::ptrdiff_t>(drop));
      }
      check(input, "drop=" + std::to_string(drop));
    }
    for (std::size_t keep = 1; keep < size; ++keep) {
      CutSet input = emitted;
      input.sites.resize(keep);
      check(input, "keep=" + std::to_string(keep));
    }
  }
  EXPECT_GT(chords, 0);  // the sweep exercised real absorption
}

INSTANTIATE_TEST_SUITE_P(Layouts, ChordlessOracleSweep,
                         ::testing::Values("full_6x6", "table1_5", "table1_10",
                                           "channel_cross"),
                         [](const auto& instance) { return instance.param; });

TEST(CutSetTest, ValidateRejectsNonSeparatingSets) {
  const auto array = grid::full_array(3, 3);
  CutSet empty;
  EXPECT_TRUE(validate_cut_set(array, empty).has_value());
  CutSet partial;
  partial.sites = {Site{1, 2}};  // one valve cannot separate
  EXPECT_TRUE(validate_cut_set(array, partial).has_value());
}

TEST(CutSetTest, ValidateRejectsChannelSites) {
  const auto array = grid::table1_array(5);
  CutSet cut;
  cut.sites = {Site{5, 4}};  // the preset channel
  const auto problem = validate_cut_set(array, cut);
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("channel"), std::string::npos);
}

TEST(CutSetTest, VectorExpectationsAreSilent) {
  const auto array = grid::full_array(4, 4);
  const sim::Simulator simulator(array);
  CutPlanner planner(array);
  const auto cut = planner.staircase(3);
  ASSERT_TRUE(cut.has_value());
  const auto vector = to_test_vector(array, simulator, *cut, "c");
  EXPECT_EQ(vector.kind, sim::VectorKind::kCutSet);
  for (const bool reading : vector.expected) {
    EXPECT_FALSE(reading);
  }
  // Every cut valve's stuck-at-1 leak is visible through this vector.
  for (const grid::ValveId v : cut_valves(array, *cut)) {
    const sim::Fault fault[] = {sim::stuck_at_1(v)};
    EXPECT_TRUE(simulator.detects(vector, fault)) << "valve " << v;
  }
}

}  // namespace
}  // namespace fpva::core

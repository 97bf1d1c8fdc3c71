#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "grid/serialize.h"

namespace fpva::grid {
namespace {

TEST(SiteTest, ParityClassification) {
  EXPECT_TRUE(has_cell_parity(Site{1, 1}));
  EXPECT_TRUE(has_valve_parity(Site{1, 2}));
  EXPECT_TRUE(has_valve_parity(Site{2, 1}));
  EXPECT_TRUE(has_post_parity(Site{2, 2}));
  EXPECT_FALSE(has_valve_parity(Site{1, 1}));
  EXPECT_FALSE(has_cell_parity(Site{0, 0}));
}

TEST(SiteTest, CellSiteRoundTrip) {
  const Cell cell{3, 7};
  EXPECT_EQ(cell.site(), (Site{7, 15}));
  EXPECT_EQ(cell.diagonal(), 10);
}

TEST(SiteTest, ValveSiteOfDirections) {
  const Cell cell{2, 2};  // site (5,5)
  EXPECT_EQ(valve_site_of(cell, Direction::kUp), (Site{4, 5}));
  EXPECT_EQ(valve_site_of(cell, Direction::kDown), (Site{6, 5}));
  EXPECT_EQ(valve_site_of(cell, Direction::kLeft), (Site{5, 4}));
  EXPECT_EQ(valve_site_of(cell, Direction::kRight), (Site{5, 6}));
}

TEST(SiteTest, OppositeDirections) {
  EXPECT_EQ(opposite(Direction::kUp), Direction::kDown);
  EXPECT_EQ(opposite(Direction::kLeft), Direction::kRight);
}

TEST(BuilderTest, FullArrayCounts) {
  const ValveArray array = full_array(5, 5);
  EXPECT_EQ(array.rows(), 5);
  EXPECT_EQ(array.cols(), 5);
  // 2 * 5 * 4 internal valve sites.
  EXPECT_EQ(array.valve_count(), 40);
  EXPECT_EQ(array.fluid_cell_count(), 25);
  EXPECT_EQ(array.channel_count(), 0);
  EXPECT_EQ(array.ports().size(), 2u);
}

TEST(BuilderTest, RectangularArrayCounts) {
  const ValveArray array = full_array(3, 7);
  EXPECT_EQ(array.valve_count(), 3 * 6 + 2 * 7);
}

TEST(BuilderTest, ChannelReducesValveCount) {
  const ValveArray array =
      LayoutBuilder(4, 4).channel(Site{3, 4}).default_ports().build();
  EXPECT_EQ(array.valve_count(), 2 * 4 * 3 - 1);
  EXPECT_EQ(array.channel_count(), 1);
  EXPECT_EQ(array.site_kind(Site{3, 4}), SiteKind::kChannel);
}

TEST(BuilderTest, ObstacleTurnsFrontierIntoWalls) {
  const ValveArray array = LayoutBuilder(5, 5)
                               .obstacle_rect(Cell{2, 2}, Cell{2, 2})
                               .default_ports()
                               .build();
  EXPECT_EQ(array.cell_kind(Cell{2, 2}), CellKind::kObstacle);
  EXPECT_EQ(array.site_kind(Site{5, 4}), SiteKind::kWall);
  EXPECT_EQ(array.site_kind(Site{5, 6}), SiteKind::kWall);
  EXPECT_EQ(array.site_kind(Site{4, 5}), SiteKind::kWall);
  EXPECT_EQ(array.site_kind(Site{6, 5}), SiteKind::kWall);
  EXPECT_EQ(array.valve_count(), 40 - 4);
  EXPECT_EQ(array.fluid_cell_count(), 24);
}

TEST(BuilderTest, PortValidation) {
  EXPECT_THROW(LayoutBuilder(3, 3).port(Site{3, 3}, PortKind::kSource, "x"),
               common::Error);
  EXPECT_THROW(LayoutBuilder(3, 3).port(Site{1, 2}, PortKind::kSource, "x"),
               common::Error);
  // No sink -> build fails.
  EXPECT_THROW(
      LayoutBuilder(3, 3).port(Site{1, 0}, PortKind::kSource, "s").build(),
      common::Error);
  // Duplicate names -> build fails.
  EXPECT_THROW(LayoutBuilder(3, 3)
                   .port(Site{1, 0}, PortKind::kSource, "p")
                   .port(Site{3, 0}, PortKind::kSink, "p")
                   .build(),
               common::Error);
}

TEST(BuilderTest, ChannelOnChannelThrows) {
  LayoutBuilder builder(4, 4);
  builder.channel(Site{3, 4});
  EXPECT_THROW(builder.channel(Site{3, 4}), common::Error);
}

TEST(ArrayTest, SidesOfInternalAndBoundarySites) {
  const ValveArray array = full_array(3, 3);
  const auto [left, right] = array.sides(Site{1, 2});
  ASSERT_TRUE(left.has_value());
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(*left, (Cell{0, 0}));
  EXPECT_EQ(*right, (Cell{0, 1}));

  const auto [first, second] = array.sides(Site{1, 0});
  EXPECT_TRUE(first.has_value() != second.has_value());
}

TEST(ArrayTest, ValveIdsAreDenseRowMajor) {
  const ValveArray array = full_array(3, 3);
  int expected = 0;
  for (const Site site : array.valves()) {
    EXPECT_EQ(array.valve_id(site), expected++);
  }
  EXPECT_EQ(expected, array.valve_count());
  EXPECT_EQ(array.valve_id(Site{0, 1}), kInvalidValve);  // boundary wall
  EXPECT_EQ(array.valve_id(Site{1, 1}), kInvalidValve);  // a cell
}

TEST(ArrayTest, PortCells) {
  const ValveArray array = full_array(4, 6);
  const auto sources = array.ports_of_kind(PortKind::kSource);
  const auto sinks = array.ports_of_kind(PortKind::kSink);
  ASSERT_EQ(sources.size(), 1u);
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(array.port_cell(array.ports()[static_cast<std::size_t>(
                sources[0])]),
            (Cell{0, 0}));
  EXPECT_EQ(
      array.port_cell(array.ports()[static_cast<std::size_t>(sinks[0])]),
      (Cell{3, 5}));
}

TEST(PresetTest, Table1ValveCountsMatchPaper) {
  for (const int n : table1_sizes()) {
    const ValveArray array = table1_array(n);
    EXPECT_EQ(array.valve_count(), table1_valve_count(n)) << "n=" << n;
    EXPECT_EQ(array.rows(), n);
  }
}

TEST(PresetTest, Fig9ArrayHasThreeChannelsAndTwoObstacles) {
  const ValveArray array = fig9_array();
  EXPECT_EQ(array.valve_count(), 744);
  EXPECT_EQ(array.channel_count(), 8);  // three runs: 3 + 3 + 2 segments
  int obstacles = 0;
  for (int i = 0; i < array.rows() * array.cols(); ++i) {
    if (array.cell_kind(array.cell_at_index(i)) == CellKind::kObstacle) {
      ++obstacles;
    }
  }
  EXPECT_EQ(obstacles, 2);
}

TEST(SerializeTest, AsciiRoundTrip) {
  const ValveArray original = table1_array(10);
  const std::string text = to_ascii(original);
  const ValveArray parsed = parse_ascii(text);
  EXPECT_EQ(parsed.rows(), original.rows());
  EXPECT_EQ(parsed.cols(), original.cols());
  EXPECT_EQ(parsed.valve_count(), original.valve_count());
  EXPECT_EQ(parsed.channel_count(), original.channel_count());
  EXPECT_EQ(parsed.ports().size(), original.ports().size());
  EXPECT_EQ(to_ascii(parsed), text);
}

TEST(SerializeTest, RejectsMalformedMaps) {
  EXPECT_THROW(parse_ascii(""), common::Error);
  EXPECT_THROW(parse_ascii("+#+\n#.#"), common::Error);   // even rows
  EXPECT_THROW(parse_ascii("+#+\n#.\n+#+"), common::Error);  // ragged
  EXPECT_THROW(parse_ascii("+#+\n#?#\n+#+"), common::Error);  // bad glyph
  // Glyphs the built array contradicts: a valve on the boundary ring
  // (built as a wall) and a wall between two fluid cells (built as a
  // valve).
  EXPECT_THROW(parse_ascii("+v+\nS.M\n+#+"), common::Error);
  EXPECT_THROW(parse_ascii("+#+#+\nS.#.M\n+#+#+"), common::Error);
}

TEST(SerializeTest, ParseRequiresPorts) {
  EXPECT_THROW(parse_ascii("+#+\n#.#\n+#+"), common::Error);
  const ValveArray array = parse_ascii("+#+\nS.M\n+#+");
  EXPECT_EQ(array.valve_count(), 0);
  EXPECT_EQ(array.ports().size(), 2u);
}

/// Every glyph the site-map legend knows.
constexpr char kGlyphs[] = {'+', '.', '#', 'v', 'o', 'S', 'M'};

/// A mutated map must either be rejected with common::Error or parse into
/// an array that renders back to exactly that map. Returns whether it was
/// accepted.
bool expect_rejected_or_round_trip(const std::string& mutated,
                                   const std::string& context) {
  try {
    const ValveArray parsed = parse_ascii(mutated);
    EXPECT_EQ(to_ascii(parsed), mutated) << context;
    return true;
  } catch (const common::Error&) {
    return false;
  }
}

TEST(SerializeTest, EverySingleGlyphMutationThrowsOrRoundTrips) {
  // All 49 sites x 6 other glyphs of the full 3x3 map.
  const std::string text = to_ascii(full_array(3, 3));
  int accepted = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') continue;
    for (const char glyph : kGlyphs) {
      if (glyph == text[i]) continue;
      std::string mutated = text;
      mutated[i] = glyph;
      accepted += expect_rejected_or_round_trip(
                      mutated, "offset " + std::to_string(i) + " glyph " +
                                   std::string(1, glyph))
                      ? 1
                      : 0;
    }
  }
  EXPECT_GT(accepted, 0);  // e.g. a valve turned into an open channel
}

TEST(SerializeTest, SeededMutationsOfPresetsThrowOrRoundTrip) {
  std::vector<ValveArray> arrays;
  for (const int n : table1_sizes()) arrays.push_back(table1_array(n));
  arrays.push_back(fig9_array());
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const std::string text = to_ascii(arrays[a]);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      common::Rng rng(seed * 7919 + a);
      std::string mutated = text;
      // One to three glyph changes per map.
      const auto changes = static_cast<int>(rng.next_in(1, 3));
      for (int k = 0; k < changes; ++k) {
        std::size_t i = 0;
        do {
          i = static_cast<std::size_t>(rng.next_below(mutated.size()));
        } while (mutated[i] == '\n');
        mutated[i] = kGlyphs[rng.next_below(std::size(kGlyphs))];
      }
      expect_rejected_or_round_trip(
          mutated, "array " + std::to_string(a) + " seed=" +
                       std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace fpva::grid

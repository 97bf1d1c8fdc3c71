#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>

#include "core/generator.h"
#include "core/report.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "sim/campaign.h"

namespace fpva::core {
namespace {

using grid::Cell;
using grid::Site;

TEST(BypassAnalysisTest, CleanArraysHaveNoBypassedValves) {
  EXPECT_TRUE(channel_bypassed_valves(grid::full_array(5, 5)).empty());
  for (const int n : grid::table1_sizes()) {
    EXPECT_TRUE(channel_bypassed_valves(grid::table1_array(n)).empty())
        << "n=" << n;
  }
}

TEST(BypassAnalysisTest, ParallelChannelsBypassAValve) {
  // Channels above and left of cell pair ((0,1),(1,1)) would not bypass;
  // build an actual bypass: channels (1,2) and ... a valve is bypassed when
  // its two side cells join through channel links. Make a 2x2 array where
  // sites (1,2) and (2,1) and (2,3) are channels: then the valve (3,2)
  // between (1,0),(1,1) has sides connected via (1,0)-(0,0)-(0,1)-(1,1)?
  // Those hops use channels (2,1): (0,0)-(1,0); (1,2): (0,0)-(0,1); (2,3):
  // (0,1)-(1,1). So sides of (3,2) connect -> bypassed.
  const auto array = grid::LayoutBuilder(2, 2)
                         .channel(Site{1, 2})
                         .channel(Site{2, 1})
                         .channel(Site{2, 3})
                         .default_ports()
                         .build();
  const auto bypassed = channel_bypassed_valves(array);
  ASSERT_EQ(bypassed.size(), 1u);
  EXPECT_EQ(array.valves()[static_cast<std::size_t>(bypassed[0])],
            (Site{3, 2}));
}

class GeneratorSweep : public ::testing::TestWithParam<int> {};

/// Testable faults of `set` that the scalar Simulator finds no vector
/// for: every sa0/sa1 on a valve outside set.untestable and every control
/// leak outside set.untestable_leaks. An oracle independent of the
/// batched coverage code the generator itself runs on.
std::vector<sim::Fault> scalar_escapes(const grid::ValveArray& array,
                                       const GeneratedTestSet& set) {
  const sim::Simulator simulator(array);
  std::vector<sim::Fault> faults;
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    if (std::find(set.untestable.begin(), set.untestable.end(), v) ==
        set.untestable.end()) {
      faults.push_back(sim::stuck_at_0(v));
      faults.push_back(sim::stuck_at_1(v));
    }
  }
  for (const sim::Fault& leak : sim::control_leak_universe(array)) {
    if (std::find(set.untestable_leaks.begin(), set.untestable_leaks.end(),
                  leak) == set.untestable_leaks.end()) {
      faults.push_back(leak);
    }
  }
  std::vector<sim::Fault> escapes;
  for (const sim::Fault& fault : faults) {
    const sim::Fault injected[] = {fault};
    if (!simulator.any_detects(set.vectors, injected)) {
      escapes.push_back(fault);
    }
  }
  return escapes;
}

// The headline property: the generated set detects every single testable
// stuck fault and every control-leak pair -- by its own final sweep and by
// an independent scalar re-check.
TEST_P(GeneratorSweep, FullSingleFaultCoverage) {
  const auto array = grid::table1_array(GetParam());
  const auto set = generate_test_set(array);
  EXPECT_TRUE(set.untestable.empty());
  EXPECT_TRUE(set.undetected.empty())
      << set.undetected.size() << " undetected, first: "
      << (set.undetected.empty() ? "" : to_string(set.undetected.front()));
  const auto escapes = scalar_escapes(array, set);
  EXPECT_TRUE(escapes.empty()) << escapes.size() << " scalar escapes: "
                               << sim::to_string(escapes);
  EXPECT_GT(set.path_stage.vectors, 0);
  EXPECT_GT(set.cut_stage.vectors, 0);
}

INSTANTIATE_TEST_SUITE_P(Table1, GeneratorSweep, ::testing::Values(5, 10));

TEST(GeneratorTest, VectorCountsStayBelowBlowUpCeilings) {
  // Measured: the default (flat) generator emits N = 45 vectors on this
  // preset (n_v = 176), about 3.4*sqrt(n_v); the paper's Table I reports
  // 26 (~2*sqrt(n_v)). The bounds are generous ceilings that catch a
  // blow-up, not a reproduction of the paper's count.
  const auto array = grid::table1_array(10);
  const auto set = generate_test_set(array);
  const double nv = array.valve_count();
  EXPECT_LT(set.total_vectors(), 6.0 * std::sqrt(nv));
  EXPECT_LT(set.total_vectors(), 2 * array.valve_count() / 3);
}

TEST(GeneratorTest, HierarchicalModeCoversAndAddsPaths) {
  // Fig. 8 on a full 10x10 array: the paper's ILP needs 2 paths direct and
  // 4 with 5x5 subblocks; the constructive engine needs 5 and 10. The
  // hierarchy trades path count for scalability.
  const auto array = grid::full_array(10, 10);
  const auto direct_set = generate_test_set(array);

  GeneratorOptions hier;
  hier.hierarchical = true;
  hier.block_size = 5;
  const auto hier_set = generate_test_set(array, hier);

  EXPECT_TRUE(hier_set.undetected.empty());
  EXPECT_EQ(direct_set.path_stage.vectors, 5);
  EXPECT_EQ(hier_set.path_stage.vectors, 10);
  EXPECT_TRUE(direct_set.undetected.empty());
}

TEST(GeneratorTest, IlpEngineEndToEndOnTinyArray) {
  // The paper's exact ILP formulation as the path engine, end to end.
  const auto array = grid::full_array(3, 3);
  GeneratorOptions options;
  options.path_engine = GeneratorOptions::PathEngine::kIlp;
  const auto set = generate_test_set(array, options);
  EXPECT_TRUE(set.undetected.empty());
  // The ILP finds the minimum cover (2-3 paths on a full 3x3).
  EXPECT_LE(set.paths.size(), 3u);
  for (const auto& path : set.paths) {
    EXPECT_EQ(validate_flow_path(array, path), std::nullopt);
  }
}

TEST(GeneratorTest, IlpEngineFallsBackAboveLimit) {
  const auto array = grid::full_array(8, 8);  // 112 valves > the limit, 60
  GeneratorOptions options;
  options.path_engine = GeneratorOptions::PathEngine::kIlp;
  const auto set = generate_test_set(array, options);  // constructive path
  EXPECT_FALSE(set.paths.empty());
  EXPECT_EQ(set.paths.size(), generate_test_set(array).paths.size());
}

TEST(GeneratorTest, LeakVectorsCoverAllTestablePairs) {
  const auto array = grid::full_array(5, 5);
  const auto set = generate_test_set(array);
  const auto escapes = scalar_escapes(array, set);
  EXPECT_TRUE(escapes.empty())
      << escapes.size() << " faults undetected: " << sim::to_string(escapes);
  // Exactly the two port-less corners of the array are untestable: any
  // route into a degree-2 corner cell uses both of its valves, so the pair
  // can never be separated.
  EXPECT_EQ(set.untestable_leaks.size(), 2u);
}

TEST(GeneratorTest, UntestableValvesAreReportedNotChased) {
  const auto array = grid::LayoutBuilder(2, 2)
                         .channel(Site{1, 2})
                         .channel(Site{2, 1})
                         .channel(Site{2, 3})
                         .default_ports()
                         .build();
  const auto set = generate_test_set(array);
  ASSERT_EQ(set.untestable.size(), 1u);
  // The bypassed valve's faults must not appear in `undetected` (they are
  // excluded from the coverage target).
  for (const sim::Fault& fault : set.undetected) {
    EXPECT_NE(fault.valve, set.untestable[0]);
  }
}

TEST(GeneratorTest, Campaign10kStyleAllDetected) {
  // A compressed version of the paper's Section IV experiment.
  const auto array = grid::table1_array(5);
  const auto set = generate_test_set(array);
  const sim::Simulator simulator(array);
  sim::CampaignOptions options;
  options.trials_per_count = 2000;
  const auto result = run_campaign(simulator, set.vectors, options);
  EXPECT_TRUE(result.all_detected())
      << result.total_trials() - result.total_detected() << " trials missed";
}

/// FNV-1a 64 over everything a generated program emits: every vector's
/// kind, label, commanded states and expected readings, then the cut sites
/// and the path hookups and cells, all in emission order. Two programs
/// with equal counts but different cuts or paths get different digests.
class ProgramDigest {
 public:
  explicit ProgramDigest(const GeneratedTestSet& set) {
    add(set.vectors.size());
    for (const sim::TestVector& vector : set.vectors) {
      add(static_cast<std::uint64_t>(vector.kind));
      add(vector.label.size());
      for (const char c : vector.label) add_byte(static_cast<unsigned char>(c));
      add(vector.states.size());
      for (const bool open : vector.states) add_byte(open ? 1 : 0);
      add(vector.expected.size());
      for (const bool reading : vector.expected) add_byte(reading ? 1 : 0);
    }
    add(set.cuts.size());
    for (const CutSet& cut : set.cuts) {
      add(cut.sites.size());
      for (const Site site : cut.sites) {
        add(static_cast<std::uint64_t>(site.row));
        add(static_cast<std::uint64_t>(site.col));
      }
    }
    add(set.paths.size());
    for (const FlowPath& path : set.paths) {
      add(static_cast<std::uint64_t>(path.source_port));
      add(static_cast<std::uint64_t>(path.sink_port));
      add(path.cells.size());
      for (const Cell cell : path.cells) {
        add(static_cast<std::uint64_t>(cell.row));
        add(static_cast<std::uint64_t>(cell.col));
      }
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  void add_byte(unsigned char byte) {
    hash_ = (hash_ ^ byte) * 0x100000001b3ULL;
  }
  void add(std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
      add_byte(static_cast<unsigned char>(word >> shift));
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t program_digest(const grid::ValveArray& array,
                             const GeneratorOptions& options) {
  return ProgramDigest(generate_test_set(array, options)).value();
}

// Golden digests of whole programs. The counts gate only pins N per
// preset; these pin every emitted cut, path and vector, so a planner
// change that picks different shapes of equal count fails here. A change
// that moves a program on purpose re-records the digest and says why.
TEST(GoldenProgramTest, Table1PresetsHierarchical) {
  // The table1 benchmark configuration: 5x5 subblocks.
  GeneratorOptions options;
  options.hierarchical = true;
  options.block_size = 5;
  const std::uint64_t expected[] = {
      0x7d1e91f2a6b33375ULL, 0x0294fbd54c16a87cULL,
      0x15e48efc488103cdULL, 0x42c10775dda5503fULL,
      0x878af018444a1024ULL};
  const auto sizes = grid::table1_sizes();
  ASSERT_EQ(sizes.size(), std::size(expected));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(program_digest(grid::table1_array(sizes[i]), options),
              expected[i])
        << "n=" << sizes[i];
  }
}

TEST(GoldenProgramTest, FlatDefault) {
  EXPECT_EQ(program_digest(grid::table1_array(10), GeneratorOptions{}),
            0x168ebc69e33d431aULL);
}

TEST(ReportTest, RenderersProduceMaps) {
  const auto array = grid::full_array(4, 4);
  const auto set = generate_test_set(array);
  const std::string paths = render_paths(array, set.paths);
  EXPECT_EQ(static_cast<int>(paths.size()),
            (array.site_cols() + 1) * array.site_rows());
  EXPECT_NE(paths.find('1'), std::string::npos);
  ASSERT_FALSE(set.cuts.empty());
  const std::string cut = render_cut(array, set.cuts.front());
  EXPECT_NE(cut.find('X'), std::string::npos);
  EXPECT_FALSE(summarize(array, set).empty());
}

}  // namespace
}  // namespace fpva::core

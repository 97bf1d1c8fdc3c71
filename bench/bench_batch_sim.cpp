// E7 -- scalar vs. bit-parallel vs. multi-threaded campaign evaluation.
//
// The Section IV study costs ~50k scenario evaluations per array; this
// benchmark times the same campaign through the three engines and verifies
// that every one reports bit-identical detection results (the batched paths
// are exact reimplementations, not approximations). Acceptance floor: the
// batched engine is >= 10x the scalar oracle on the 16x16 array.
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/campaign.h"

namespace {

fpva::grid::ValveArray array_for(int n) {
  // Table I layouts where the paper defines one; a plain full array for the
  // acceptance-criterion 16x16 size.
  switch (n) {
    case 5:
    case 10:
    case 15:
    case 20:
    case 30: return fpva::grid::table1_array(n);
    default: return fpva::grid::full_array(n, n);
  }
}

int trials_for(int n) {
  // The paper's 10,000 where a single core finishes in seconds; fewer on
  // the large arrays so the scalar oracle stays measurable in CI.
  if (n <= 10) return 10000;
  if (n <= 16) return 2000;
  return 500;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpva;

  // Default sweep covers Table I plus the 16x16 acceptance size; any args
  // restrict the sizes (e.g. "bench_batch_sim 16" runs only 16x16).
  std::vector<int> sizes;
  for (int i = 1; i < argc; ++i) {
    try {
      sizes.push_back(std::stoi(argv[i]));
    } catch (const std::exception&) {
      std::cerr << "usage: bench_batch_sim [size...]   (sizes are positive "
                   "array dimensions, e.g. 5 16)\n";
      return 2;
    }
    if (sizes.back() < 1) {
      std::cerr << "bench_batch_sim: size must be >= 1, got " << argv[i]
                << "\n";
      return 2;
    }
  }
  if (sizes.empty()) sizes = {5, 10, 15, 16, 20};

  std::cout << "Campaign engines: scalar oracle vs. bit-parallel batch vs. "
               "threaded batch\n\n";
  common::Table table({"Array", "n_v", "N", "trials/k", "scalar(s)",
                       "batch(s)", "par(s)", "speedup", "par speedup",
                       "identical"});

  bool all_identical = true;
  double speedup_16 = 0.0;
  for (const int n : sizes) {
    const grid::ValveArray array = array_for(n);
    core::GeneratorOptions generator_options;
    generator_options.hierarchical = true;
    const auto set = core::generate_test_set(array, generator_options);
    const sim::Simulator simulator(array);

    sim::CampaignOptions campaign;
    campaign.trials_per_count = trials_for(n);
    campaign.min_faults = 1;
    campaign.max_faults = 5;

    common::Timer timer;
    const auto scalar =
        sim::run_campaign_scalar(simulator, set.vectors, campaign);
    const double scalar_s = timer.seconds();

    timer.reset();
    const auto batched = sim::run_campaign(simulator, set.vectors, campaign);
    const double batch_s = timer.seconds();

    const sim::CatalogEntry entry{&array, set.vectors, campaign};
    timer.reset();
    const auto parallel =
        std::move(sim::run_campaign_catalog({&entry, 1}).front());
    const double par_s = timer.seconds();

    bool identical = scalar.rows.size() == batched.rows.size() &&
                     scalar.rows.size() == parallel.rows.size();
    for (std::size_t i = 0; identical && i < scalar.rows.size(); ++i) {
      identical = scalar.rows[i].detected == batched.rows[i].detected &&
                  scalar.rows[i].detected == parallel.rows[i].detected &&
                  scalar.rows[i].undetected_samples ==
                      batched.rows[i].undetected_samples &&
                  scalar.rows[i].undetected_samples ==
                      parallel.rows[i].undetected_samples;
    }
    all_identical = all_identical && identical;
    const double speedup = scalar_s / batch_s;
    if (n == 16) speedup_16 = speedup;

    table.add_row({common::cat(n, " x ", n),
                   common::cat(array.valve_count()),
                   common::cat(set.total_vectors()),
                   common::cat(campaign.trials_per_count),
                   common::to_fixed(scalar_s, 3),
                   common::to_fixed(batch_s, 3),
                   common::to_fixed(par_s, 3),
                   common::cat(common::to_fixed(speedup, 1), "x"),
                   common::cat(common::to_fixed(scalar_s / par_s, 1), "x"),
                   identical ? "yes" : "NO"});
  }
  std::cout << table.to_string() << "\n";

  if (!all_identical) {
    std::cout << "FAIL: engines disagree on detection results.\n";
    return 1;
  }
  std::cout << "All engines bit-identical.\n";
  if (speedup_16 > 0.0 && speedup_16 < 10.0) {
    std::cout << "FAIL: batched speedup on 16x16 is "
              << common::to_fixed(speedup_16, 1) << "x (< 10x floor).\n";
    return 1;
  }
  return 0;
}

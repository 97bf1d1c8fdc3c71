// table1: the paper's headline flow. For each Table-I preset, generate the
// hierarchical test program (5x5 subblocks) and run the Section-IV
// campaign (1..5 stuck-at faults x 10 000 trials) against it. The time is
// in `core` and the one-word `sim.batch` flood; `lp`, `ilp` and
// `sim.diagnosis` are never entered, so this is the bypass workload for
// solver and diagnosis work.
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/campaign.h"
#include "workloads.h"

namespace perfbench {

using fpva::common::Timer;

namespace {

/// Set-ups per repeat: building the presets takes milliseconds, so one
/// sample alone would be mostly timer and cache noise.
constexpr int kSetupsPerRepeat = 5;

struct Preset {
  std::vector<fpva::grid::ValveArray> arrays;
  std::vector<fpva::sim::Simulator> simulators;
};

Preset set_up(Tracer& tracer, const std::vector<int>& sizes) {
  Preset preset;
  preset.arrays.reserve(sizes.size());
  for (const int n : sizes) {
    Tracer::Scope call(tracer, "grid::table1_array", Layer::kGrid);
    preset.arrays.push_back(fpva::grid::table1_array(n));
  }
  // Simulators hold a pointer into `arrays`, which no longer grows.
  preset.simulators.reserve(sizes.size());
  for (const fpva::grid::ValveArray& array : preset.arrays) {
    Tracer::Scope call(tracer, "sim::Simulator", Layer::kSim);
    preset.simulators.emplace_back(array);
  }
  return preset;
}

/// The program detects every single stuck-at fault, so every 1-fault trial
/// must be detected. Larger fault sets can mask each other; each escape
/// the campaign keeps must be confirmed undetectable by the scalar
/// simulator.
bool escapes_confirmed(const fpva::sim::Simulator& simulator,
                       const std::vector<fpva::sim::TestVector>& vectors,
                       const fpva::sim::CampaignResult& result,
                       const fpva::sim::CampaignOptions& campaign) {
  if (result.interrupted || result.rows.empty() ||
      result.total_trials() != 5L * campaign.trials_per_count ||
      result.rows.front().detected != result.rows.front().trials) {
    return false;
  }
  for (const fpva::sim::CampaignRow& row : result.rows) {
    for (const std::vector<fpva::sim::Fault>& faults :
         row.undetected_samples) {
      if (simulator.any_detects(vectors, faults)) return false;
    }
  }
  return true;
}

}  // namespace

void run_table1(Run& run) {
  Tracer& tracer = run.tracer();
  const std::vector<int> sizes = fpva::grid::table1_sizes();
  fpva::core::GeneratorOptions generator;
  generator.hierarchical = true;
  generator.block_size = 5;
  fpva::sim::CampaignOptions campaign;  // 1..5 faults x 10 000 trials
  campaign.seed = run.config().seed;

  std::vector<double> campaign_seconds;
  while (run.next_repeat()) {
    Preset preset;
    std::vector<fpva::core::GeneratedTestSet> sets(sizes.size());
    std::vector<fpva::sim::CampaignResult> results(sizes.size());
    double repeat_campaign_seconds = 0.0;
    {
      Tracer::Scope root(tracer, "table1", Layer::kBench);
      {
        Tracer::Scope phase(tracer, "setup", Layer::kBench);
        for (int k = 0; k < kSetupsPerRepeat; ++k) {
          Timer setup;
          preset = set_up(tracer, sizes);
          run.setup_done(setup.seconds());
        }
      }
      Timer pass;
      Tracer::Scope phase(tracer, "generate+campaign", Layer::kBench);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        Tracer::Scope instance(
            tracer, fpva::common::cat("preset ", sizes[i], "x", sizes[i]),
            Layer::kBench);
        Timer whole_case;
        Timer call;
        {
          Tracer::Scope span(tracer, "core::generate_test_set",
                             Layer::kCore);
          sets[i] = fpva::core::generate_test_set(preset.arrays[i],
                                                  generator);
        }
        const double generate_seconds = call.seconds();
        call.reset();
        {
          Tracer::Scope span(tracer, "sim::run_campaign", Layer::kSim);
          results[i] = fpva::sim::run_campaign(preset.simulators[i],
                                               sets[i].vectors, campaign);
        }
        const double campaign_s = call.seconds();
        run.case_done(static_cast<int>(i), whole_case.seconds());
        const fpva::core::GeneratedTestSet& set = sets[i];
        run.stage("core.path_pct", set.path_stage.seconds);
        run.stage("core.cut_pct", set.cut_stage.seconds);
        run.stage("core.leak_pct", set.leak_stage.seconds);
        // The final behavioural sweep the program's own T(s) leaves out.
        run.stage("core.verify_pct", generate_seconds - set.total_seconds());
        run.stage("sim.campaign_pct", campaign_s);
        repeat_campaign_seconds += campaign_s;
      }
      run.pass_done(pass.seconds());
    }
    if (!tracer.enabled()) campaign_seconds.push_back(repeat_campaign_seconds);

    long n_p = 0, n_c = 0, n_l = 0, vectors = 0, trials = 0, detected = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const fpva::core::GeneratedTestSet& set = sets[i];
      const std::string name = fpva::common::cat("table1.", sizes[i]);
      run.check(set.undetected.empty(),
                name + ": generated program leaves faults undetected");
      run.check(escapes_confirmed(preset.simulators[i], set.vectors,
                                  results[i], campaign),
                name + ": the campaign missed a single fault or reported a "
                       "detectable fault set as undetected");
      run.count(name + ".N", set.total_vectors());
      n_p += set.path_stage.vectors;
      n_c += set.cut_stage.vectors;
      n_l += set.leak_stage.vectors;
      vectors += set.total_vectors();
      trials += results[i].total_trials();
      detected += results[i].total_detected();
    }
    run.count("core.n_p", n_p);
    run.count("core.n_c", n_c);
    run.count("core.n_l", n_l);
    run.count("vectors", vectors);
    run.count("sim.trials", trials);
    run.count("sim.detected", detected);
  }

  const double trials = static_cast<double>(run.count_of("sim.trials"));
  const double detect_ratio = trials > 0
      ? static_cast<double>(run.count_of("sim.detected")) / trials : 0.0;
  run.end_to_end("vectors", static_cast<double>(run.count_of("vectors")),
                 "count");
  run.end_to_end("goal_frac", detect_ratio, "frac");
  run.layer("sim.detect_ratio", detect_ratio, "frac");
  run.layer("sim.trials_per_s", trials / median(campaign_seconds), "1/s");
}

}  // namespace perfbench

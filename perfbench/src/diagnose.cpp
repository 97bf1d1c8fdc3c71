// diagnose: closed-loop adaptive diagnosis on the 20x20 (Fig. 9) preset.
// One caller diagnoses a sequence of faulty chips, one session at a time,
// over a hypothesis universe of every single stuck-at fault, every control
// leak and a fixed sample of 2-fault sets carrying degraded-flow faults;
// the sequence holds each hypothesis once, in seeded order. Each repeat
// then runs a multi-fault campaign with degraded faults on the same
// program, which takes the two-word `sim.batch` flood (table1 takes the
// one-word path of the same layer). The time is in
// `sim.diagnosis` (scoring and the DD cache) and that flood; `lp`/`ilp`
// are never entered.
//
// Every repeat builds a fresh diagnoser (counted as set-up) and runs the
// same sessions, so the DD-cache hit ratio does not depend on run length.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "sim/campaign.h"
#include "sim/coverage.h"
#include "sim/diagnosis/adaptive.h"
#include "workloads.h"

namespace perfbench {

using fpva::common::Timer;
using fpva::sim::Fault;
using fpva::sim::FaultScenario;

namespace {

constexpr int kUniverseSize = 8300;  ///< hypotheses, fault-free excluded
/// The hypothesis universe is the tester's fixed fault dictionary, the same
/// for every seed.
constexpr std::uint64_t kUniverseSeed = 20170327;
constexpr double kDegradedProbability = 0.3;

FaultScenario ordered(FaultScenario faults) {
  std::sort(faults.begin(), faults.end(), [](const Fault& a, const Fault& b) {
    return a.valve != b.valve ? a.valve < b.valve : a.type < b.type;
  });
  return faults;
}

/// Singles, control leaks, then distinct 2-fault sets that hold at
/// least one degraded-flow fault, up to kUniverseSize hypotheses.
std::vector<FaultScenario> hypothesis_universe(
    const fpva::grid::ValveArray& array) {
  std::vector<FaultScenario> universe;
  for (const Fault& fault : fpva::sim::single_stuck_fault_universe(array)) {
    universe.push_back({fault});
  }
  for (const Fault& fault : fpva::sim::control_leak_universe(array)) {
    universe.push_back({fault});
  }
  fpva::common::Rng rng(kUniverseSeed);
  std::set<std::vector<std::uint64_t>> seen;
  while (static_cast<int>(universe.size()) < kUniverseSize) {
    FaultScenario pair = ordered(fpva::sim::draw_fault_set(
        rng, array, 2, {}, /*stuck_at_1_probability=*/0.5,
        /*degraded_probability=*/0.5));
    const bool degraded = std::any_of(pair.begin(), pair.end(),
                                      [](const Fault& fault) {
      return fault.type == fpva::sim::FaultType::kDegradedFlow;
    });
    std::vector<std::uint64_t> key;
    for (const Fault& fault : pair) {
      key.push_back(static_cast<std::uint64_t>(fault.valve) << 2 |
                    static_cast<std::uint64_t>(fault.type));
    }
    if (degraded && seen.insert(key).second) universe.push_back(pair);
  }
  return universe;
}

}  // namespace

void run_diagnose(Run& run) {
  Tracer& tracer = run.tracer();
  const std::uint64_t seed = run.config().seed;

  // Inputs, made once: the Table-I program of the 20x20 preset, the
  // hypothesis universe and the truths the sessions diagnose.
  const fpva::grid::ValveArray array = fpva::grid::fig9_array();
  fpva::core::GeneratorOptions generator;
  generator.hierarchical = true;
  generator.block_size = 5;
  const std::vector<fpva::sim::TestVector> program =
      fpva::core::generate_test_set(array, generator).vectors;
  const std::vector<FaultScenario> universe = hypothesis_universe(array);
  // Every hypothesis is diagnosed once per repeat, in a seeded order: the
  // seed changes the sequence the DD cache sees, not which chips exist.
  std::vector<int> truths(universe.size());
  for (std::size_t h = 0; h < truths.size(); ++h) {
    truths[h] = static_cast<int>(h);
  }
  fpva::common::Rng order_rng(seed);
  order_rng.shuffle(truths);
  const fpva::sim::Simulator simulator(array);
  fpva::sim::CampaignOptions campaign;
  campaign.min_faults = 1;
  campaign.max_faults = 3;
  // Sized so the flood is a visible share (~15 %) of a pass.
  campaign.trials_per_count = 150000;
  campaign.degraded_probability = kDegradedProbability;
  campaign.seed = seed;
  fpva::sim::diagnosis::Options options;
  options.threads = 1;

  std::vector<double> session_seconds, campaign_seconds;
  while (run.next_repeat()) {
    std::vector<fpva::sim::diagnosis::SessionResult> sessions(truths.size());
    fpva::sim::CampaignResult result;
    int cache_nodes = 0;
    double sessions_s = 0.0, campaign_s = 0.0;
    {
      Tracer::Scope root(tracer, "diagnose", Layer::kBench);
      Timer setup;
      std::optional<fpva::sim::diagnosis::AdaptiveDiagnoser> diagnoser;
      {
        Tracer::Scope phase(tracer, "setup", Layer::kBench);
        Tracer::Scope call(tracer, "sim::diagnosis::AdaptiveDiagnoser",
                           Layer::kDiag);
        diagnoser.emplace(array, program, universe, options);
      }
      const double setup_s = setup.seconds();
      run.setup_done(setup_s);
      run.stage("diag.precompute_pct", setup_s);

      Timer pass;
      {
        Tracer::Scope phase(tracer, "sessions", Layer::kBench);
        for (std::size_t i = 0; i < truths.size(); ++i) {
          Timer session;
          {
            Tracer::Scope call(tracer, "AdaptiveDiagnoser::run",
                               Layer::kDiag);
            sessions[i] = diagnoser->run(universe[truths[i]]);
          }
          run.case_done(truths[i], session.seconds());
        }
        cache_nodes = diagnoser->cache_nodes();
        sessions_s = pass.seconds();
      }
      run.stage("diag.session_pct", sessions_s);
      Timer call;
      {
        Tracer::Scope phase(tracer, "degraded campaign", Layer::kBench);
        Tracer::Scope span(tracer, "sim::run_campaign", Layer::kSim);
        result = fpva::sim::run_campaign(simulator, program, campaign);
      }
      campaign_s = call.seconds();
      run.stage("sim.campaign_pct", campaign_s);
      run.pass_done(pass.seconds());
    }
    if (!tracer.enabled()) {
      session_seconds.push_back(sessions_s);
      campaign_seconds.push_back(campaign_s);
    }

    long tests = 0, eliminated = 0, hits = 0, misses = 0, isolated = 0;
    for (std::size_t i = 0; i < truths.size(); ++i) {
      const auto& session = sessions[i];
      run.check(!session.interrupted &&
                    std::binary_search(session.surviving.begin(),
                                       session.surviving.end(), truths[i]),
                "session " + std::to_string(i) + ": the injected truth " +
                    fpva::sim::to_string(universe[truths[i]]) +
                    " was eliminated");
      tests += session.tests_applied();
      eliminated += session.eliminated;
      hits += session.cache_hits;
      misses += session.cache_misses;
      isolated += session.isolated() ? 1 : 0;
    }
    // Undetected campaign trials must really escape the program: replay
    // every kept sample through the scalar simulator.
    bool escapes_confirmed = !result.interrupted;
    for (const fpva::sim::CampaignRow& row : result.rows) {
      for (const std::vector<Fault>& faults : row.undetected_samples) {
        escapes_confirmed &= !simulator.any_detects(program, faults);
      }
    }
    run.check(escapes_confirmed && result.total_trials() ==
                                       3L * campaign.trials_per_count,
              "degraded campaign: an undetected sample is detectable");
    run.count("diag.sessions", static_cast<long>(truths.size()));
    run.count("diag.tests_applied", tests);
    run.count("diag.eliminated", eliminated);
    run.count("diag.cache_hits", hits);
    run.count("diag.cache_misses", misses);
    run.count("diag.cache_nodes", cache_nodes);
    run.count("diag.isolated", isolated);
    run.count("diag.universe", static_cast<long>(universe.size()));
    run.count("sim.trials", result.total_trials());
    run.count("sim.detected", result.total_detected());
  }

  const double sessions = static_cast<double>(run.count_of("diag.sessions"));
  const double trials = static_cast<double>(run.count_of("sim.trials"));
  const double choices = static_cast<double>(run.count_of("diag.cache_hits") +
                                             run.count_of("diag.cache_misses"));
  run.end_to_end("vectors",
                 static_cast<double>(run.count_of("diag.tests_applied")) /
                     sessions,
                 "count");
  run.end_to_end("goal_frac",
                 static_cast<double>(run.count_of("diag.isolated")) / sessions,
                 "frac");
  run.layer("diag.cache_hit_ratio",
            choices > 0 ? static_cast<double>(run.count_of("diag.cache_hits")) /
                              choices
                        : 0.0,
            "frac");
  run.layer("diag.sessions_per_s", sessions / median(session_seconds), "1/s");
  run.layer("sim.detect_ratio",
            static_cast<double>(run.count_of("sim.detected")) / trials, "frac");
  run.layer("sim.trials_per_s", trials / median(campaign_seconds), "1/s");
}

}  // namespace perfbench

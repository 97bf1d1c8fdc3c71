// E7b -- Google-Benchmark view of the campaign engines.
//
// bench_batch_sim remains the acceptance harness (bit-identical results +
// 10x floor, table output); this binary registers the same campaign kernels
// with Google Benchmark so bench/run_benchmarks.sh can record the perf
// trajectory as BENCH_batch_sim.json alongside BENCH_ilp.json. Trials are
// kept small: the point is a comparable time series, not a full study.
#include <benchmark/benchmark.h>

#include "core/generator.h"
#include "grid/presets.h"
#include "sim/campaign.h"

namespace {

using namespace fpva;

sim::CampaignOptions micro_campaign() {
  sim::CampaignOptions campaign;
  campaign.trials_per_count = 200;
  campaign.min_faults = 1;
  campaign.max_faults = 5;
  return campaign;
}

void BM_CampaignScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::ValveArray array = grid::full_array(n, n);
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  const auto set = core::generate_test_set(array, generator_options);
  const sim::Simulator simulator(array);
  const sim::CampaignOptions campaign = micro_campaign();
  long detected = 0;
  for (auto _ : state) {
    const auto result =
        sim::run_campaign_scalar(simulator, set.vectors, campaign);
    detected = result.total_detected();
    benchmark::DoNotOptimize(detected);
  }
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_CampaignScalar)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_CampaignBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::ValveArray array = grid::full_array(n, n);
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  const auto set = core::generate_test_set(array, generator_options);
  const sim::Simulator simulator(array);
  const sim::CampaignOptions campaign = micro_campaign();
  long detected = 0;
  for (auto _ : state) {
    const auto result = sim::run_campaign(simulator, set.vectors, campaign);
    detected = result.total_detected();
    benchmark::DoNotOptimize(detected);
  }
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_CampaignBatch)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_CampaignParallel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::ValveArray array = grid::full_array(n, n);
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  const auto set = core::generate_test_set(array, generator_options);
  const sim::CatalogEntry entry{&array, set.vectors, micro_campaign()};
  long detected = 0;
  for (auto _ : state) {
    const auto results = sim::run_campaign_catalog({&entry, 1});
    detected = results.front().total_detected();
    benchmark::DoNotOptimize(detected);
  }
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_CampaignParallel)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

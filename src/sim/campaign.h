// Monte-Carlo fault-injection campaigns (the paper's Section IV study).
//
// "For each valve array in Table I we randomly introduced one, two, three,
// four and five faults, respectively, and applied the generated test
// vectors. We repeated this process 10,000 times."
//
// Every trial draws its faults from its own counter-based RNG stream
// (common::stream_seed of CampaignOptions::seed and the trial coordinates),
// so the scalar oracle and the bit-parallel batched engine see identical
// fault sets and produce bit-identical CampaignResults regardless of
// batching.
#ifndef FPVA_SIM_CAMPAIGN_H
#define FPVA_SIM_CAMPAIGN_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stop.h"
#include "sim/control_topology.h"
#include "sim/simulator.h"

namespace fpva::sim {

struct CampaignOptions {
  int trials_per_count = 10000;   ///< trials for each fault count
  int min_faults = 1;
  int max_faults = 5;
  std::uint64_t seed = 20170327;  ///< DATE'17 conference date
  bool include_control_leaks = false;  ///< mix leak faults into the draw
  /// Leak pairs to draw from when include_control_leaks is set; empty means
  /// "all pairs of the nearest-neighbor routing model". Callers typically
  /// pass the testable subset (all pairs minus
  /// GeneratedTestSet::untestable_leaks).
  std::vector<LeakPair> leak_pairs;
  double stuck_at_1_probability = 0.5;  ///< sa1 vs sa0 for stuck faults
  /// Probability that a single-valve draw becomes a degraded-flow fault
  /// instead of a stuck-at fault. Zero (the default) draws no degraded
  /// faults and consumes exactly the RNG stream of earlier releases, so
  /// existing campaign results stay bit-identical.
  double degraded_probability = 0.0;
  std::size_t max_undetected_kept = 20;
  /// Cooperative cancellation (deadline or cancel): every runner polls the
  /// token between shards and between vectors inside a shard. A tripped
  /// token discards the in-flight shard and marks the result interrupted;
  /// the folded rows then cover exactly the completed whole shards, so a
  /// partial result is still bit-exact over the trials it reports.
  common::StopToken stop;
};

/// Outcome for one fault count k.
struct CampaignRow {
  int fault_count = 0;
  /// Faults injected per trial in this row — the fault-set cardinality.
  /// Equal to fault_count today, but reporting keys off this field so a
  /// row of multi-fault sets is never summarized under a single-fault
  /// heading.
  int set_cardinality = 0;
  /// Trials actually evaluated — trials_per_count unless the campaign was
  /// interrupted, in which case only fully completed shards count.
  int trials = 0;
  int detected = 0;
  std::vector<std::vector<Fault>> undetected_samples;

  double detection_rate() const {
    return trials == 0 ? 1.0 : static_cast<double>(detected) / trials;
  }
};

struct CampaignResult {
  std::vector<CampaignRow> rows;  ///< one per fault count
  /// True when CampaignOptions::stop tripped before every trial ran; rows
  /// then hold only the prefix of shards (or scalar trials) that
  /// completed, with zero-trial rows for fault counts never reached.
  bool interrupted = false;

  long total_trials() const;
  long total_detected() const;
  bool all_detected() const { return total_detected() == total_trials(); }
};

/// Seed of the dedicated RNG stream of trial `trial` at fault count
/// `fault_count`; every evaluation strategy draws trial (k, t) from
/// Rng(campaign_trial_seed(seed, k, t)).
std::uint64_t campaign_trial_seed(std::uint64_t seed, int fault_count,
                                  int trial);

/// Draws `fault_count` random faults on distinct valves (a leak fault
/// occupies both of its valves so combinations stay physically consistent).
/// `leak_pairs` empty disables leak draws; `degraded_probability` > 0 turns
/// that fraction of single-valve draws into degraded-flow faults.
std::vector<Fault> draw_fault_set(common::Rng& rng,
                                  const grid::ValveArray& array,
                                  int fault_count,
                                  std::span<const LeakPair> leak_pairs,
                                  double stuck_at_1_probability,
                                  double degraded_probability = 0.0);

/// Runs the campaign through the bit-parallel BatchSimulator, 64 trials per
/// grid pass. Results are bit-identical to run_campaign_scalar.
CampaignResult run_campaign(const Simulator& simulator,
                            std::span<const TestVector> vectors,
                            const CampaignOptions& options = {});

/// Reference implementation: one scalar Simulator pass per trial. Kept as
/// the differential-testing oracle for the batched engine; prefer
/// run_campaign everywhere else.
CampaignResult run_campaign_scalar(const Simulator& simulator,
                                   std::span<const TestVector> vectors,
                                   const CampaignOptions& options = {});

/// Renders the campaign as an aligned table, one row per fault count. Rows
/// are labeled by CampaignRow::set_cardinality — "single fault" only when a
/// row really injected one fault per trial, "k-fault set" otherwise — with
/// undetected samples listed under the table.
std::string summarize(const CampaignResult& result);

}  // namespace fpva::sim

#endif  // FPVA_SIM_CAMPAIGN_H

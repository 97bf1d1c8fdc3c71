#include "sim/campaign.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "common/table.h"
#include "sim/batch.h"

namespace fpva::sim {

long CampaignResult::total_trials() const {
  long total = 0;
  for (const CampaignRow& row : rows) total += row.trials;
  return total;
}

long CampaignResult::total_detected() const {
  long total = 0;
  for (const CampaignRow& row : rows) total += row.detected;
  return total;
}

std::uint64_t campaign_trial_seed(std::uint64_t seed, int fault_count,
                                  int trial) {
  return common::stream_seed(
      seed, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                 fault_count))
             << 32) |
                static_cast<std::uint32_t>(trial));
}

std::vector<Fault> draw_fault_set(common::Rng& rng,
                                  const grid::ValveArray& array,
                                  int fault_count,
                                  std::span<const LeakPair> leak_pairs,
                                  double stuck_at_1_probability,
                                  double degraded_probability) {
  // Draw faults on distinct valves. A leak fault occupies both of its
  // valves so that combinations stay physically consistent. At most a few
  // faults are drawn, so scanning them beats clearing a per-valve array.
  std::vector<Fault> faults;
  faults.reserve(static_cast<std::size_t>(std::max(fault_count, 0)));
  const auto used = [&faults](grid::ValveId valve) {
    return std::any_of(faults.begin(), faults.end(), [valve](const Fault& f) {
      return f.valve == valve ||
             (f.type == FaultType::kControlLeak && f.partner == valve);
    });
  };
  int guard = 0;
  while (static_cast<int>(faults.size()) < fault_count) {
    common::check(++guard < 10000,
                  "draw_fault_set: cannot place requested faults");
    const bool draw_leak = !leak_pairs.empty() && rng.next_bool(1.0 / 3.0);
    if (draw_leak) {
      const LeakPair& pair = leak_pairs[static_cast<std::size_t>(
          rng.next_below(leak_pairs.size()))];
      if (used(pair.first) || used(pair.second)) continue;
      faults.push_back(control_leak(pair.first, pair.second));
    } else {
      const auto valve = static_cast<grid::ValveId>(rng.next_below(
          static_cast<std::uint64_t>(array.valve_count())));
      if (used(valve)) continue;
      // The short-circuit matters: with degraded_probability == 0 no draw
      // is consumed, so default campaigns replay the historical streams.
      if (degraded_probability > 0 && rng.next_bool(degraded_probability)) {
        faults.push_back(degraded_flow(valve));
      } else {
        faults.push_back(rng.next_bool(stuck_at_1_probability)
                             ? stuck_at_1(valve)
                             : stuck_at_0(valve));
      }
    }
  }
  return faults;
}

namespace {

void validate_options(const grid::ValveArray& array,
                      const CampaignOptions& options) {
  common::check(
      options.min_faults >= 1 && options.min_faults <= options.max_faults,
      "run_campaign: bad fault-count range");
  common::check(array.valve_count() >= options.max_faults,
                "run_campaign: more faults requested than valves exist");
  common::check(options.trials_per_count >= 0,
                "run_campaign: negative trials_per_count");
  common::check(options.stuck_at_1_probability >= 0.0 &&
                    options.stuck_at_1_probability <= 1.0,
                "run_campaign: stuck_at_1_probability outside [0, 1]");
  common::check(options.degraded_probability >= 0.0 &&
                    options.degraded_probability <= 1.0,
                "run_campaign: degraded_probability outside [0, 1]");
}

std::vector<LeakPair> resolve_leak_pairs(const grid::ValveArray& array,
                                         const CampaignOptions& options) {
  if (!options.include_control_leaks) return {};
  return options.leak_pairs.empty() ? control_leak_pairs(array)
                                    : options.leak_pairs;
}

/// Trials drawn and dropped together. The shard bounds the drawn pool's
/// memory and is the unit of work a tripped stop token discards.
constexpr int kShardTrials = 4096;

/// Outcome of one contiguous shard of trials at one fault count.
struct ShardOutcome {
  int detected = 0;
  /// The first max_undetected_kept scenarios no vector detected, in trial
  /// order. fold_shard keeps only a prefix of each shard's list, so the
  /// rest could never reach a row.
  std::vector<FaultScenario> undetected;
  /// False when the shard was abandoned (stop token tripped before or
  /// during it); such outcomes are discarded, never folded.
  bool completed = false;
};

/// Evaluates trials [first_trial, first_trial + count) with fault dropping
/// (BatchSimulator::undetected): each trial waits on its next activating
/// vector, and each vector floods only the trials waiting on it, packed
/// into full 64-lane words. Nearly every trial is detected by the first
/// vector that can detect it at all, so a trial is flooded about once --
/// this is where the batched engine beats the scalar path's per-trial
/// early exit. `vectors` is built once per campaign and shared by every
/// shard.
ShardOutcome evaluate_shard(const BatchSimulator& batch,
                            const ActivationIndex& vectors,
                            const CampaignOptions& options,
                            std::span<const LeakPair> leak_pairs,
                            int fault_count, int first_trial, int count) {
  ShardOutcome outcome;
  if (options.stop.stop_requested()) return outcome;
  std::vector<FaultScenario> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) {
    common::Rng rng(
        campaign_trial_seed(options.seed, fault_count, first_trial + t));
    pool.push_back(draw_fault_set(rng, batch.array(), fault_count,
                                  leak_pairs,
                                  options.stuck_at_1_probability,
                                  options.degraded_probability));
  }

  // Undetected pool indices in trial order; none when the stop token
  // tripped mid-shard, and then the shard is abandoned, not folded.
  const std::optional<std::vector<int>> alive =
      batch.undetected(vectors, pool, options.stop);
  if (!alive) return outcome;

  outcome.detected = count - static_cast<int>(alive->size());
  const std::size_t kept =
      std::min(alive->size(), options.max_undetected_kept);
  outcome.undetected.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    outcome.undetected.push_back(
        std::move(pool[static_cast<std::size_t>((*alive)[i])]));
  }
  outcome.completed = true;
  return outcome;
}

/// Accumulates a shard into its row; shards must arrive in trial order so
/// undetected_samples keeps the same prefix for every execution strategy.
void fold_shard(CampaignRow& row, ShardOutcome&& outcome,
                std::size_t max_undetected_kept) {
  row.detected += outcome.detected;
  for (FaultScenario& faults : outcome.undetected) {
    if (row.undetected_samples.size() >= max_undetected_kept) break;
    row.undetected_samples.push_back(std::move(faults));
  }
}

}  // namespace

CampaignResult run_campaign(const Simulator& simulator,
                            std::span<const TestVector> vectors,
                            const CampaignOptions& options) {
  const grid::ValveArray& array = simulator.array();
  validate_options(array, options);
  const std::vector<LeakPair> leak_pairs = resolve_leak_pairs(array, options);
  const BatchSimulator batch(array);
  const ActivationIndex index(array, vectors);

  CampaignResult result;
  for (int k = options.min_faults; k <= options.max_faults; ++k) {
    CampaignRow row;
    row.fault_count = k;
    row.set_cardinality = k;
    for (int first = 0;
         first < options.trials_per_count && !result.interrupted;
         first += kShardTrials) {
      const int count =
          std::min(kShardTrials, options.trials_per_count - first);
      ShardOutcome outcome =
          evaluate_shard(batch, index, options, leak_pairs, k, first, count);
      if (!outcome.completed) {
        result.interrupted = true;
        break;
      }
      row.trials += count;
      fold_shard(row, std::move(outcome), options.max_undetected_kept);
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

CampaignResult run_campaign_scalar(const Simulator& simulator,
                                   std::span<const TestVector> vectors,
                                   const CampaignOptions& options) {
  const grid::ValveArray& array = simulator.array();
  validate_options(array, options);
  const std::vector<LeakPair> leak_pairs = resolve_leak_pairs(array, options);

  CampaignResult result;
  for (int k = options.min_faults; k <= options.max_faults; ++k) {
    CampaignRow row;
    row.fault_count = k;
    row.set_cardinality = k;
    for (int trial = 0;
         trial < options.trials_per_count && !result.interrupted; ++trial) {
      if (options.stop.stop_requested()) {
        result.interrupted = true;
        break;
      }
      common::Rng rng(campaign_trial_seed(options.seed, k, trial));
      std::vector<Fault> faults =
          draw_fault_set(rng, array, k, leak_pairs,
                         options.stuck_at_1_probability,
                         options.degraded_probability);
      ++row.trials;
      if (simulator.any_detects(vectors, faults)) {
        ++row.detected;
      } else if (row.undetected_samples.size() <
                 options.max_undetected_kept) {
        row.undetected_samples.push_back(std::move(faults));
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string summarize(const CampaignResult& result) {
  common::Table table({"scenario", "trials", "detected", "rate"});
  std::string samples;
  for (const CampaignRow& row : result.rows) {
    const std::string label =
        row.set_cardinality == 1
            ? std::string("single fault")
            : common::cat(row.set_cardinality, "-fault set");
    table.add_row({label, common::cat(row.trials), common::cat(row.detected),
                   common::cat(common::to_fixed(100.0 * row.detection_rate(),
                                                2),
                               '%')});
    for (const auto& faults : row.undetected_samples) {
      samples += common::cat("undetected ", label, ": ", to_string(faults),
                             '\n');
    }
  }
  std::string text = table.to_string();
  if (!samples.empty()) text += samples;
  if (result.interrupted) text += "campaign interrupted before completion\n";
  return text;
}

}  // namespace fpva::sim

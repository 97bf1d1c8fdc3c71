#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/timer.h"

namespace perfbench {
namespace {

/// Per-layer metrics every workload prints in a traced run, with their
/// units. Metrics a workload never touches read 0; they are shares, counts,
/// ratios or rates, never times, so an untouched layer cannot pose as a
/// measured 0 s. The two times, case.p50_ms and case.p99_ms, exist on
/// every workload.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"bench.self_pct", "%"},       {"grid.self_pct", "%"},
      {"core.self_pct", "%"},        {"sim.self_pct", "%"},
      {"diag.self_pct", "%"},        {"ilp.self_pct", "%"},
      {"core.path_pct", "%"},        {"core.cut_pct", "%"},
      {"core.leak_pct", "%"},        {"core.verify_pct", "%"},
      {"sim.campaign_pct", "%"},     {"diag.precompute_pct", "%"},
      {"diag.session_pct", "%"},     {"ilp.refute_pct", "%"},
      {"ilp.final_pct", "%"},        {"ilp.other_pct", "%"},
      {"certify.cut3x3_pct", "%"},   {"certify.cut3x4_pct", "%"},
      {"certify.cut4x4_pct", "%"},   {"certify.cut4x5_pct", "%"},
      {"certify.cut5x5_pct", "%"},   {"certify.path4x4_pct", "%"},
      {"certify.path5x5_pct", "%"},  {"certify.path6x6_pct", "%"},
      {"certify.path7x7_pct", "%"},  {"core.n_p", "count"},
      {"core.n_c", "count"},         {"core.n_l", "count"},
      {"sim.trials", "count"},       {"sim.detected", "count"},
      {"sim.detect_ratio", "frac"},  {"sim.trials_per_s", "1/s"},
      {"diag.sessions", "count"},    {"diag.tests_applied", "count"},
      {"diag.eliminated", "count"},  {"diag.cache_hits", "count"},
      {"diag.cache_nodes", "count"}, {"diag.cache_hit_ratio", "frac"},
      {"diag.sessions_per_s", "1/s"}, {"ilp.nodes", "count"},
      {"ilp.conflicts", "count"},    {"ilp.prop_prune_ratio", "frac"},
      {"lp.pivots", "count"},        {"lp.refactorizations", "count"},
      {"lp.basis_updates", "count"}, {"lp.fallbacks", "count"},
      {"lp.pivots_per_s", "1/s"},    {"case.p50_ms", "ms"},
      {"case.p99_ms", "ms"},         {"trace.spans", "count"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

double now_seconds() {
  static const fpva::common::Timer process_timer;
  return process_timer.seconds();
}

/// Peak resident set of this process in MiB, 0 when unknown. VmHWM, not
/// getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so a child
/// of a larger parent would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + fraction * (values[high] - values[low]);
}

Run::Run(Config config) : config_(std::move(config)) {
  start_ = now_seconds();
}

bool Run::next_repeat() {
  const int done = repeat_ + 1;
  const int minimum = config_.trace ? 2 : 1;
  if (done >= minimum && now_seconds() - start_ >= config_.seconds) {
    tracer_.set_enabled(false);
    return false;
  }
  repeat_ = done;
  RepeatSample sample;
  sample.traced = config_.trace && repeat_ % 2 == 1;
  samples_.push_back(sample);
  tracer_.set_enabled(sample.traced);
  tracer_.set_run(repeat_);
  return true;
}

void Run::setup_done(double seconds) {
  samples_.back().setup += seconds;
  if (!samples_.back().traced) setup_seconds_.push_back(seconds);
}

void Run::pass_done(double seconds) { samples_.back().pass = seconds; }

void Run::case_done(int index, double seconds) {
  if (samples_.back().traced) return;
  if (static_cast<int>(case_seconds_.size()) <= index) {
    case_seconds_.resize(index + 1);
  }
  case_seconds_[index].push_back(seconds);
}

void Run::stage(const std::string& name, double seconds) {
  if (samples_.back().traced) traced_stage_seconds_[name] += seconds;
}

void Run::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Run::count(const std::string& name, long value) {
  const auto [it, inserted] = counts_.emplace(name, value);
  if (!inserted && it->second != value) {
    check(false, name + " differs between repeats: " +
                     std::to_string(it->second) + " then " +
                     std::to_string(value));
  }
}

void Run::end_to_end(const std::string& name, double value,
                     const std::string& unit) {
  end_to_end_[name] = {value, unit};
}

void Run::layer(const std::string& name, double value,
                const std::string& unit) {
  layer_[name] = {value, unit};
}

long Run::count_of(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

double Run::median_pass_seconds() const {
  std::vector<double> passes;
  for (const RepeatSample& sample : samples_) {
    if (!sample.traced) passes.push_back(sample.pass);
  }
  return median(passes);
}

std::string Run::result_json() {
  std::vector<double> passes, untraced_totals, traced_totals;
  for (const RepeatSample& sample : samples_) {
    if (sample.traced) {
      traced_totals.push_back(sample.setup + sample.pass);
    } else {
      passes.push_back(sample.pass);
      untraced_totals.push_back(sample.setup + sample.pass);
    }
  }
  std::vector<double> all_cases;
  double log_sum = 0.0;
  for (const std::vector<double>& samples : case_seconds_) {
    log_sum += std::log(median(samples));
    all_cases.insert(all_cases.end(), samples.begin(), samples.end());
  }
  const double case_count = static_cast<double>(case_seconds_.size());
  if (case_count == 0) check(false, "the workload timed no case");

  std::map<std::string, Value> metrics;
  if (!config_.trace) {
    metrics = end_to_end_;
    metrics["setup_s"] = {median(setup_seconds_), "s"};
    metrics["pass_s"] = {median(passes), "s"};
    metrics["case_gmean_s"] = {std::exp(log_sum / case_count), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    for (const auto& [name, unit] : layer_metrics()) {
      metrics[name] = {0.0, unit};
    }
    for (const auto& [name, value] : counts_) {
      if (metrics.count(name)) metrics[name].value = static_cast<double>(value);
    }
    for (const auto& [name, value] : layer_) metrics[name] = value;
    // Shares of the traced repeats' wall time: each repeat's root span
    // covers exactly its set-up and pass.
    double traced_wall = 0.0;
    int traced_spans = 0;
    for (const Span& span : tracer_.spans()) {
      if (span.parent < 0) traced_wall += span.end - span.start;
      ++traced_spans;
    }
    const double percent = traced_wall > 0.0 ? 100.0 / traced_wall : 0.0;
    for (const auto& [name, seconds] : traced_stage_seconds_) {
      metrics.at(name).value = seconds * percent;
    }
    for (const auto& [layer, seconds] : tracer_.self_seconds_by_layer()) {
      metrics.at(std::string(layer_name(layer)) + ".self_pct").value =
          seconds * percent;
    }
    metrics.at("case.p50_ms").value = quantile(all_cases, 0.5) * 1e3;
    metrics.at("case.p99_ms").value = quantile(all_cases, 0.99) * 1e3;
    metrics.at("trace.spans").value =
        static_cast<double>(traced_spans) /
        static_cast<double>(traced_totals.size());
    metrics.at("trace.overhead_pct").value =
        (median(traced_totals) / median(untraced_totals) - 1.0) * 100.0;
    if (!config_.trace_path.empty() &&
        !tracer_.write_jsonl(config_.trace_path)) {
      check(false, "cannot write trace " + config_.trace_path);
    }
  }

  for (auto& [name, value] : metrics) {
    if (!std::isfinite(value.value)) {
      check(false, name + " is not finite");
      value.value = 0.0;
    }
  }
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, value] : metrics) {
    out << separator << "\"" << name << "\": {\"value\": "
        << number(value.value) << ", \"unit\": \"" << value.unit << "\"}";
    separator = ", ";
  }
  out << "}}";
  return out.str();
}

std::string Run::counts_json() const {
  std::ostringstream out;
  out << "{";
  const char* separator = "";
  for (const auto& [name, value] : counts_) {
    out << separator << "\"" << name << "\": " << value;
    separator = ", ";
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench

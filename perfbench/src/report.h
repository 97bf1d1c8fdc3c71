// One benchmark run: the repeat loop, its timing samples, the correctness
// checks, the deterministic counts, and the result JSON.
//
// A run repeats the workload's fixed unit of work until the time window is
// used up. Each repeat is a timed set-up followed by a timed pass over the
// workload's cases; every repeat does identical work, so every count the
// library returns must come out the same in each repeat, and timings are
// reported as medians over repeats. In a traced run the repeats alternate
// untraced / traced: end-to-end figures come from the untraced ones,
// per-layer shares from the spans of the traced ones, and the gap between
// the two is the tracing overhead.
#ifndef FPVA_PERFBENCH_REPORT_H
#define FPVA_PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans
};

class Run {
 public:
  explicit Run(Config config);

  const Config& config() const { return config_; }
  Tracer& tracer() { return tracer_; }

  /// Starts the next repeat, or returns false once the window is used up
  /// (at least one repeat runs; a traced run does at least two, one of
  /// each kind).
  bool next_repeat();
  int repeat() const { return repeat_; }

  /// Timing samples of the current repeat. A repeat may set up several
  /// times; setup_s is the median over every untraced set-up.
  void setup_done(double seconds);
  void pass_done(double seconds);
  /// Wall time of case `index` (a preset, an instance, a session) within
  /// the current pass; the same index names the same case in every repeat.
  void case_done(int index, double seconds);
  /// Seconds the library reports for one of its stages (a per-layer share
  /// in a traced run; `name` must be a per-layer metric).
  void stage(const std::string& name, double seconds);

  /// Counts one attempted operation; a false `ok` counts it as failed.
  void check(bool ok, const std::string& what);
  /// A deterministic count of the current repeat. Every repeat must
  /// report the same value; a difference is a failed check.
  void count(const std::string& name, long value);
  /// Workload-specific end-to-end value computed once at the end.
  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  /// Per-layer value computed once at the end (ratios, rates).
  void layer(const std::string& name, double value, const std::string& unit);

  long count_of(const std::string& name) const;

  /// Median untraced pass, used for rates.
  double median_pass_seconds() const;

  /// Finishes the run and renders the result object: end-to-end metrics
  /// for an untraced run, per-layer metrics for a traced one, plus the
  /// counts and the first failures for the reader.
  std::string result_json();
  bool correct() const { return failed_ == 0; }
  /// The deterministic counts as one JSON object.
  std::string counts_json() const;
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  struct RepeatSample {
    bool traced = false;
    double setup = 0.0;  ///< summed over the repeat's set-ups
    double pass = 0.0;
  };

  Config config_;
  Tracer tracer_;
  double start_ = 0.0;
  int repeat_ = -1;
  std::vector<RepeatSample> samples_;
  std::vector<double> setup_seconds_;  ///< every untraced set-up
  std::vector<std::vector<double>> case_seconds_;  ///< [case][untraced rep]
  std::map<std::string, double> traced_stage_seconds_;
  std::map<std::string, long> counts_;
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> layer_;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
};

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // FPVA_PERFBENCH_REPORT_H

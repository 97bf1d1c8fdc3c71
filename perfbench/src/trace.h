// Span recorder for the benchmark's traced runs.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into the library's public functions, nested workload -> phase ->
// instance -> call. They stay in memory and are written out once, at the
// end of the run. A disabled tracer reads no clock and stores nothing, so
// the untraced repeats that give the end-to-end metrics pay only a branch.
#ifndef FPVA_PERFBENCH_TRACE_H
#define FPVA_PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Layer a span is charged to. kBench is the harness itself (workload,
/// phase and instance spans); the others name the library module whose
/// public function the call span wraps.
enum class Layer { kBench, kGrid, kCore, kSim, kDiag, kIlp };

const char* layer_name(Layer layer);

struct Span {
  std::string name;
  Layer layer = Layer::kBench;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  int run = 0;      ///< repeat the span belongs to (shared by its subtree)
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
};

class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_; }
  /// Turns recording on or off for the spans opened from now on; call it
  /// only between repeats, with no span open.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Tags the spans opened from now on with repeat `run`.
  void set_run(int run) { run_ = run; }

  /// Closes the span it opened when destroyed.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its direct children cover, summed per
  /// layer over every recorded span.
  std::map<Layer, double> self_seconds_by_layer() const;

  /// Writes one JSON object per span, in opening order. Returns false when
  /// the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  double now() const;

  Clock::time_point epoch_;
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench

#endif  // FPVA_PERFBENCH_TRACE_H

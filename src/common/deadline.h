// Wall-clock deadlines for long-running solves.
//
// A Deadline is a value type wrapping an optional steady_clock time point.
// Default-constructed deadlines never expire and cost nothing to test, so
// they can ride along every options struct. Deadlines compose onto a
// cancellation token through StopToken::with_deadline (stop.h): a token
// carrying a deadline trips like a requested stop once the clock passes
// it, which is how bench_certify bounds a whole certification campaign
// while each stage keeps its own per-stage time limit.
#ifndef FPVA_COMMON_DEADLINE_H
#define FPVA_COMMON_DEADLINE_H

#include <chrono>
#include <limits>

namespace fpva::common {

class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// Expires `seconds` of wall clock from now. Non-positive values build a
  /// deadline that is already expired (useful for tests and for "budget
  /// exhausted upstream" propagation).
  static Deadline after(double seconds) {
    Deadline deadline;
    deadline.active_ = true;
    deadline.when_ =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    return deadline;
  }

  /// True when this deadline can ever expire (non-default-constructed).
  bool active() const { return active_; }

  bool expired() const {
    return active_ && std::chrono::steady_clock::now() >= when_;
  }

  /// Seconds until expiry; +infinity for an inactive deadline, clamped at
  /// 0 once expired.
  double remaining_seconds() const {
    if (!active_) return std::numeric_limits<double>::infinity();
    const auto left = std::chrono::duration_cast<std::chrono::duration<double>>(
        when_ - std::chrono::steady_clock::now());
    return left.count() > 0.0 ? left.count() : 0.0;
  }

 private:
  bool active_ = false;
  std::chrono::steady_clock::time_point when_{};
};

}  // namespace fpva::common

#endif  // FPVA_COMMON_DEADLINE_H

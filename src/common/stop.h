// Cooperative cancellation for parallel search.
//
// A StopSource owns a stop flag; its StopToken is a cheap copyable view
// that readers poll.
//
// Polling uses relaxed atomics on purpose: a stop request only asks
// workers to wind down, and every data handoff in this codebase happens
// through a mutex or a thread join, which provide the ordering.
//
// Wall-clock deadlines (deadline.h) compose onto a token: with_deadline()
// returns a token that additionally trips once the clock passes the
// deadline. Tokens without deadlines pay nothing.
#ifndef FPVA_COMMON_STOP_H
#define FPVA_COMMON_STOP_H

#include <atomic>
#include <memory>
#include <vector>

#include "common/deadline.h"

namespace fpva::common {

/// Read side of a stop flag plus any attached deadlines.
/// Default-constructed tokens are empty: stop_possible() is false and
/// stop_requested() is a no-op returning false, so threading a token
/// through a hot loop costs nothing when nobody can cancel it.
class StopToken {
 public:
  StopToken() = default;

  /// True when a StopSource could still trip this token (or a deadline
  /// will).
  bool stop_possible() const {
    return flag_ != nullptr || !deadlines_.empty();
  }

  /// True once the linked source requested a stop or any attached
  /// deadline expired.
  bool stop_requested() const {
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) {
      return true;
    }
    for (const Deadline& deadline : deadlines_) {
      if (deadline.expired()) return true;
    }
    return false;
  }

  /// A copy of this token that additionally trips once `deadline` expires.
  /// Inactive deadlines are dropped, so composing a default Deadline is
  /// free.
  StopToken with_deadline(const Deadline& deadline) const {
    StopToken token = *this;
    if (deadline.active()) token.deadlines_.push_back(deadline);
    return token;
  }

 private:
  friend class StopSource;
  std::shared_ptr<const std::atomic<bool>> flag_;
  std::vector<Deadline> deadlines_;
};

/// Owner of a stop flag. Copies share the flag.
class StopSource {
 public:
  StopSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() { flag_->store(true, std::memory_order_relaxed); }

  bool stop_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  /// Token observing this source.
  StopToken token() const {
    StopToken token;
    token.flag_ = flag_;
    return token;
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace fpva::common

#endif  // FPVA_COMMON_STOP_H

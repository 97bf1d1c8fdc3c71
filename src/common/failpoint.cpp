#include "common/failpoint.h"

#ifdef FPVA_FAILPOINTS

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "common/strings.h"

namespace fpva::common::failpoint {
namespace {

struct ArmedSite {
  Action action = Action::kNone;
  int skip_hits = 0;
  int remaining = 1;
};

struct State {
  std::mutex mutex;
  std::map<std::string, ArmedSite> sites;
  std::uint64_t crash_at = 0;  // 0 = no seed-driven crash armed
};

State& state() {
  static State instance;
  return instance;
}

// Armed flag lives outside the mutex so unarmed evaluations stay cheap
// enough to leave the hooks in hot paths (LU refactorization).
std::atomic<bool> active{false};
std::atomic<std::uint64_t> counter{0};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d49bb133111ebULL;
  return x ^ (x >> 31);
}

Action parse_action(const std::string& word) {
  if (word == "error") return Action::kError;
  if (word == "shortwrite") return Action::kShortWrite;
  if (word == "crash") return Action::kCrash;
  return Action::kNone;
}

[[noreturn]] void crash_now() {
  // A simulated hard kill: no destructors, no stream flush, no atexit.
  std::raise(SIGKILL);
  std::abort();  // unreachable; keeps [[noreturn]] honest if SIGKILL is blocked
}

}  // namespace

Action evaluate(const char* name) {
  if (!active.load(std::memory_order_relaxed)) return Action::kNone;
  const std::uint64_t hit = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  if (st.crash_at != 0 && hit >= st.crash_at) crash_now();
  auto it = st.sites.find(name);
  if (it == st.sites.end()) return Action::kNone;
  if (it->second.skip_hits > 0) {
    --it->second.skip_hits;
    return Action::kNone;
  }
  const Action action = it->second.action;
  if (--it->second.remaining <= 0) st.sites.erase(it);
  if (action == Action::kCrash) crash_now();
  return action;
}

void arm(const std::string& name, Action action, int skip_hits, int repeat) {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.sites[name] = ArmedSite{action, skip_hits, repeat < 1 ? 1 : repeat};
  active.store(true, std::memory_order_relaxed);
}

void arm_from_env() {
  State& st = state();
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    if (const char* seed_text = std::getenv("FPVA_FAILPOINT_SEED")) {
      std::uint64_t max = 64;
      if (const char* max_text = std::getenv("FPVA_FAILPOINT_MAX")) {
        const long parsed = std::strtol(max_text, nullptr, 10);
        if (parsed > 0) max = static_cast<std::uint64_t>(parsed);
      }
      const std::uint64_t seed = std::strtoull(seed_text, nullptr, 10);
      st.crash_at = 1 + splitmix64(seed) % max;
      active.store(true, std::memory_order_relaxed);
    }
  }
  if (const char* spec = std::getenv("FPVA_FAILPOINT_SPEC")) {
    for (const std::string& entry : split(spec, ';')) {
      const std::vector<std::string> parts = split(entry, '=');
      if (parts.size() != 2 || parts[0].empty()) continue;
      const std::vector<std::string> rhs = split(parts[1], '@');
      const Action action = parse_action(rhs[0]);
      if (action == Action::kNone) continue;
      int skip_hits = 0;
      if (rhs.size() == 2) {
        const long nth = std::strtol(rhs[1].c_str(), nullptr, 10);
        if (nth > 1) skip_hits = static_cast<int>(nth - 1);
      }
      arm(parts[0], action, skip_hits);
    }
  }
}

void reset() {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.sites.clear();
  st.crash_at = 0;
  active.store(false, std::memory_order_relaxed);
  counter.store(0, std::memory_order_relaxed);
}

}  // namespace fpva::common::failpoint

#endif  // FPVA_FAILPOINTS

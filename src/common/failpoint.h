// Deterministic fault injection for robustness tests.
//
// A fail point is a named site in production code (certificate-store I/O
// steps, LU refactorization, ...) that asks this layer "should I fail
// here, and how?". In a normal build (FPVA_FAILPOINTS not defined) every
// query compiles to a constant kNone and the layer costs nothing; tests
// that need injection check kFailpointsEnabled and GTEST_SKIP otherwise.
//
// With FPVA_FAILPOINTS defined, two mechanisms arm sites:
//
//  - Programmatic: arm("cert_store.write", Action::kShortWrite, n) makes
//    the (n+1)-th evaluation of that site report a short write, once.
//  - Environment (arm_from_env, called by bench_certify):
//      FPVA_FAILPOINT_SPEC  semicolon list "name=error@3;other=shortwrite"
//      FPVA_FAILPOINT_SEED  seed-driven crash: the process raises SIGKILL
//                           at the K-th fail-point evaluation, where K is
//                           derived deterministically from the seed
//      FPVA_FAILPOINT_MAX   upper bound for K (default 64)
//
// The SIGKILL fires *inside* evaluate(), so call sites only ever observe
// kError / kShortWrite; a crash is indistinguishable from the real thing
// (no destructors, no atexit, no flush). The same seed always kills at
// the same evaluation, which is what makes the kill/resume differential
// harness reproducible.
#ifndef FPVA_COMMON_FAILPOINT_H
#define FPVA_COMMON_FAILPOINT_H

#include <string>

namespace fpva::common::failpoint {

enum class Action {
  kNone,        // proceed normally
  kError,       // report the operation as failed
  kShortWrite,  // write/persist only a truncated prefix
  kCrash,       // never returned: evaluate() raises SIGKILL instead
};

#ifdef FPVA_FAILPOINTS

inline constexpr bool kFailpointsEnabled = true;

/// Ask whether the named site should fail right now. Cheap (one relaxed
/// atomic load) while nothing is armed.
Action evaluate(const char* name);

/// Arm `name` to report `action` on its (skip_hits+1)-th evaluation from
/// now and the `repeat`-1 evaluations after that, then disarm itself.
void arm(const std::string& name, Action action, int skip_hits = 0,
         int repeat = 1);

/// Arm from FPVA_FAILPOINT_SPEC / FPVA_FAILPOINT_SEED / FPVA_FAILPOINT_MAX.
void arm_from_env();

/// Disarm everything and zero the evaluation counter.
void reset();

#else  // !FPVA_FAILPOINTS

inline constexpr bool kFailpointsEnabled = false;

inline Action evaluate(const char*) { return Action::kNone; }
inline void arm(const std::string&, Action, int = 0, int = 1) {}
inline void arm_from_env() {}
inline void reset() {}

#endif  // FPVA_FAILPOINTS

}  // namespace fpva::common::failpoint

#endif  // FPVA_COMMON_FAILPOINT_H

// Two-fault masking analysis and repair (Fig. 5(c)/(d), constraint (9)).
//
// The paper guarantees detection of any two simultaneous faults by
// excluding the mutual-masking pattern between a stuck-at-0 valve blocking
// the leak route of a stuck-at-1 valve. This module provides the behavioral
// counterpart: an exhaustive (or sampled) audit of all two-fault
// combinations against a vector set, plus a best-effort repair loop that
// emits targeted vectors for any pair that escapes.
#ifndef FPVA_CORE_MASKING_H
#define FPVA_CORE_MASKING_H

#include <vector>

#include "core/cut_planner.h"
#include "core/path_planner.h"
#include "sim/coverage.h"
#include "sim/simulator.h"

namespace fpva::core {

struct TwoFaultAudit {
  sim::PairCoverageReport before;  ///< pair coverage of the input set
  sim::PairCoverageReport after;   ///< pair coverage after repair vectors
  int added_vectors = 0;
};

/// Exhaustively audits all stuck-at fault pairs against `vectors`,
/// appending repair vectors (targeted paths and cuts) for undetected pairs.
/// Quadratic in valve count; intended for arrays up to roughly 10x10.
TwoFaultAudit audit_and_repair_two_faults(
    const grid::ValveArray& array, const sim::Simulator& simulator,
    std::vector<sim::TestVector>& vectors);

}  // namespace fpva::core

#endif  // FPVA_CORE_MASKING_H

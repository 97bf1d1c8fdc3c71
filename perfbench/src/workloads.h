// The benchmark's workloads. Each one drives its repeat loop through `run`
// and records timings, checks and counts there; README.md in this package
// says why each workload exists and which layers it stresses or bypasses.
#ifndef FPVA_PERFBENCH_WORKLOADS_H
#define FPVA_PERFBENCH_WORKLOADS_H

#include "report.h"

namespace perfbench {

/// Table-I test programs for the five presets plus the Section-IV
/// stuck-at campaign on each: `core` and the one-word `sim.batch` flood.
void run_table1(Run& run);

/// Certified minimum cut-set and flow-path covers on small full arrays:
/// `lp`/`ilp` under `core::find_minimum_*`.
void run_certify(Run& run);

/// Closed-loop adaptive diagnosis on the 20x20 preset plus a campaign with
/// degraded-flow faults: `sim.diagnosis` and the two-word flood.
void run_diagnose(Run& run);

}  // namespace perfbench

#endif  // FPVA_PERFBENCH_WORKLOADS_H

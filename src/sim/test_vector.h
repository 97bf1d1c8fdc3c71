// Test vectors: the unit of stimulus the paper's generator emits.
//
// A vector commands every testable valve open or closed while pressure is
// applied at all source ports; the expected response is a pressure reading
// at each sink port (pressure meter).
#ifndef FPVA_SIM_TEST_VECTOR_H
#define FPVA_SIM_TEST_VECTOR_H

#include <string>
#include <vector>

namespace fpva::sim {

/// Commanded open/closed state per ValveId; true = open (control pressure
/// released), false = closed (control channel pressurized).
using ValveStates = std::vector<bool>;

/// Which generator family produced a vector.
enum class VectorKind : std::uint8_t {
  kFlowPath,     ///< stuck-at-0 test: a simple source->sink path is opened
  kCutSet,       ///< stuck-at-1 test: a source/sink-separating cut is closed
  kControlLeak,  ///< control-layer leakage test
  kOther,        ///< hand-written vectors
};

/// One complete test application.
struct TestVector {
  ValveStates states;          ///< indexed by ValveId
  std::vector<bool> expected;  ///< fault-free reading per sink port (in
                               ///< ValveArray::ports_of_kind(kSink) order)
  VectorKind kind = VectorKind::kOther;
  std::string label;           ///< e.g. "path 3", "cut 12"
};

/// Short family name for reports: "path", "cut", "leak", "other".
const char* to_cstring(VectorKind kind);

}  // namespace fpva::sim

#endif  // FPVA_SIM_TEST_VECTOR_H

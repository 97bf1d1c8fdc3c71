// Text serialization of ValveArray layouts.
//
// The format is a human-readable site map, one character per site:
//
//   +  junction post                    .  fluid cell
//   #  wall / obstacle cell             v  testable valve
//   o  always-open channel segment      S  source port (boundary)
//   M  sink port / pressure meter (boundary)
//
// Example (2x2 full array):
//
//   +#+#+
//   S.v.#
//   +v+v+
//   #.v.M
//   +#+#+
//
// parse_ascii() is the exact inverse of to_ascii() up to port names, which
// are regenerated as S0, S1, ... and M0, M1, ... in row-major order.
#ifndef FPVA_GRID_SERIALIZE_H
#define FPVA_GRID_SERIALIZE_H

#include <string>

#include "grid/array.h"

namespace fpva::grid {

/// Renders the layout as a site map (see file comment for the legend).
std::string to_ascii(const ValveArray& array);

/// Reconstructs a layout from a site map. Throws common::Error on malformed
/// input (ragged lines, even dimensions, illegal characters, parity
/// violations) and on a map whose sites the built array contradicts (a
/// valve on the boundary ring, a wall between two fluid cells), so every
/// accepted map round-trips through to_ascii().
ValveArray parse_ascii(const std::string& text);

}  // namespace fpva::grid

#endif  // FPVA_GRID_SERIALIZE_H

// Small string formatting helpers (GCC 12 lacks std::format).
#ifndef FPVA_COMMON_STRINGS_H
#define FPVA_COMMON_STRINGS_H

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fpva::common {

/// Stream-concatenates all arguments into one string:
/// cat("valve ", 3, " of ", 7) == "valve 3 of 7".
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream out;
  (void)(out << ... << args);  // void-cast: empty packs leave a bare `out`
  return out.str();
}

/// Joins `parts` with `separator` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Splits `text` at `separator`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char separator);

/// Removes ASCII whitespace from both ends.
std::string trim(std::string_view text);

/// Fixed-precision decimal rendering, e.g. to_fixed(3.14159, 2) == "3.14".
std::string to_fixed(double value, int digits);

/// Left-pads (align right) to `width` with spaces; never truncates.
std::string pad_left(std::string_view text, std::size_t width);

/// Right-pads (align left) to `width` with spaces; never truncates.
std::string pad_right(std::string_view text, std::size_t width);

/// Strict decimal parse of a whole command-line argument. Unlike atoi,
/// garbage ("abc", "5x", "") is refused rather than read as 0, and a value
/// past int range ("4294967298") is refused rather than wrapped.
std::optional<int> parse_int(const char* text);

/// Strict parse of a whole floating-point argument; garbage and non-finite
/// values ("nan", "inf") are refused.
std::optional<double> parse_double(const char* text);

}  // namespace fpva::common

#endif  // FPVA_COMMON_STRINGS_H

#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.h"

namespace fpva::common {

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      fields.emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return fields;
}

std::string trim(std::string_view text) {
  std::size_t first = 0;
  std::size_t last = text.size();
  while (first < last &&
         std::isspace(static_cast<unsigned char>(text[first]))) {
    ++first;
  }
  while (last > first &&
         std::isspace(static_cast<unsigned char>(text[last - 1]))) {
    --last;
  }
  return std::string(text.substr(first, last - first));
}

std::string to_fixed(double value, int digits) {
  check(digits >= 0 && digits <= 17, "to_fixed digits out of range");
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(text) + std::string(width - text.size(), ' ');
}

std::optional<int> parse_int(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<double> parse_double(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace fpva::common

// Minimal leveled logging to stderr.
//
// The generators report progress (ILP node counts, repair-loop iterations)
// at Debug level; benches run with the default Info level so their stdout
// tables stay clean.
#ifndef FPVA_COMMON_LOGGING_H
#define FPVA_COMMON_LOGGING_H

#include <string>

namespace fpva::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);

/// Current global threshold.
LogLevel log_level();

/// Emits `message` to stderr when `level` passes the threshold.
void log(LogLevel level, const std::string& message);

/// Convenience wrappers.
void log_debug(const std::string& message);
void log_info(const std::string& message);
void log_warning(const std::string& message);

}  // namespace fpva::common

#endif  // FPVA_COMMON_LOGGING_H

#include "common/logging.h"

#include <atomic>
#include <iostream>

namespace fpva::common {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) {
    return;
  }
  std::cerr << "[fpva " << level_name(level) << "] " << message << '\n';
}

void log_debug(const std::string& message) { log(LogLevel::kDebug, message); }
void log_info(const std::string& message) { log(LogLevel::kInfo, message); }
void log_warning(const std::string& message) {
  log(LogLevel::kWarning, message);
}

}  // namespace fpva::common

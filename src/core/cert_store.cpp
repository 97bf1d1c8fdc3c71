#include "core/cert_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "grid/serialize.h"

namespace fpva::core {
namespace {

// v3: BudgetStage lost restarts (restarts were removed from the search).
// An unknown version is a plain miss (see load), so older entries simply
// re-solve instead of parsing with shifted fields.
constexpr int kFormatVersion = 3;
constexpr const char* kMagic = "fpva-cert";

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Bit-exact double round-trip: hexfloat out, strtod back in. Infinities
/// print as inf/-inf, which strtod also accepts.
std::string double_to_text(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

const char* status_name(ilp::ResultStatus status) {
  switch (status) {
    case ilp::ResultStatus::kOptimal: return "optimal";
    case ilp::ResultStatus::kFeasible: return "feasible";
    case ilp::ResultStatus::kInfeasible: return "infeasible";
    case ilp::ResultStatus::kUnknown: return "unknown";
  }
  return "unknown";
}

bool parse_status(const std::string& name, ilp::ResultStatus* status) {
  if (name == "optimal") *status = ilp::ResultStatus::kOptimal;
  else if (name == "feasible") *status = ilp::ResultStatus::kFeasible;
  else if (name == "infeasible") *status = ilp::ResultStatus::kInfeasible;
  else if (name == "unknown") *status = ilp::ResultStatus::kUnknown;
  else return false;
  return true;
}

std::string serialize_record(const std::string& key, int budget,
                             const StageRecord& record) {
  std::ostringstream out;
  out << "key " << key << '\n';
  out << "budget " << budget << '\n';
  out << "floor " << record.floor << '\n';
  out << "config " << record.config_fp << '\n';
  out << "limits " << record.limits_fp << '\n';
  out << "partial " << (record.partial ? 1 : 0) << '\n';
  out << "status " << status_name(record.stage.status) << '\n';
  out << "nodes " << record.stage.nodes << '\n';
  out << "lp_pivots " << record.stage.lp_pivots << '\n';
  out << "seconds " << double_to_text(record.stage.seconds) << '\n';
  out << "conflicts " << record.stage.conflicts << '\n';
  out << "nogoods_learned " << record.stage.nogoods_learned << '\n';
  out << "backjumps " << record.stage.backjumps << '\n';
  out << "lp_nogoods " << record.stage.lp_nogoods << '\n';
  out << "best_bound " << double_to_text(record.best_bound) << '\n';
  out << "seeds " << record.seeds.size() << '\n';
  for (const ilp::SeedLiteral& seed : record.seeds) {
    out << seed.var << ' ' << (seed.is_lower ? 1 : 0) << ' '
        << double_to_text(seed.value) << '\n';
  }
  out << "witness " << record.witness.size() << '\n';
  for (const std::string& line : record.witness) out << line << '\n';
  return out.str();
}

/// Reads "<label> <rest-of-line>" and hands back the rest; false on a
/// missing line or wrong label (any structural surprise fails the parse).
bool read_field(std::istringstream& in, const char* label,
                std::string* value) {
  std::string line;
  if (!std::getline(in, line)) return false;
  const std::size_t space = line.find(' ');
  if (space == std::string::npos || line.compare(0, space, label) != 0) {
    return false;
  }
  *value = line.substr(space + 1);
  return true;
}

bool parse_long(const std::string& text, long* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtol(text.c_str(), &end, 10);
  return errno == 0 && end != text.c_str() && *end == '\0';
}

bool parse_double(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

bool parse_record(const std::string& payload, const std::string& key,
                  int budget, StageRecord* record) {
  std::istringstream in(payload);
  std::string value;
  long number = 0;
  if (!read_field(in, "key", &value) || value != key) return false;
  if (!read_field(in, "budget", &value) || !parse_long(value, &number) ||
      number != budget) {
    return false;
  }
  record->stage.budget = budget;
  if (!read_field(in, "floor", &value) || !parse_long(value, &number)) {
    return false;
  }
  record->floor = static_cast<int>(number);
  if (!read_field(in, "config", &record->config_fp)) return false;
  if (!read_field(in, "limits", &record->limits_fp)) return false;
  if (!read_field(in, "partial", &value) || !parse_long(value, &number)) {
    return false;
  }
  record->partial = number != 0;
  if (!read_field(in, "status", &value) ||
      !parse_status(value, &record->stage.status)) {
    return false;
  }
  if (!read_field(in, "nodes", &value) ||
      !parse_long(value, &record->stage.nodes)) {
    return false;
  }
  if (!read_field(in, "lp_pivots", &value) ||
      !parse_long(value, &record->stage.lp_pivots)) {
    return false;
  }
  if (!read_field(in, "seconds", &value) ||
      !parse_double(value, &record->stage.seconds)) {
    return false;
  }
  if (!read_field(in, "conflicts", &value) ||
      !parse_long(value, &record->stage.conflicts)) {
    return false;
  }
  if (!read_field(in, "nogoods_learned", &value) ||
      !parse_long(value, &record->stage.nogoods_learned)) {
    return false;
  }
  if (!read_field(in, "backjumps", &value) ||
      !parse_long(value, &record->stage.backjumps)) {
    return false;
  }
  if (!read_field(in, "lp_nogoods", &value) ||
      !parse_long(value, &record->stage.lp_nogoods)) {
    return false;
  }
  if (!read_field(in, "best_bound", &value) ||
      !parse_double(value, &record->best_bound)) {
    return false;
  }
  if (!read_field(in, "seeds", &value) || !parse_long(value, &number) ||
      number < 0 || number > 1'000'000) {
    return false;
  }
  record->seeds.resize(static_cast<std::size_t>(number));
  for (ilp::SeedLiteral& seed : record->seeds) {
    std::string line;
    if (!std::getline(in, line)) return false;
    std::istringstream lit(line);
    std::string value_text;
    int is_lower = 0;
    if (!(lit >> seed.var >> is_lower >> value_text)) return false;
    seed.is_lower = is_lower != 0;
    if (!parse_double(value_text, &seed.value)) return false;
  }
  if (!read_field(in, "witness", &value) || !parse_long(value, &number) ||
      number < 0 || number > 1'000'000) {
    return false;
  }
  record->witness.resize(static_cast<std::size_t>(number));
  for (std::string& line : record->witness) {
    if (!std::getline(in, line)) return false;
  }
  return true;
}

/// Unique-enough temp name: same-process writers are serialized by the
/// counter, cross-process writers by the pid. Both rename over the same
/// final path, which POSIX makes atomic (last writer wins whole-file).
std::string temp_path(const std::string& final_path) {
  static std::atomic<unsigned> counter{0};
  return common::cat(final_path, ".tmp.", static_cast<long>(::getpid()), ".",
                     counter.fetch_add(1));
}

}  // namespace

CertStore::CertStore(std::string directory)
    : directory_(std::move(directory)) {
  if (directory_.empty()) return;
  struct stat info {};
  if (::stat(directory_.c_str(), &info) == 0) {
    enabled_ = S_ISDIR(info.st_mode);
  } else {
    enabled_ = ::mkdir(directory_.c_str(), 0775) == 0;
  }
  if (!enabled_) {
    common::log_warning(common::cat("cert store: cannot use directory '",
                                    directory_,
                                    "'; running without persistence"));
  }
}

std::string CertStore::key_for(const grid::ValveArray& array,
                               const std::string& kind) {
  return to_hex(fnv1a64(common::cat(grid::to_ascii(array), "\n", kind)));
}

std::string CertStore::entry_path(const std::string& key, int budget) const {
  return common::cat(directory_, "/", key, "-b", budget, ".cert");
}

std::optional<StageRecord> CertStore::load(const std::string& key,
                                           int budget) {
  if (!enabled_) return std::nullopt;
  const std::string path = entry_path(key, budget);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  const auto quarantine = [&]() -> std::optional<StageRecord> {
    in.close();
    ++quarantined_;
    const std::string bad = path + ".bad";
    if (::rename(path.c_str(), bad.c_str()) == 0) {
      common::log_warning(common::cat(
          "cert store: corrupt entry quarantined to '", bad, "'"));
    }
    return std::nullopt;
  };

  // Header: "fpva-cert <version> <checksum-hex> <payload-bytes>".
  std::string magic;
  int version = 0;
  std::string checksum;
  long payload_bytes = -1;
  std::string header;
  if (!std::getline(in, header)) return quarantine();
  {
    std::istringstream fields(header);
    if (!(fields >> magic >> version >> checksum >> payload_bytes) ||
        magic != kMagic || payload_bytes < 0) {
      return quarantine();
    }
  }
  // An unknown version is a plain miss, not corruption: a newer writer's
  // entries must survive being scanned by an older reader.
  if (version != kFormatVersion) return std::nullopt;

  std::string payload(static_cast<std::size_t>(payload_bytes), '\0');
  in.read(payload.data(), payload_bytes);
  if (in.gcount() != payload_bytes) return quarantine();  // truncated
  if (to_hex(fnv1a64(payload)) != checksum) return quarantine();

  StageRecord record;
  if (!parse_record(payload, key, budget, &record)) return quarantine();
  return record;
}

bool CertStore::save(const std::string& key, int budget,
                     const StageRecord& record) {
  namespace fp = common::failpoint;
  if (!enabled_) return false;
  const std::string payload = serialize_record(key, budget, record);
  const std::string body = common::cat(kMagic, " ", kFormatVersion, " ",
                                       to_hex(fnv1a64(payload)), " ",
                                       payload.size(), "\n", payload);
  const std::string path = entry_path(key, budget);
  const std::string temp = temp_path(path);

  if (fp::evaluate("cert_store.open") == fp::Action::kError) return false;
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0664);
  if (fd < 0) return false;

  std::size_t to_write = body.size();
  switch (fp::evaluate("cert_store.write")) {
    case fp::Action::kError:
      ::close(fd);
      ::unlink(temp.c_str());
      return false;
    case fp::Action::kShortWrite:
      to_write /= 2;  // simulate ENOSPC / a torn buffer mid-flight
      break;
    default:
      break;
  }
  std::size_t written = 0;
  while (written < to_write) {
    const ssize_t n =
        ::write(fd, body.data() + written, to_write - written);
    if (n <= 0) {
      ::close(fd);
      ::unlink(temp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  if (to_write != body.size()) {  // injected short write: fail like ENOSPC
    ::close(fd);
    ::unlink(temp.c_str());
    return false;
  }

  const bool fsync_failed =
      fp::evaluate("cert_store.fsync") == fp::Action::kError ||
      ::fsync(fd) != 0;
  if (fsync_failed || ::close(fd) != 0) {
    if (fsync_failed) ::close(fd);
    ::unlink(temp.c_str());
    return false;
  }

  if (fp::evaluate("cert_store.rename") == fp::Action::kError ||
      ::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return false;
  }
  // One more fail-point probe after commit, so a seed-driven crash can
  // land *between* store operations (entry durable, campaign killed).
  fp::evaluate("cert_store.committed");
  return true;
}

}  // namespace fpva::core

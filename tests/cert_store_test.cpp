#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/cert_store.h"
#include "grid/presets.h"
#include "scoped_temp_dir.h"

namespace fpva::core {
namespace {

using test_support::ScopedTempDir;

StageRecord sample_record() {
  StageRecord record;
  record.config_fp = "cfg v=1 masking=1";
  record.limits_fp = "nodes=2000000 seconds=600";
  record.floor = 3;
  record.stage.budget = 3;
  record.stage.status = ilp::ResultStatus::kInfeasible;
  record.stage.nodes = 12345;
  record.stage.lp_pivots = 67890;
  record.stage.seconds = 1.25e-3;
  record.stage.conflicts = 17;
  record.stage.nogoods_learned = 42;
  record.stage.backjumps = 7;
  record.best_bound = 4.000000000000001;  // exercises bit-exact round-trip
  record.seeds.push_back(ilp::SeedLiteral{5, true, 1.0});
  record.seeds.push_back(ilp::SeedLiteral{9, false, 0.0});
  record.witness.push_back("cut 1 2 3 4");
  record.witness.push_back("cut 5 6");
  return record;
}

void expect_equal(const StageRecord& a, const StageRecord& b) {
  EXPECT_EQ(a.config_fp, b.config_fp);
  EXPECT_EQ(a.limits_fp, b.limits_fp);
  EXPECT_EQ(a.floor, b.floor);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.stage.budget, b.stage.budget);
  EXPECT_EQ(a.stage.status, b.stage.status);
  EXPECT_EQ(a.stage.nodes, b.stage.nodes);
  EXPECT_EQ(a.stage.lp_pivots, b.stage.lp_pivots);
  EXPECT_EQ(a.stage.seconds, b.stage.seconds);  // bit-exact via hexfloat
  EXPECT_EQ(a.stage.conflicts, b.stage.conflicts);
  EXPECT_EQ(a.stage.nogoods_learned, b.stage.nogoods_learned);
  EXPECT_EQ(a.stage.backjumps, b.stage.backjumps);
  EXPECT_EQ(a.best_bound, b.best_bound);
  ASSERT_EQ(a.seeds.size(), b.seeds.size());
  for (std::size_t i = 0; i < a.seeds.size(); ++i) {
    EXPECT_EQ(a.seeds[i].var, b.seeds[i].var);
    EXPECT_EQ(a.seeds[i].is_lower, b.seeds[i].is_lower);
    EXPECT_EQ(a.seeds[i].value, b.seeds[i].value);
  }
  ASSERT_EQ(a.witness.size(), b.witness.size());
  for (std::size_t i = 0; i < a.witness.size(); ++i) {
    EXPECT_EQ(a.witness[i], b.witness[i]);
  }
}

std::string entry_file(const CertStore& store, const std::string& key,
                       int budget) {
  return store.directory() + "/" + key + "-b" + std::to_string(budget) +
         ".cert";
}

TEST(CertStoreTest, RoundTripsARecordBitExactly) {
  const ScopedTempDir dir("cert_store_test_roundtrip");
  CertStore store(dir.path());
  ASSERT_TRUE(store.enabled());
  const StageRecord record = sample_record();
  ASSERT_TRUE(store.save("deadbeef", 3, record));
  const auto loaded = store.load("deadbeef", 3);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(record, *loaded);
  EXPECT_FALSE(store.load("deadbeef", 4).has_value());  // plain miss
  EXPECT_FALSE(store.load("feedface", 3).has_value());
  EXPECT_EQ(store.quarantined(), 0);
}

TEST(CertStoreTest, KeySeparatesArraysAndKinds) {
  const auto a = grid::full_array(2, 2);
  const auto b = grid::full_array(2, 3);
  EXPECT_EQ(CertStore::key_for(a, "cut"), CertStore::key_for(a, "cut"));
  EXPECT_NE(CertStore::key_for(a, "cut"), CertStore::key_for(b, "cut"));
  EXPECT_NE(CertStore::key_for(a, "cut"), CertStore::key_for(a, "path"));
}

/// Drops warnings for its lifetime: the corruption sweeps below quarantine
/// hundreds of entries, each of which logs one.
class QuietWarnings {
 public:
  QuietWarnings() : saved_(common::log_level()) {
    common::set_log_level(common::LogLevel::kError);
  }
  ~QuietWarnings() { common::set_log_level(saved_); }
  QuietWarnings(const QuietWarnings&) = delete;
  QuietWarnings& operator=(const QuietWarnings&) = delete;

 private:
  common::LogLevel saved_;
};

/// Stores sample_record() for a 3x3 cut key and returns its file bytes.
std::string stored_bytes(CertStore& store, const std::string& key) {
  EXPECT_TRUE(store.save(key, 2, sample_record()));
  std::ifstream in(entry_file(store, key, 2), std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Writes `bytes` as the entry for (key, budget 2), loads it, and checks
/// the outcome: never a hit, and either quarantined (the file moved to
/// `.bad`) or a plain miss (the file left in place).
void expect_quarantined_or_missed(CertStore& store, const std::string& key,
                                  const std::string& bytes,
                                  const std::string& label) {
  const std::string path = entry_file(store, key, 2);
  const std::string bad = path + ".bad";
  std::remove(bad.c_str());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const int quarantined_before = store.quarantined();
  EXPECT_FALSE(store.load(key, 2).has_value()) << label;
  struct stat info {};
  const bool moved = ::stat(path.c_str(), &info) != 0 &&
                     ::stat(bad.c_str(), &info) == 0;
  if (store.quarantined() == quarantined_before) {
    EXPECT_FALSE(moved) << label << ": plain miss moved the entry";
  } else {
    EXPECT_EQ(store.quarantined(), quarantined_before + 1) << label;
    EXPECT_TRUE(moved) << label << ": quarantine left the entry in place";
  }
}

TEST(CertStoreTest, CorruptedEntryIsQuarantinedAndMissed) {
  // Every single-byte corruption of one stored record, header and payload
  // alike: the low-bit flip keeps digits digits, the all-bit flip leaves
  // ASCII.
  const ScopedTempDir dir("cert_store_test_corrupt");
  CertStore store(dir.path());
  const std::string key = CertStore::key_for(grid::full_array(3, 3), "cut");
  const std::string original = stored_bytes(store, key);
  ASSERT_FALSE(original.empty());
  const QuietWarnings quiet;
  for (std::size_t at = 0; at < original.size(); ++at) {
    for (const unsigned char mask : {0x01, 0xff}) {
      std::string bytes = original;
      bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                    mask);
      expect_quarantined_or_missed(
          store, key, bytes,
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask));
    }
  }
  EXPECT_GT(store.quarantined(), 0);
  // A quarantined entry is a miss, and a re-solve can overwrite it.
  ASSERT_TRUE(store.save(key, 2, sample_record()));
  EXPECT_TRUE(store.load(key, 2).has_value());
}

TEST(CertStoreTest, TruncatedEntryIsQuarantined) {
  // Every proper prefix of one stored record, from the empty file up.
  const ScopedTempDir dir("cert_store_test_truncated");
  CertStore store(dir.path());
  const std::string key = CertStore::key_for(grid::full_array(3, 3), "cut");
  const std::string original = stored_bytes(store, key);
  ASSERT_FALSE(original.empty());
  const QuietWarnings quiet;
  for (std::size_t length = 0; length < original.size(); ++length) {
    expect_quarantined_or_missed(store, key, original.substr(0, length),
                                 "length " + std::to_string(length));
  }
  EXPECT_EQ(store.quarantined(), static_cast<int>(original.size()));
}

TEST(CertStoreTest, VersionMismatchIsAPlainMiss) {
  const ScopedTempDir dir("cert_store_test_version");
  CertStore store(dir.path());
  ASSERT_TRUE(store.save("deadbeef", 2, sample_record()));
  const std::string path = entry_file(store, "deadbeef", 2);
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(text.rfind("fpva-cert 3 ", 0), 0u);
  text.replace(0, 12, "fpva-cert 9 ");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_FALSE(store.load("deadbeef", 2).has_value());
  // A future-version entry is not corruption: it must survive the scan.
  EXPECT_EQ(store.quarantined(), 0);
  struct stat info {};
  EXPECT_EQ(::stat(path.c_str(), &info), 0);
}

TEST(CertStoreTest, ConcurrentWritersLastWriterWinsNoTornReads) {
  const ScopedTempDir dir("cert_store_test_concurrent");
  CertStore store(dir.path());
  ASSERT_TRUE(store.enabled());
  // Hammer one key from several threads while a reader polls: every load
  // must parse as a valid record (atomic rename => never a torn file).
  constexpr int kWriters = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      CertStore own(store.directory());
      for (int round = 0; round < kRounds; ++round) {
        StageRecord record = sample_record();
        record.stage.nodes = w * 1000 + round;
        EXPECT_TRUE(own.save("cafebabe", 1, record));
      }
    });
  }
  int reads = 0;
  for (int i = 0; i < 200; ++i) {
    const auto loaded = store.load("cafebabe", 1);
    if (loaded.has_value()) {
      ++reads;
      EXPECT_EQ(loaded->config_fp, sample_record().config_fp);
    }
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(store.quarantined(), 0);
  // After the dust settles the entry is one writer's complete record.
  const auto last = store.load("cafebabe", 1);
  ASSERT_TRUE(last.has_value());
  EXPECT_GE(reads, 0);
  // No stray temp files left behind.
  const std::string listing = store.directory() + "/leftovers";
  const std::string command =
      "ls " + store.directory() + " | grep -c tmp > " + listing + " || true";
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::ifstream count_in(listing);
  int temps = -1;
  count_in >> temps;
  EXPECT_EQ(temps, 0);
}

TEST(CertStoreTest, UnusableDirectoryDegradesToNoPersistence) {
  // A path that exists as a *file* can never become a store directory —
  // the portable stand-in for a read-only filesystem (chmod is useless
  // under root, which CI containers run as).
  const ScopedTempDir temp("cert_store_test_unusable");
  const std::string& path = temp.path();
  {
    std::ofstream file(path);
    file << "in the way";
  }
  CertStore store(path);
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.save("deadbeef", 1, sample_record()));
  EXPECT_FALSE(store.load("deadbeef", 1).has_value());

  // Same degrade when the *parent* is missing (mkdir fails).
  CertStore nested("no_such_parent_dir/store");
  EXPECT_FALSE(nested.enabled());
  EXPECT_FALSE(nested.save("deadbeef", 1, sample_record()));
}

TEST(CertStoreTest, InjectedIoErrorsFailTheSaveNotTheEntry) {
  if (!common::failpoint::kFailpointsEnabled) {
    GTEST_SKIP() << "built without FPVA_FAILPOINTS";
  }
  const ScopedTempDir dir("cert_store_test_failpoints");
  CertStore store(dir.path());
  ASSERT_TRUE(store.save("deadbeef", 1, sample_record()));  // good baseline

  using common::failpoint::Action;
  for (const char* site : {"cert_store.open", "cert_store.write",
                           "cert_store.fsync", "cert_store.rename"}) {
    common::failpoint::arm(site, Action::kError);
    StageRecord update = sample_record();
    update.stage.nodes = 777;
    EXPECT_FALSE(store.save("deadbeef", 1, update)) << site;
    common::failpoint::reset();
    // The failed save never tore the existing entry.
    const auto loaded = store.load("deadbeef", 1);
    ASSERT_TRUE(loaded.has_value()) << site;
    EXPECT_EQ(loaded->stage.nodes, sample_record().stage.nodes) << site;
  }

  // A short write is detected before the rename, so it fails the same way.
  common::failpoint::arm("cert_store.write", Action::kShortWrite);
  EXPECT_FALSE(store.save("deadbeef", 1, sample_record()));
  common::failpoint::reset();
  EXPECT_TRUE(store.load("deadbeef", 1).has_value());
}

TEST(CertStoreTest, CrashBetweenStoreOperationsLeavesStoreConsistent) {
  if (!common::failpoint::kFailpointsEnabled) {
    GTEST_SKIP() << "built without FPVA_FAILPOINTS";
  }
  const ScopedTempDir temp("cert_store_test_crash");
  const std::string& dir = temp.path();
  {
    CertStore store(dir);
    ASSERT_TRUE(store.save("deadbeef", 1, sample_record()));
  }
  // Child arms a crash on the post-commit probe of its *second* save and
  // dies by SIGKILL there; the parent then verifies both entries: budget 2
  // durable (committed before the crash point), budget 1 intact.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    common::failpoint::arm("cert_store.committed", common::failpoint::Action::kCrash,
                           /*skip_hits=*/0);
    CertStore store(dir);
    StageRecord record = sample_record();
    record.stage.budget = 2;
    store.save("deadbeef", 2, record);  // crashes on the committed probe
    ::_exit(1);                         // not reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  CertStore store(dir);
  EXPECT_TRUE(store.load("deadbeef", 1).has_value());
  const auto committed = store.load("deadbeef", 2);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(committed->stage.budget, 2);
  EXPECT_EQ(store.quarantined(), 0);
}

}  // namespace
}  // namespace fpva::core

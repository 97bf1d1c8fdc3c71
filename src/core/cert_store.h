// Content-addressed on-disk store for III-B-3 stage certificates.
//
// A certification campaign (find_minimum_*) proves one fact per budget
// stage: "budget k is infeasible" (a refutation that pins the objective
// floor) or "budget k admits this cover" (a witness). Each fact is worth
// minutes-to-hours of solver time, so the store persists every finished
// stage — and deadline-truncated stages as *partial* checkpoints carrying
// the resumable part of an anytime certificate — keyed by the canonical
// grid serialization hash plus the model kind.
//
// Trust model (enforced by the caller, core/ilp_models):
//  - Feasible stages are never trusted blindly: resume re-validates the
//    witness through the simulator-backed validators and re-checks cover
//    and budget, which is orders of magnitude cheaper than re-solving.
//  - Refutations carry no witness (the certificate *is* the exhausted
//    search), so they are reused only when the recorded config
//    fingerprint matches the current solver configuration exactly.
//  - Limit-abandoned stages additionally require the limits fingerprint
//    to match (a refutation outlives a time-limit change; an abandonment
//    does not).
//  - Anything else — mismatch, corruption, read failure — degrades to a
//    live re-solve.
//
// Durability: records are written to a unique temp file, fsynced, and
// renamed into place, so readers never observe a torn write and
// concurrent writers of the same key race to a last-writer-wins whole
// file. Every record is versioned and checksummed; a corrupted or
// truncated file is quarantined to a `.bad` sibling and treated as a
// miss. A read-only or otherwise unusable directory turns save() into a
// no-op returning false — campaigns still run, they just stop persisting.
//
// This store is the memo the per-subblock ILP covers are meant to use
// (ROADMAP, "Make Table I true: ILP per subblock"): subblock shapes recur,
// so a recurring shape canonicalizes to the same key and its certificate
// chain is served from the store instead of being solved again.
#ifndef FPVA_CORE_CERT_STORE_H
#define FPVA_CORE_CERT_STORE_H

#include <optional>
#include <string>
#include <vector>

#include "core/ilp_models.h"
#include "grid/array.h"
#include "ilp/branch_and_bound.h"

namespace fpva::core {

/// One persisted stage outcome (or deadline checkpoint).
struct StageRecord {
  std::string config_fp;  ///< model + search configuration fingerprint
  std::string limits_fp;  ///< node/time limit fingerprint
  int floor = 0;          ///< objective floor the stage ran with
  BudgetStage stage;      ///< the report escalate_budgets would record
  /// True for a deadline checkpoint: the stage did not finish; `seeds`
  /// (and best_bound) carry the anytime certificate a resume extends.
  bool partial = false;
  double best_bound = 0.0;  ///< partial only: valid dual bound at truncation
  std::vector<ilp::SeedLiteral> seeds;  ///< partial only: unit nogoods
  /// Feasible stages only: the witness cover, one opaque line per element
  /// (cut-set or flow-path serialization owned by core/ilp_models).
  std::vector<std::string> witness;
};

class CertStore {
 public:
  /// Opens (creating if needed) the store rooted at `directory`. An
  /// uncreatable root leaves the store disabled: load() misses, save()
  /// returns false.
  explicit CertStore(std::string directory);

  bool enabled() const { return enabled_; }
  const std::string& directory() const { return directory_; }

  /// Content key for an array + model kind (e.g. "cut+mask", "path"):
  /// FNV-1a 64 over the canonical ASCII serialization and the kind.
  static std::string key_for(const grid::ValveArray& array,
                             const std::string& kind);

  /// The record for (key, budget), or nullopt on miss, version mismatch,
  /// or corruption (corrupt files are quarantined to `<file>.bad`).
  std::optional<StageRecord> load(const std::string& key, int budget);

  /// Atomically persists the record for (key, budget), replacing any
  /// previous one. False when the store is disabled or any I/O step
  /// fails; the previous record (if any) is left intact in that case.
  bool save(const std::string& key, int budget, const StageRecord& record);

  /// Files quarantined by this instance (corruption diagnostics).
  int quarantined() const { return quarantined_; }

 private:
  std::string entry_path(const std::string& key, int budget) const;

  std::string directory_;
  bool enabled_ = false;
  int quarantined_ = 0;
};

}  // namespace fpva::core

#endif  // FPVA_CORE_CERT_STORE_H

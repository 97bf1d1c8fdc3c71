// Certification-frontier probe: attempts the cut-set minimum of an n x n
// full array to *proven* optimality and reports every III-B-3 budget
// escalation stage (status, nodes, pivots, conflict-learning counters,
// wall time), so the frontier is tracked by CI instead of hand-measured.
// The 6x6 certifies min = 4 in about half a minute (432 nodes) with
// conflict learning + backjumping; the open frontier — and the nightly
// default — is 7x7 and up.
//
// Usage:  bench_certify [n] [per-stage-seconds] [out.json] [threads]
//                       [store-dir] [deadline-seconds]
//   n                  array size (default 6)
//   per-stage-seconds  ilp time limit per escalation stage (default 600)
//   out.json           solver-stats artifact (default certify_stats.json)
//   threads            tree-search workers: the budget stages run one
//                      after another and each stage's search is
//                      work-stealing parallel with `threads` workers, so a
//                      run starts at most `threads` search threads
//                      (default 1 = serial, bit-identical counters; 0 =
//                      hardware concurrency; at most the hardware
//                      concurrency)
//   store-dir          certificate-store directory; "-" (default) disables
//                      persistence. With a store, a rerun resumes: stored
//                      refutations replay, stored witnesses re-verify, and
//                      a killed or deadline-truncated run picks up where
//                      it checkpointed.
//   deadline-seconds   whole-campaign wall-clock deadline (default: none).
//                      On expiry the current stage checkpoints its anytime
//                      certificate to the store and the process exits 3.
//
// In FPVA_FAILPOINTS builds the probe arms fault injection from
// FPVA_FAILPOINT_SEED / FPVA_FAILPOINT_SPEC before running — the nightly
// kill/resume loop SIGKILLs it mid-stage this way (see
// tests/failpoint_seeds.txt).
//
// Exit status:
//   0  campaign completed with a PROVEN minimal certificate
//   2  bad arguments, or no cut cover found (infeasible model / no result)
//   3  campaign ran but the certificate is incomplete: abandoned stages,
//      an unproven cover, or a deadline checkpoint (resume by rerunning
//      with the same store-dir)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/stop.h"
#include "common/strings.h"
#include "core/cert_store.h"
#include "core/ilp_models.h"
#include "grid/presets.h"

namespace {

const char* status_name(fpva::ilp::ResultStatus status) {
  switch (status) {
    case fpva::ilp::ResultStatus::kOptimal: return "optimal";
    case fpva::ilp::ResultStatus::kFeasible: return "feasible";
    case fpva::ilp::ResultStatus::kInfeasible: return "infeasible";
    case fpva::ilp::ResultStatus::kUnknown: return "unknown";
  }
  return "?";
}

[[noreturn]] void usage_error() {
  std::fprintf(stderr,
               "usage: bench_certify [n=6] [per-stage-seconds=600] "
               "[out.json] [threads=1] [store-dir=-] "
               "[deadline-seconds=none]\n"
               "  2 <= n <= 12; per-stage-seconds > 0;\n"
               "  0 <= threads <= hardware concurrency (0 = all cores);\n"
               "  a run starts at most threads search threads;\n"
               "  deadline-seconds > 0 when given; store-dir \"-\" "
               "disables the certificate store\n");
  std::exit(2);
}

/// Strict numeric arguments: atoi-style silent zeroes on garbage have
/// bitten this probe before (a mistyped flag order quietly became "0
/// threads"), and a value past int range must not wrap (4294967298 is not
/// n = 2).
int int_arg(const char* text) {
  const std::optional<int> value = fpva::common::parse_int(text);
  if (!value) usage_error();
  return *value;
}

double double_arg(const char* text) {
  const std::optional<double> value = fpva::common::parse_double(text);
  if (!value) usage_error();
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpva;
  int n = 6;
  double stage_seconds = 600.0;
  std::string out_path = "certify_stats.json";
  int threads = 1;
  std::string store_dir = "-";
  double deadline_seconds = 0.0;  // 0 = none
  if (argc > 7) usage_error();
  if (argc > 1) n = int_arg(argv[1]);
  if (argc > 2) stage_seconds = double_arg(argv[2]);
  if (argc > 3) out_path = argv[3];
  if (argc > 4) threads = int_arg(argv[4]);
  if (argc > 5) store_dir = argv[5];
  if (argc > 6) deadline_seconds = double_arg(argv[6]);
  // `threads` past the core count is refused. Stages run one at a time,
  // so a run starts at most `threads` search threads.
  if (n < 2 || n > 12 || stage_seconds <= 0.0 || threads < 0 ||
      threads > common::resolve_thread_count(0) || out_path.empty() ||
      store_dir.empty() || (argc > 6 && deadline_seconds <= 0.0)) {
    usage_error();
  }

  // Deterministic fault injection for the kill/resume CI loop; a no-op
  // without FPVA_FAILPOINTS or when the env vars are unset.
  common::failpoint::arm_from_env();

  const grid::ValveArray array = grid::full_array(n, n);
  ilp::Options options;
  options.time_limit_seconds = stage_seconds;
  // Backjumping is off in the default config (it derails the structured
  // dives of already-fast instances: 5x5 goes from 132 to 478 nodes) but it
  // is the decisive lever on the stalled frontier stages this probe exists
  // for: with it, the 6x6 cut-set minimum of 4 is proven in 432 nodes
  // instead of 3 356. Every LP refutation learns a nogood either way.
  options.conflict_backjumping = true;
  options.threads = threads;
  if (deadline_seconds > 0.0) {
    options.stop = common::StopToken{}.with_deadline(
        common::Deadline::after(deadline_seconds));
  }
  std::unique_ptr<core::CertStore> store;
  if (store_dir != "-") {
    store = std::make_unique<core::CertStore>(store_dir);
    if (!store->enabled()) {
      std::fprintf(stderr, "bench_certify: store dir %s unusable; running "
                           "without persistence\n",
                   store_dir.c_str());
    }
  }
  const int resolved = common::resolve_thread_count(threads);
  std::printf("bench_certify: %dx%d cut-set minimum, %.0f s per stage, "
              "conflict learning %s + backjumping, %d thread%s%s%s\n",
              n, n, stage_seconds,
              options.conflict_learning ? "on" : "off", resolved,
              resolved == 1 ? "" : "s",
              store ? ", store " : "",
              store ? store_dir.c_str() : "");

  const auto result = core::find_minimum_cut_sets(array, 1, 10, true,
                                                  options, store.get());
  if (!result.has_value()) {
    if (options.stop.stop_requested()) {
      std::fprintf(stderr, "bench_certify: deadline expired; progress "
                           "checkpointed%s — rerun with the same store to "
                           "resume\n",
                   store ? "" : " NOWHERE (no store-dir given)");
      return 3;
    }
    std::fprintf(stderr, "bench_certify: no cut cover found (limits or "
                         "infeasible model)\n");
    return 2;
  }

  std::printf("\n%-8s %-11s %10s %12s %10s %10s %10s %9s %9s\n",
              "budget", "status", "nodes", "pivots", "conflicts", "learned",
              "backjumps", "lpnogoods", "seconds");
  for (const core::BudgetStage& stage : result->stages) {
    std::printf("%-8d %-11s %10ld %12ld %10ld %10ld %10ld %9ld %9.1f\n",
                stage.budget, status_name(stage.status), stage.nodes,
                stage.lp_pivots, stage.conflicts, stage.nogoods_learned,
                stage.backjumps, stage.lp_nogoods, stage.seconds);
  }
  std::printf("\nminimum cut sets: %d (%s)\n", result->cut_budget,
              result->proven_minimal ? "PROVEN minimal"
                                     : "no optimality certificate");

  std::ofstream out(out_path);
  if (out.good()) {
    out << "{\n  \"array\": " << n << ",\n  \"stage_limit_seconds\": "
        << stage_seconds << ",\n  \"threads\": " << resolved
        << ",\n  \"cut_budget\": " << result->cut_budget
        << ",\n  \"proven_minimal\": "
        << (result->proven_minimal ? "true" : "false") << ",\n  \"stages\": [";
    for (std::size_t i = 0; i < result->stages.size(); ++i) {
      const core::BudgetStage& stage = result->stages[i];
      out << (i == 0 ? "" : ",") << "\n    {\"budget\": " << stage.budget
          << ", \"status\": \"" << status_name(stage.status)
          << "\", \"nodes\": " << stage.nodes
          << ", \"pivots\": " << stage.lp_pivots
          << ", \"conflicts\": " << stage.conflicts
          << ", \"learned\": " << stage.nogoods_learned
          << ", \"backjumps\": " << stage.backjumps
          << ", \"lpnogoods\": " << stage.lp_nogoods
          << ", \"seconds\": " << stage.seconds << "}";
    }
    out << "\n  ]\n}\n";
    std::printf("stats written to %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "bench_certify: cannot write %s\n",
                 out_path.c_str());
  }
  // The nightly gate: anything short of a proven minimum is a nonzero
  // exit so the kill/resume loop and the dashboard can both trust the
  // status code alone. (A proven-optimal final stage subsumes earlier
  // abandoned stages — see the certificate argument in core/ilp_models —
  // so proven_minimal is the complete criterion.)
  return result->proven_minimal ? 0 : 3;
}

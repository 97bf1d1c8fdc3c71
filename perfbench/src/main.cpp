// fpva_perfbench: runs one benchmark workload for a time window and prints
// its metrics.
//
//   fpva_perfbench --workload table1|certify|diagnose [--seed N]
//                  [--seconds S] [--trace 0|1] [--trace-out spans.jsonl]
//
// Output on stdout: a `counts {...}` line with the deterministic counts of
// one repeat, then, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Failed checks are listed on stderr.
//
// Exit status: 0 when every check passed, 1 when any failed, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage_error(const char* why) {
  std::fprintf(stderr,
               "fpva_perfbench: %s\n"
               "usage: fpva_perfbench --workload table1|certify|diagnose "
               "[--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

double parse_number(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') usage_error("not a number");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("flag without a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      const double seed = parse_number(value);
      if (seed < 0 || seed > 1e15) usage_error("seed out of range");
      config.seed = static_cast<std::uint64_t>(seed);
    } else if (flag == "--seconds") {
      config.seconds = parse_number(value);
      if (!(config.seconds > 0 && config.seconds <= 3600)) {
        usage_error("seconds out of range");
      }
    } else if (flag == "--trace") {
      const std::string mode = value;
      if (mode != "0" && mode != "1") usage_error("trace must be 0 or 1");
      config.trace = mode == "1";
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      usage_error("unknown flag");
    }
  }

  perfbench::Run run(config);
  try {
    if (config.workload == "table1") {
      perfbench::run_table1(run);
    } else if (config.workload == "certify") {
      perfbench::run_certify(run);
    } else if (config.workload == "diagnose") {
      perfbench::run_diagnose(run);
    } else {
      usage_error("unknown workload");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fpva_perfbench: %s\n", error.what());
    return 1;
  }
  const std::string result = run.result_json();
  for (const std::string& failure : run.failures()) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  std::printf("counts %s\n%s\n", run.counts_json().c_str(), result.c_str());
  return run.correct() ? 0 : 1;
}

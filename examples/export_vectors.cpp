// Exports a generated test program in a machine-readable form suitable for
// driving a pressure-controller rig: one line per vector with the full
// open/close assignment and the expected meter readings.
//
//   ./build/examples/export_vectors [n] [output.tsv]
//
// n must be one of 5, 10, 15, 20, 30 (default 10); the output defaults to
// test_program.tsv, and "-" writes the program to stdout (the summary then
// goes to stderr). Bad arguments print the usage line and exit with
// status 2.
//
// Format (tab-separated):
//   #   <label>  <kind>  <states: '0'=closed '1'=open, one char per valve>
//       <expected: one char per meter>
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>

#include "common/strings.h"
#include "core/generator.h"
#include "grid/presets.h"
#include "grid/serialize.h"

int main(int argc, char** argv) {
  using namespace fpva;
  const std::optional<int> n =
      argc > 1 ? common::parse_int(argv[1]) : std::optional<int>(10);
  const std::string output = argc > 2 ? argv[2] : "test_program.tsv";
  const std::vector<int> sizes = grid::table1_sizes();
  const bool preset =
      n && std::find(sizes.begin(), sizes.end(), *n) != sizes.end();
  if (argc > 3 || !preset) {
    std::cerr << "usage: export_vectors [n=10, one of 5 10 15 20 30] "
                 "[output=test_program.tsv, - for stdout]\n";
    return 2;
  }

  const grid::ValveArray array = grid::table1_array(*n);
  core::GeneratorOptions options;
  options.hierarchical = true;
  const core::GeneratedTestSet set = core::generate_test_set(array, options);

  const bool to_stdout = output == "-";
  std::ofstream output_file;
  if (!to_stdout) {
    output_file.open(output);
    if (!output_file) {
      std::cerr << "cannot write " << output << "\n";
      return 1;
    }
  }
  std::ostream& file = to_stdout ? std::cout : output_file;
  std::ostream& log = to_stdout ? std::cerr : std::cout;
  // Header: the layout itself, commented, so the program is self-contained.
  file << "# FPVA test program, " << *n << "x" << *n << ", "
       << array.valve_count() << " valves, " << set.total_vectors()
       << " vectors\n";
  for (const std::string& line :
       common::split(grid::to_ascii(array), '\n')) {
    if (!line.empty()) file << "# " << line << "\n";
  }
  file << "# label\tkind\tvalve_states\texpected_readings\n";
  for (const sim::TestVector& vector : set.vectors) {
    file << vector.label << '\t' << to_cstring(vector.kind) << '\t';
    for (const bool open : vector.states) file << (open ? '1' : '0');
    file << '\t';
    for (const bool reading : vector.expected) file << (reading ? '1' : '0');
    file << '\n';
  }
  log << "wrote " << set.total_vectors() << " vectors for "
      << array.valve_count() << " valves to "
      << (to_stdout ? "stdout" : output) << "\n";
  log << "apply order: paths (" << set.path_stage.vectors << "), cuts ("
      << set.cut_stage.vectors << "), leak tests (" << set.leak_stage.vectors
      << ")\n";
  return 0;
}

// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Prints detail lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exits 0 when the
// correctness gate passed, 1 when it failed, 2 on a usage error.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\nworkloads:";
  for (const std::string& w : perfbench::workload_names())
    std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, n)) return usage("bad --seed " + value);
      opt.seed = n;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600)
        return usage("bad --seconds " + value);
      opt.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      opt.trace = value == "1";
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names())
    known = known || w == opt.workload;
  if (!known) return usage("unknown workload " + opt.workload);

  try {
    const perfbench::Result r = perfbench::run(opt);
    if (!spans_out.empty()) {
      std::ofstream f(spans_out);
      perfbench::write_spans_json(f, r.spans);
    }
    for (const std::string& note : r.notes) std::cout << "# " << note << "\n";
    std::cout << perfbench::result_json(r) << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

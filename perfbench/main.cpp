// perfbench — the hpf90d end-to-end benchmark.
//
//   perfbench --workload table2|serve_mix --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Prints the plan digest, the host/build record, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 the per-layer set, and
// a Chrome trace of the traced pass is written under --out-dir.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table2|serve_mix "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  print_host_record(stdout);
  if (!release_build()) {
    std::fprintf(stderr, "perfbench: refusing to time a non-Release build\n");
    return 3;
  }
  try {
    std::filesystem::create_directories(opt.out_dir);
    Outcome out;
    if (opt.workload == "table2") {
      out = run_table2(opt);
    } else if (opt.workload == "serve_mix") {
      out = run_serve_mix(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

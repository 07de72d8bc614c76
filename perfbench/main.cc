// dhmm_perfbench: runs one named workload and prints its metrics.
//
//   dhmm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> [--short 1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. perfbench/run.py builds this
// binary and is the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "dhmm_perfbench: %s\nusage: dhmm_perfbench --workload "
               "pos_tagging|wire_k50_mixed --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--short 0|1]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad arguments");
    flags[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : flags) {
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "short") {
      args.short_mode = value == "1";
    } else if (key == "workdir") {
      args.workdir = value;
    } else {
      Usage(("unknown flag --" + key).c_str());
    }
  }
  if (args.workdir.empty()) Usage("--workdir is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");

  perfbench::Result result;
  if (args.workload == "pos_tagging") {
    result = perfbench::RunPosTagging(args);
  } else if (args.workload == "wire_k50_mixed") {
    result = perfbench::RunWireK50Mixed(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (!args.trace) result.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  perfbench::PrintResult(args, result);
  return 0;
}

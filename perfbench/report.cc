// Result printing, host context, and small statistics helpers.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/startup.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + frac * ((*v)[hi] - (*v)[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

// Escapes the few characters a JSON string may not hold verbatim.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit of a double, so repeated runs never read artificially equal.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ContextJson(const Args& args) {
  std::string isa_line = dhmm::obs::StartupLine();
  std::ostringstream os;
  os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"kernels\": " << JsonString(isa_line)
     << ", \"compiler\": " << JsonString(__VERSION__)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"workload\": " << JsonString(args.workload)
     << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"short\": " << (args.short_mode ? 1 : 0) << "}";
  return os.str();
}

void PrintResult(const Args& args, const Result& result) {
  for (const std::string& line : result.notes) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("context %s\n", ContextJson(args).c_str());
  const bool correct = result.valid && result.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

// Shared plumbing of the repository benchmark (perfbench/): run arguments,
// the result record every workload fills, timing helpers and quantiles.
//
// The benchmark drives the library only through its public headers and
// times every layer from the outside: spans are taken around calls into
// each layer from this directory's code, never from inside src/.
#ifndef DHMM_PERFBENCH_BENCH_H_
#define DHMM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: every code path, a fraction of a second.
  bool short_mode = false;
  /// Scratch directory for the model stores (inside the checkout).
  std::string workdir;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `notes` are human-readable lines printed before
/// the final JSON line (sample counts, per-phase breakdowns, failures).
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when a validity check failed (a phase shed requests, the
  /// generator fell behind, counters did not reconcile, a replica diverged).
  bool valid = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a failed validity check with its reason.
  void Invalid(const std::string& why) {
    valid = false;
    notes.push_back("INVALID: " + why);
  }
};

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seconds between two time points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Microseconds between two time points.
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// printf-style formatting of numbers (each passed as a double, so every
/// conversion in `format` is a floating-point one) into a note line.
template <typename... Numbers>
std::string Fmt(const char* format, Numbers... numbers) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, static_cast<double>(numbers)...);
  return buf;
}

/// Quantile q in [0, 1] by linear interpolation between order statistics;
/// 0 for an empty sample. Sorts `v` in place.
double Quantile(std::vector<double>* v, double q);

/// Median of `v` (sorts in place).
inline double Median(std::vector<double>* v) { return Quantile(v, 0.5); }

/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMb();

/// Host and build context of the run, as one JSON object: nproc, resolved
/// kernel ISA, compiler, build type, workload and seed.
std::string ContextJson(const Args& args);

/// Prints the notes, the context line and, as the last line of standard
/// output, the result object {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const Args& args, const Result& result);

// Workload entry points (workloads.cc).
Result RunPosTagging(const Args& args);
Result RunWireK50Mixed(const Args& args);

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_BENCH_H_

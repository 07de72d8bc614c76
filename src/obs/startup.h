// The process's one startup log line.
//
// Before the obs layer, three call sites each printed their own startup
// resolution line (linalg::kernels::LogStartupOnce and its DecodeService/
// FrontEnd callers). They are folded here: every serving entry point
// calls obs::LogStartup(), which prints exactly one unified line per
// process and records the resolved kernel ISA as a registry gauge, so
// the resolution is attributable both in service logs and in any stats
// snapshot (the `kStats` wire opcode, obs::RenderText, BENCH_*.json).
#ifndef DHMM_OBS_STARTUP_H_
#define DHMM_OBS_STARTUP_H_

#include <string>

namespace dhmm::obs {

/// The unified startup report. Format (pinned by tests/obs_test.cc and
/// grepped by CI's release leg — change both together):
///   "[dhmm] startup: kernels isa=<isa> detected=<isa> override=<ov>
///    fixed_k<=<k>"
/// where the trailing fields are linalg::kernels::StartupSummary().
std::string StartupLine();

/// Prints StartupLine() to stderr once per process and records the
/// resolved kernel ISA as gauge `startup.kernel_isa` (0 = scalar,
/// 1 = avx2, 2 = avx512 — the linalg::kernels::Isa enum values). The
/// gauge is refreshed on every call; only the log line is once-only.
void LogStartup();

}  // namespace dhmm::obs

#endif  // DHMM_OBS_STARTUP_H_

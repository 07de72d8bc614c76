// One-shot startup dispatch over the SIMD micro-kernel variants.
//
// The scalar layer in kernels.h stays the verbatim parity oracle; this
// header adds per-ISA vector variants of the reduction/axpy/fused kernels
// and exposes them through immutable function-pointer tables (the codegen
// -table idiom: pick the specialized routine from a table keyed on shape at
// dispatch time, never branch inside the loop):
//
//  - The active ISA is resolved exactly once per process, on first use,
//    from CPU feature detection — overridable with DHMM_KERNEL_ISA=
//    scalar|avx2|avx512. An unrecognized value aborts (a typo must never
//    silently re-select the vector path a caller believes it pinned off);
//    a recognized value the host/build lacks logs a warning to stderr and
//    falls back to the best detected ISA. After
//    resolution every call site reads function pointers out of a fixed
//    table: no per-call ISA branch reaches any inner loop.
//  - Tables are keyed on (ISA, k-class). ForK(k) returns the fully
//    unrolled fixed-k table for k <= kMaxFixedK under a vector ISA and the
//    ISA's variable-length table otherwise; under the scalar ISA every
//    k-class maps to the verbatim kernels.cc oracle. A given shape k
//    therefore always resolves to the same variant within a process, which
//    is what keeps the engine/serve bitwise contracts (thread-count
//    invariance, stream-vs-offline equality, checkpointed-vs-full replay)
//    intact: they only ever compare runs of the same process.
//  - The vector kernels are written once, as templates over per-ISA lane
//    traits (kernels_simd.h); the variant TUs kernels_avx2.cc and
//    kernels_avx512.cc hold only their traits and table getters. Every
//    variant has the fixed lane-accumulation order documented in
//    kernels_simd.h, so results are bitwise reproducible across calls,
//    thread counts, and buffer reuse within a selected ISA, and
//    tests/kernels_test.cc pins each table's output bits. Cross-ISA
//    parity versus the scalar oracle is <= 1e-12 (tests/kernels_test.cc
//    grid, plus the startup check in bench/perf_hmm_ops).
//  - viterbi_step is the exception that is stronger: it has no reduction
//    (one add per candidate, exact max, strict-> select in ascending
//    predecessor order), so every variant is *bitwise* equal to the scalar
//    oracle, and Viterbi paths, scores and backpointers are identical
//    under every ISA (pinned by tests/kernels_test.cc and the same
//    startup check).
//
// On non-x86 hosts (or toolchains without the -m flags) the variant TUs
// compile to stubs and dispatch resolves to scalar — the portable build
// never references an instruction the target lacks.
#ifndef DHMM_LINALG_KERNELS_DISPATCH_H_
#define DHMM_LINALG_KERNELS_DISPATCH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/kernels.h"

namespace dhmm::linalg::kernels {

/// Instruction-set variants a kernel table can be compiled for. Order is
/// preference order: dispatch picks the highest compiled-and-supported.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Largest k with a fully unrolled fixed-k kernel instantiation.
inline constexpr std::size_t kMaxFixedK = 8;

/// \brief One resolved kernel variant: function pointers matching the
/// kernels.h signatures, one per kernel that library code calls through
/// dispatch (the chain recursions, Matrix and Vector). Tables are
/// immutable after startup resolution; call sites fetch a table once per
/// sequence/batch (outside all inner loops) and call through it.
struct KernelTable {
  double (*sum_row)(const double* DHMM_RESTRICT x, std::size_t n);
  double (*dot)(const double* DHMM_RESTRICT x, const double* DHMM_RESTRICT y,
                std::size_t n);
  void (*mul_row_scaled_into)(const double* DHMM_RESTRICT x,
                              const double* DHMM_RESTRICT y, double s,
                              std::size_t n, double* DHMM_RESTRICT out);
  void (*axpy_row)(double s, const double* DHMM_RESTRICT x, std::size_t n,
                   double* DHMM_RESTRICT out);
  void (*mat_vec_col)(const double* DHMM_RESTRICT a,
                      const double* DHMM_RESTRICT x, std::size_t m,
                      std::size_t n, double* DHMM_RESTRICT out);
  void (*mat_vec_col_mul)(const double* DHMM_RESTRICT a,
                          const double* DHMM_RESTRICT x,
                          const double* DHMM_RESTRICT w, std::size_t m,
                          std::size_t n, double* DHMM_RESTRICT out);
  void (*backward_fused)(const double* DHMM_RESTRICT a,
                         const double* DHMM_RESTRICT u,
                         const double* DHMM_RESTRICT s, std::size_t m,
                         std::size_t n, double* DHMM_RESTRICT beta_out,
                         double* DHMM_RESTRICT xi);
  double (*exp_shift_row)(const double* DHMM_RESTRICT x, std::size_t n,
                          double* DHMM_RESTRICT out);
  void (*viterbi_step)(const double* DHMM_RESTRICT prev,
                       const double* DHMM_RESTRICT log_a,
                       const double* DHMM_RESTRICT log_b_row, std::size_t k,
                       double* DHMM_RESTRICT delta_out,
                       int* DHMM_RESTRICT psi_out);

  Isa isa = Isa::kScalar;
  const char* name = "scalar";  ///< e.g. "avx2", "avx512/k4"
  std::size_t fixed_k = 0;      ///< 0 = variable-length kernels
};

/// The active variable-length table (resolved once, see header comment).
const KernelTable& Active();

/// The active table for rows/squares of length k: the fixed-k
/// instantiation for k <= kMaxFixedK under a vector ISA, Active()
/// otherwise. O(1): one bounds test and an array index, no re-dispatch.
const KernelTable& ForK(std::size_t k);

/// The ISA Active() resolved to.
Isa ActiveIsa();

/// Canonical lowercase name ("scalar", "avx2", "avx512").
const char* IsaName(Isa isa);

/// IsaName(ActiveIsa()) — the value benches record as `kernel_isa`.
const char* ActiveIsaName();

/// ISAs whose variant TUs were compiled into this binary (scalar always).
std::vector<Isa> CompiledIsas();

/// True when `isa` is both compiled in and supported by this CPU.
bool IsaAvailable(Isa isa);

/// ForK(k) for a specific ISA regardless of what is active (k = 0 gives
/// the variable-length table) — the parity tests and per-ISA benches call
/// variants through this. `isa` must be compiled in (CHECK-failure
/// otherwise); running a table on a CPU that lacks the ISA is the caller's
/// responsibility (IsaAvailable).
const KernelTable& TableFor(Isa isa, std::size_t k);

/// One-line resolution report, e.g.
/// "isa=avx512 detected=avx512 override=none fixed_k<=8". The unified
/// process startup line (obs/startup.h) embeds this verbatim — serving
/// front ends and benches log through obs::LogStartup(), which also
/// exports the resolved ISA as a gauge.
std::string StartupSummary();

namespace internal {

/// Per-ISA table set: the variable-length table plus the k-class row.
/// by_k[0] is unused and aliases generic so ForK can index unconditionally.
struct IsaTables {
  const KernelTable* generic = nullptr;
  const KernelTable* by_k[kMaxFixedK + 1] = {};
};

/// Defined in kernels_dispatch.cc (scalar) and the variant TUs; a variant
/// TU compiled without its ISA flags returns nullptr.
const IsaTables& ScalarTables();
const IsaTables* Avx2Tables();
const IsaTables* Avx512Tables();

/// Test/bench-only: re-points the process-wide active tables at `isa`
/// (which must be available) and re-labels StartupSummary()'s override
/// field "forced:<isa>". The swap is data-race-free (the resolution state
/// is atomic), but a reader overlapping a swap may observe a mix of old
/// and new fields — per-ISA benches and tests swap while single-threaded,
/// then restore. Returns false when the ISA is unavailable. Production
/// code must never call this; one-shot startup resolution is the contract.
bool ForceIsaForTestOnly(Isa isa);

}  // namespace internal

}  // namespace dhmm::linalg::kernels

#endif  // DHMM_LINALG_KERNELS_DISPATCH_H_

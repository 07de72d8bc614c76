// Deterministic micro-kernels for the chain-algebra hot loops.
//
// Every primitive here works on restrict-qualified raw pointers over
// contiguous (64-byte-aligned, see linalg/aligned.h) storage and reduces
// through a fixed four-accumulator stream pattern: lanes 0..3 each sum every
// fourth element, the tail folds into lane 0, and the lanes combine as
// (s0 + s1) + (s2 + s3). That order is a compile-time property of the code —
// no runtime dispatch, no FMA contraction surprises under the default flags —
// so results are bitwise reproducible across calls, thread counts, and
// buffer reuse, which the inference and engine contracts rely on.
//
// The kernels are deliberately shape-agnostic: callers (hmm/inference.cc,
// linalg::Matrix) choose whether to feed a matrix or its cached transpose so
// that every inner loop reads memory contiguously.
//
// This header is the *scalar* layer — the parity oracle. SIMD variants of
// the out-of-line kernels live behind the one-shot dispatch tables in
// linalg/kernels_dispatch.h; hot callers fetch a table via ForK(k) and call
// through it, while anything calling these functions directly gets the
// oracle unconditionally (that is what DHMM_KERNEL_ISA=scalar pins the
// whole process to).
#ifndef DHMM_LINALG_KERNELS_H_
#define DHMM_LINALG_KERNELS_H_

#include <cstddef>

#define DHMM_RESTRICT __restrict__

namespace dhmm::linalg::kernels {

// The branchy scan primitives (argmax) and cheap elementwise maps are
// defined inline: the chain recursions call them once per (frame, state)
// pair with rows as short as k = 2, where an out-of-line call costs more
// than the loop body. The reduction/axpy kernels stay out-of-line in
// kernels.cc, where their restrict qualifiers demonstrably survive to the
// optimizer and the 4-way streams vectorize. Inline-vs-not cannot change
// results — the accumulation order is fixed by the source and the build
// uses strict IEEE semantics (no fast-math, no reassociation).

/// \brief Sum of x[0..n) with the fixed 4-way accumulation order.
double SumRow(const double* DHMM_RESTRICT x, std::size_t n);

/// \brief Dot product of x and y with the fixed 4-way accumulation order.
double Dot(const double* DHMM_RESTRICT x, const double* DHMM_RESTRICT y,
           std::size_t n);

/// \brief Maximum of x[0..n); n must be positive.
double MaxRow(const double* DHMM_RESTRICT x, std::size_t n);

/// \brief Index of the maximum of x[0..n); lowest index wins ties. n > 0.
inline std::size_t ArgMaxRow(const double* DHMM_RESTRICT x, std::size_t n) {
  std::size_t arg = 0;
  double best = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (x[i] > best) {
      best = x[i];
      arg = i;
    }
  }
  return arg;
}

/// \brief In-place x *= s.
inline void ScaleRow(double* DHMM_RESTRICT x, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

/// \brief out = x .* y elementwise (out must not alias the inputs).
inline void MulRowInto(const double* DHMM_RESTRICT x,
                       const double* DHMM_RESTRICT y, std::size_t n,
                       double* DHMM_RESTRICT out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
}

/// \brief out = x .* y * s — the hoisted backward frame product
/// btilde(t+1,.) * beta_hat(t+1,.) / scale[t+1] computed once per frame
/// (out must not alias the inputs).
void MulRowScaledInto(const double* DHMM_RESTRICT x,
                      const double* DHMM_RESTRICT y, double s, std::size_t n,
                      double* DHMM_RESTRICT out);

/// \brief out += s * x (contiguous axpy; out must not alias x).
void AxpyRow(double s, const double* DHMM_RESTRICT x, std::size_t n,
             double* DHMM_RESTRICT out);

/// \brief out += s * x .* y — one xi-accumulation row:
/// xi(i,.) += alpha_hat(t,i) * a(i,.) .* u (out must not alias the inputs).
void AxpyMulRow(double s, const double* DHMM_RESTRICT x,
                const double* DHMM_RESTRICT y, std::size_t n,
                double* DHMM_RESTRICT out);

/// \brief out = A x for row-major A (m x n): one 4-way dot per row. To
/// compute x^T A with dot-style accumulation instead of axpy, pass the
/// cached transpose of A (see hmm::TransitionCache). out must not alias.
void MatVecCol(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT x,
               std::size_t m, std::size_t n, double* DHMM_RESTRICT out);

/// \brief out = (A x) .* w — the fused forward step: one dot against a row
/// of the cached transposed transition matrix, multiplied by the frame's
/// shifted emission while the dot result is still in a register.
void MatVecColMul(const double* DHMM_RESTRICT a,
                  const double* DHMM_RESTRICT x,
                  const double* DHMM_RESTRICT w, std::size_t m, std::size_t n,
                  double* DHMM_RESTRICT out);

/// \brief The fused backward frame, in one pass over A: beta_out = A u,
/// and xi(i,.) += s[i] * a(i,.) .* u (the AxpyMulRow expression) for every
/// i with s[i] != 0, i ascending (a zero row is skipped: computing it could
/// turn 0 * inf into NaN). Issued as two kernels the pair would read the
/// k x k matrix twice, which costs once A falls out of L1. On every ISA
/// beta_out is bitwise equal to MatVecCol(a, u): fusion never changes a
/// row's accumulation order. The sweep's ascending replay and the session
/// rings compute beta with plain MatVecCol (hmm/chain_steps.h BetaStep)
/// and depend on that equality.
void BackwardFused(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT u,
                   const double* DHMM_RESTRICT s, std::size_t m, std::size_t n,
                   double* DHMM_RESTRICT beta_out, double* DHMM_RESTRICT xi);

/// \brief One Viterbi frame over row-major log A (k x k):
/// delta_out[j] = max_i (prev[i] + log_a[i][j]) + log_b_row[j] and
/// psi_out[j] = the maximizing i. For each successor j, predecessor i = 0
/// seeds the best and each later i, ascending, replaces it only on a strict
/// >, so the lowest index wins ties and a NaN candidate never wins. This
/// oracle runs that scan successor by successor, down a column of log A
/// with the running best in a register (a scalar row sweep measured slower:
/// its read-modify-write of delta_out serializes). The vector variants run
/// it in row-broadcast form, adding prev[i] to the contiguous row
/// log_a[i][.] for a block of successors at once. Every candidate is one
/// IEEE add of the same two doubles and the max is exact, so every ISA's
/// variant is bitwise equal to this loop. delta_out and psi_out must not
/// alias the inputs.
void ViterbiStep(const double* DHMM_RESTRICT prev,
                 const double* DHMM_RESTRICT log_a,
                 const double* DHMM_RESTRICT log_b_row, std::size_t k,
                 double* DHMM_RESTRICT delta_out, int* DHMM_RESTRICT psi_out);

/// \brief Shifted exponentiation of one emission row: returns
/// m = max_i x[i] and writes out[i] = exp(x[i] - m), so at least one output
/// is exactly 1. Returns -inf (and writes nothing useful) only when every
/// input is -inf; callers treat that as a zero-probability frame.
double ExpShiftRow(const double* DHMM_RESTRICT x, std::size_t n,
                   double* DHMM_RESTRICT out);

/// \brief out = A^T for row-major A (m x n); out is n x m row-major.
void TransposeInto(const double* DHMM_RESTRICT a, std::size_t m,
                   std::size_t n, double* DHMM_RESTRICT out);

}  // namespace dhmm::linalg::kernels

#endif  // DHMM_LINALG_KERNELS_H_

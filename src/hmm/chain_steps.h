// The per-frame steps of the scaled forward–backward recursion (Rabiner,
// "A Tutorial on Hidden Markov Models and Selected Applications in Speech
// Recognition", 1989): one forward frame, one beta-only backward step, one
// posterior normalization, and the Status each per-frame failure maps to.
//
// Each step exists once. The offline sweep and forward-only likelihood
// (hmm/inference.cc) and the session rings (serve/stream_math.h) all call
// these, so a session's messages, scales and labels are bitwise equal to
// offline ones because they are the same kernel calls on the same bits.
// Callers pass the kernel table they fetched for k once (ForK), outside
// their per-frame loops.
#ifndef DHMM_HMM_CHAIN_STEPS_H_
#define DHMM_HMM_CHAIN_STEPS_H_

#include <cstddef>

#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace dhmm::hmm::internal {

/// InvalidArgument "... at frame <t>" for a frame with zero emission
/// probability in every state.
Status ImpossibleFrame(size_t t);

/// InvalidArgument "... at frame <t>" for a forward message that vanished.
Status ForwardVanished(size_t t);

/// InvalidArgument "... at frame <t>" for posterior mass that vanished.
Status PosteriorVanished(size_t t);

/// One scaled forward frame into `cur`: (A^T alpha_{t-1}) .* btilde_t, or
/// pi .* btilde_t at t = 0 (`prev` unused), normalized by its sum c_t,
/// which is returned. When c_t is not positive the forward mass vanished
/// and `cur` is left unnormalized.
inline double ForwardFrame(const linalg::kernels::KernelTable& kt,
                           const linalg::Vector& pi, const linalg::Matrix& a_t,
                           size_t t, const double* prev, const double* btilde,
                           double* cur) {
  const size_t k = pi.size();
  if (t == 0) {
    linalg::kernels::MulRowInto(pi.data(), btilde, k, cur);
  } else {
    kt.mat_vec_col_mul(a_t.data(), prev, btilde, k, k, cur);
  }
  const double c = kt.sum_row(cur, k);
  if (c > 0.0) linalg::kernels::ScaleRow(cur, k, 1.0 / c);
  return c;
}

/// One beta-only backward step: u = btilde_{t+1} .* beta_{t+1} / c_{t+1},
/// then beta_t = A u. `u` keeps the hoisted product (the online xi term).
/// backward_fused's beta is bitwise equal to this mat_vec_col, so this step
/// reproduces the xi-accumulating descent's betas.
inline void BetaStep(const linalg::kernels::KernelTable& kt,
                     const linalg::Matrix& a, const double* btilde_next,
                     const double* beta_next, double scale_next, double* u,
                     double* beta) {
  const size_t k = a.rows();
  kt.mul_row_scaled_into(btilde_next, beta_next, 1.0 / scale_next, k, u);
  kt.mat_vec_col(a.data(), u, k, k, beta);
}

/// gamma_t = alpha_t .* beta_t, normalized by one reciprocal multiply.
/// False when the posterior mass vanished.
inline bool GammaRow(const linalg::kernels::KernelTable& kt,
                     const double* alpha_row, const double* beta_row, size_t k,
                     double* gamma_row) {
  linalg::kernels::MulRowInto(alpha_row, beta_row, k, gamma_row);
  const double norm = kt.sum_row(gamma_row, k);
  if (!(norm > 0.0)) return false;
  linalg::kernels::ScaleRow(gamma_row, k, 1.0 / norm);
  return true;
}

}  // namespace dhmm::hmm::internal

#endif  // DHMM_HMM_CHAIN_STEPS_H_

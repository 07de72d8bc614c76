// Reusable scratch for the product-kernel / log-det hot path.
//
// Every line-search probe of the paper's Algorithm 1 evaluates
// log det K~(A), and every accepted step also needs its gradient. Building
// the kernel, factorizing it, and forming K^{-1}P from freshly allocated
// matrices dominated the M-step before this workspace existed. One
// KernelWorkspace per worker thread makes the whole stack allocation-free
// after the first update at a given k: all buffers are grow-only (see
// linalg::Matrix::Resize), mirroring hmm::InferenceWorkspace from the
// batched E-step engine.
#ifndef DHMM_DPP_KERNEL_WORKSPACE_H_
#define DHMM_DPP_KERNEL_WORKSPACE_H_

#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace dhmm::dpp {

/// \brief Grow-only scratch buffers for kernel construction, factorization,
/// and the fused log-det + gradient evaluation.
///
/// The kernel is a Gram matrix (P P^T), so every entry point factorizes it
/// by Cholesky, and failure of the factorization *is* the
/// numerically-singular test. Thread-compatible, not thread-safe: one
/// workspace serves one worker. Contents are fully overwritten by each
/// entry point that uses them, so a workspace can be shared freely across
/// probes, updates, and state counts.
struct KernelWorkspace {
  linalg::Matrix powed;   ///< k x d — floored rows raised to rho
  linalg::Matrix kernel;  ///< k x k — product kernel P P^T
  linalg::CholeskyDecomposition chol;  ///< factors of `kernel`
  linalg::Matrix kinv_p;  ///< k x d — K^{-1} P (gradient solve result)
  linalg::Matrix grad;    ///< k x d — gradient scratch
};

}  // namespace dhmm::dpp

#endif  // DHMM_DPP_KERNEL_WORKSPACE_H_

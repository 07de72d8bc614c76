// The diversity objective log det K~(A) and its analytic gradient (Eq. 15).
#ifndef DHMM_DPP_LOGDET_H_
#define DHMM_DPP_LOGDET_H_

#include "dpp/kernel_workspace.h"
#include "dpp/product_kernel.h"
#include "linalg/matrix.h"

namespace dhmm::dpp {

/// \brief log det K~_A for the normalized product kernel over rows of A:
/// one call of the workspace overload below, so both return the same bits.
///
/// Returns -infinity when the kernel is not numerically positive definite
/// (e.g. two rows identical), which is exactly the configuration the prior
/// penalizes.
double LogDetNormalizedKernel(const linalg::Matrix& rows,
                              double rho = kDefaultRho);

/// \brief Gradient of log det K~_A with respect to every entry of A.
///
/// Uses the exact derivative of the *normalized* kernel:
///   d/dA_ij log det K~ = 2 rho A_ij^{rho-1} ( [K^{-1} P]_ij - P_ij / K_ii )
/// with P_ij = A_ij^rho and K the unnormalized product kernel. On the
/// probability simplex with rho = 0.5 this direction coincides with the
/// paper's Eq. 15 up to a positive scale and a per-row constant shift, both of
/// which are absorbed by the adaptive step size and the simplex projection
/// (Euclidean simplex projection is invariant to uniform shifts).
///
/// Entries below kProbFloor sit in the floored (flat) region of the kernel
/// and receive zero gradient. Returns false (and a zero matrix) when the
/// kernel is not positive definite so callers can backtrack.
bool GradLogDetNormalizedKernel(const linalg::Matrix& rows, double rho,
                                linalg::Matrix* grad);

/// \brief Workspace overload of LogDetNormalizedKernel for line-search
/// probes: one kernel build plus one Cholesky factorization, all into ws
/// buffers, no heap allocation at steady state.
///
/// Factorizes the *unnormalized* kernel K and uses
///   log det K~ = log det K - sum_i log K_ii.
/// Returns -infinity when K is not numerically positive definite.
double LogDetNormalizedKernel(const linalg::Matrix& rows, double rho,
                              KernelWorkspace* ws);

/// \brief Fused objective + gradient (the Algorithm-1 hot path): computes
/// log det K~_A *and* its gradient from a single kernel build and Cholesky
/// factorization, where the separate entry points above each rebuild and
/// refactorize the same kernel.
///
/// The log-det lands in *log_det (identical bits to LogDetNormalizedKernel);
/// the gradient is GradLogDetNormalizedKernel's (which delegates here), with
/// K^{-1}P obtained by direct Cholesky solves instead of an explicit
/// inverse. Returns false with *log_det = -infinity when the kernel is not
/// positive definite; `grad` contents are then unspecified.
bool LogDetAndGrad(const linalg::Matrix& rows, double rho,
                   KernelWorkspace* ws, double* log_det,
                   linalg::Matrix* grad);

/// \brief Gradient-only entry point for a workspace whose `powed`, `kernel`,
/// and `chol` members are already valid for `rows` (e.g. snapshotted from
/// the line-search probe that evaluated this point moments earlier): skips
/// the kernel rebuild and refactorization and goes straight to the solve.
/// Precondition: ws->chol.ok().
void GradLogDetFromFactoredWorkspace(const linalg::Matrix& rows, double rho,
                                     KernelWorkspace* ws,
                                     linalg::Matrix* grad);

/// \brief The paper's literal Eq. 15 prior-gradient formula (rho = 0.5):
///   d/dA_ij = (1/2) sum_m [K~^{-1}]_mi sqrt(A_mj) / sqrt(A_ij),
/// with the sum taken as one Cholesky solve K~ M = P (no explicit inverse).
///
/// Kept alongside the exact gradient for the fidelity ablation bench; both
/// directions agree after simplex projection (see GradLogDetNormalizedKernel).
/// Returns false (and a zero matrix) when K~ is not positive definite.
bool PaperGradLogDet(const linalg::Matrix& rows, linalg::Matrix* grad);

}  // namespace dhmm::dpp

#endif  // DHMM_DPP_LOGDET_H_

// Probability product kernel over discrete distributions (Jebara et al. 2004)
// and its normalized-correlation form (paper Eqs. 2 and 5).
#ifndef DHMM_DPP_PRODUCT_KERNEL_H_
#define DHMM_DPP_PRODUCT_KERNEL_H_

#include "dpp/kernel_workspace.h"
#include "linalg/matrix.h"

namespace dhmm::dpp {

/// Default kernel exponent; the paper fixes rho = 0.5 (Bhattacharyya kernel)
/// for all experiments.
inline constexpr double kDefaultRho = 0.5;

/// Entry floor used when raising probabilities to (possibly negative-exponent)
/// powers; keeps gradients finite when simplex projection zeroes an entry.
inline constexpr double kProbFloor = 1e-12;

/// \brief Normalized correlation kernel (Eq. 2):
///   K~_ij = K_ij / sqrt(K_ii * K_jj).
///
/// Scale-invariant in each row; diagonal is exactly 1. For rho = 0.5 and rows
/// on the simplex this is the Bhattacharyya coefficient matrix.
linalg::Matrix NormalizedKernel(const linalg::Matrix& rows,
                                double rho = kDefaultRho);

/// \brief Unnormalized probability product kernel matrix, into `ws`:
/// ws->powed holds the floored rows raised to rho, and ws->kernel = P P^T,
/// i.e. K_ij = sum_x P(x|A_i)^rho * P(x|A_j)^rho where rows of `rows`
/// parameterize discrete distributions (they need not be exactly
/// normalized; entries are floored at kProbFloor). Allocation-free once the
/// workspace buffers have grown to the row shape.
void ProductKernel(const linalg::Matrix& rows, double rho,
                   KernelWorkspace* ws);

/// \brief Workspace overload of NormalizedKernel: ProductKernel into the
/// workspace, then Eq. 2 on ws->kernel in place.
void NormalizedKernel(const linalg::Matrix& rows, double rho,
                      KernelWorkspace* ws);

}  // namespace dhmm::dpp

#endif  // DHMM_DPP_PRODUCT_KERNEL_H_

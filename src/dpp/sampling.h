// Exact sampling from discrete k-DPPs (Hough et al.; Kulesza & Taskar
// Algorithms 1 and 8). Background machinery from the paper's
// §2.2/§3.1;
// used by the diversity-playground example and by tests that validate the
// repulsion property of the kernels the dHMM prior is built on.
#ifndef DHMM_DPP_SAMPLING_H_
#define DHMM_DPP_SAMPLING_H_

#include <vector>

#include "linalg/matrix.h"
#include "prob/rng.h"

namespace dhmm::dpp {

/// \brief Draws an exactly-k-subset from the k-DPP with kernel L (Eq. 1).
///
/// Precondition: k <= rank(L) (checked against the eigenvalue spectrum).
std::vector<size_t> SampleKDpp(const linalg::Matrix& l_kernel, size_t k,
                               prob::Rng& rng);

/// \brief Log probability the k-DPP (Eq. 1) assigns to `subset`:
///   log P^k_L(Y) = log det(L_Y) - log e_k(lambda),
/// -infinity when L_Y is singular (a repeated item, or linearly dependent
/// items as far as a Cholesky factorization can tell).
double KDppLogProb(const linalg::Matrix& l_kernel,
                   const std::vector<size_t>& subset);

}  // namespace dhmm::dpp

#endif  // DHMM_DPP_SAMPLING_H_

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

/// \brief Probability density assigned by the k-DPP (Eq. 1):
///   P^k_L(Y) = det(L_Y) / e_k(lambda).
double KDppLogProb(const linalg::Matrix& l_kernel,
                   const std::vector<size_t>& subset);

}  // namespace dhmm::dpp

#endif  // DHMM_DPP_SAMPLING_H_

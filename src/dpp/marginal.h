// Marginal-kernel utilities for L-ensemble DPPs (Kulesza & Taskar §2).
//
// The dHMM prior only needs det(L_Y); these utilities complete the DPP
// toolbox for analysis and the diversity-playground example: the marginal
// kernel K = L(L+I)^{-1}, per-item inclusion probabilities, pairwise
// marginals, and expected sample cardinality.
#ifndef DHMM_DPP_MARGINAL_H_
#define DHMM_DPP_MARGINAL_H_

#include <vector>

#include "linalg/matrix.h"

namespace dhmm::dpp {

/// \brief Marginal kernel K = L (L + I)^{-1} of the L-ensemble.
///
/// P(S ⊆ Y) = det(K_S) for every fixed subset S; in particular
/// P(i ∈ Y) = K_ii and P(i,j ∈ Y) = K_ii K_jj − K_ij².
linalg::Matrix MarginalKernel(const linalg::Matrix& l_kernel);

/// \brief Per-item inclusion probabilities (the diagonal of K).
linalg::Vector InclusionProbabilities(const linalg::Matrix& l_kernel);

/// \brief P(i ∈ Y and j ∈ Y) from the marginal kernel.
double PairInclusionProbability(const linalg::Matrix& marginal_kernel, size_t i,
                                size_t j);

/// \brief Expected sample size E|Y| = trace(K) = sum_n lambda_n/(1+lambda_n).
double ExpectedCardinality(const linalg::Matrix& l_kernel);

/// \brief log P(Y = subset) under the L-ensemble:
///   det(L_Y) / det(L + I).
double DppLogProb(const linalg::Matrix& l_kernel,
                  const std::vector<size_t>& subset);

}  // namespace dhmm::dpp

#endif  // DHMM_DPP_MARGINAL_H_

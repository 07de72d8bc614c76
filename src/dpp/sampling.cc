#include "dpp/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dpp/esp.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "util/check.h"

namespace dhmm::dpp {

namespace {

// Phase 2 of the standard DPP sampler: given selected eigenvectors (columns
// of `v`, orthonormal, n x m), draw m items one at a time.
std::vector<size_t> SampleFromEigenvectors(linalg::Matrix v, prob::Rng& rng) {
  const size_t n = v.rows();
  std::vector<size_t> out;
  size_t m = v.cols();
  while (m > 0) {
    // P(item i) = (1/m) * sum_c v(i, c)^2.
    linalg::Vector weights(n);
    for (size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (size_t c = 0; c < m; ++c) s += v(i, c) * v(i, c);
      weights[i] = s;
    }
    size_t item = rng.Categorical(weights);
    out.push_back(item);

    if (m == 1) break;
    // Project the basis onto the complement of e_item: pick the column with
    // the largest |v(item, c)|, use it to cancel the item-th coordinate of
    // the others, drop it, then re-orthonormalize (modified Gram-Schmidt).
    size_t pivot = 0;
    double best = 0.0;
    for (size_t c = 0; c < m; ++c) {
      if (std::fabs(v(item, c)) > best) {
        best = std::fabs(v(item, c));
        pivot = c;
      }
    }
    DHMM_CHECK_MSG(best > 0.0, "degenerate eigenbasis during DPP sampling");
    linalg::Matrix next(n, m - 1);
    size_t out_c = 0;
    for (size_t c = 0; c < m; ++c) {
      if (c == pivot) continue;
      double f = v(item, c) / v(item, pivot);
      for (size_t i = 0; i < n; ++i) {
        next(i, out_c) = v(i, c) - f * v(i, pivot);
      }
      ++out_c;
    }
    // Modified Gram-Schmidt on the m-1 remaining columns.
    for (size_t c = 0; c < next.cols(); ++c) {
      for (size_t prev = 0; prev < c; ++prev) {
        double dot = 0.0;
        for (size_t i = 0; i < n; ++i) dot += next(i, c) * next(i, prev);
        for (size_t i = 0; i < n; ++i) next(i, c) -= dot * next(i, prev);
      }
      double norm = 0.0;
      for (size_t i = 0; i < n; ++i) norm += next(i, c) * next(i, c);
      norm = std::sqrt(norm);
      DHMM_CHECK_MSG(norm > 1e-12, "rank collapse during DPP sampling");
      for (size_t i = 0; i < n; ++i) next(i, c) /= norm;
    }
    v = std::move(next);
    m = v.cols();
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<size_t> SampleKDpp(const linalg::Matrix& l_kernel, size_t k,
                               prob::Rng& rng) {
  DHMM_CHECK(l_kernel.rows() == l_kernel.cols());
  linalg::SymmetricEigen eig(l_kernel);
  linalg::Vector lambda = eig.eigenvalues();
  const size_t n = lambda.size();
  DHMM_CHECK(k <= n);
  for (size_t i = 0; i < n; ++i) lambda[i] = std::max(lambda[i], 0.0);

  // Phase 1 (Algorithm 8): walk eigenvalues from last to first, including
  // eigenvalue c with probability lambda_c * e_{j-1}^{c-1} / e_j^{c}.
  linalg::Matrix esp = ElementarySymmetricTable(lambda, k);
  DHMM_CHECK_MSG(esp(k, n) > 0.0, "k exceeds the numerical rank of L");
  std::vector<size_t> chosen;
  size_t remaining = k;
  for (size_t c = n; c-- > 0 && remaining > 0;) {
    if (c + 1 < remaining) break;  // cannot fill the budget anymore
    double denom = esp(remaining, c + 1);
    double p_include =
        denom > 0.0 ? lambda[c] * esp(remaining - 1, c) / denom : 1.0;
    if (rng.Uniform() < p_include) {
      chosen.push_back(c);
      --remaining;
    }
  }
  DHMM_CHECK_MSG(remaining == 0, "k-DPP eigenvector selection underfilled");
  linalg::Matrix v(n, chosen.size());
  for (size_t c = 0; c < chosen.size(); ++c) {
    v.SetCol(c, eig.eigenvectors().Col(chosen[c]));
  }
  return SampleFromEigenvectors(std::move(v), rng);
}

double KDppLogProb(const linalg::Matrix& l_kernel,
                   const std::vector<size_t>& subset) {
  DHMM_CHECK(l_kernel.rows() == l_kernel.cols());
  const size_t k = subset.size();
  linalg::Matrix sub(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      sub(i, j) = l_kernel(subset[i], subset[j]);
    }
  }
  linalg::SymmetricEigen eig(l_kernel);
  linalg::Vector lambda = eig.eigenvalues();
  for (size_t i = 0; i < lambda.size(); ++i) {
    lambda[i] = std::max(lambda[i], 0.0);
  }
  linalg::Vector esp = ElementarySymmetric(lambda, k);
  DHMM_CHECK(esp[k] > 0.0);
  // L is PSD, so det(L_Y) > 0 exactly when L_Y is positive definite. A
  // repeated item gives L_Y two equal rows, det 0, yet roundoff can leave
  // its Cholesky factor a tiny positive last pivot, so test for it first.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<size_t> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return kNegInf;
  }
  linalg::CholeskyDecomposition chol(sub);
  if (!chol.ok()) return kNegInf;
  return chol.LogDeterminant() - std::log(esp[k]);
}

}  // namespace dhmm::dpp

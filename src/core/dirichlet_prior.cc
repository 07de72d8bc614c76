#include "core/dirichlet_prior.h"

#include <algorithm>

#include "util/check.h"

namespace dhmm::core {

linalg::Matrix DirichletMapTransitions(const linalg::Matrix& expected_counts,
                                       double beta) {
  DHMM_CHECK(beta > 0.0);
  const size_t k = expected_counts.rows();
  const size_t n = expected_counts.cols();
  linalg::Matrix a(k, n);
  for (size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = std::max(expected_counts(i, j) + beta - 1.0, 0.0);
      row_sum += a(i, j);
    }
    if (row_sum <= 0.0) {
      // All entries clipped (tiny counts under a sparse prior): fall back to
      // the ML row so the chain stays usable.
      double ml_sum = 0.0;
      for (size_t j = 0; j < n; ++j) ml_sum += expected_counts(i, j);
      for (size_t j = 0; j < n; ++j) {
        a(i, j) = ml_sum > 0.0 ? expected_counts(i, j) / ml_sum
                               : 1.0 / static_cast<double>(n);
      }
    } else {
      for (size_t j = 0; j < n; ++j) a(i, j) /= row_sum;
    }
  }
  return a;
}

hmm::TransitionMStep MakeDirichletMStep(double beta) {
  return [beta](const linalg::Matrix& counts, linalg::Matrix* a) {
    *a = DirichletMapTransitions(counts, beta);
    return 0.0;
  };
}

}  // namespace dhmm::core

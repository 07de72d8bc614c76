#include "dpp/product_kernel.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace dhmm::dpp {

void ProductKernel(const linalg::Matrix& rows, double rho,
                   KernelWorkspace* ws) {
  DHMM_CHECK(ws != nullptr);
  DHMM_CHECK(rho > 0.0);
  const size_t k = rows.rows();
  const size_t d = rows.cols();
  // Precompute rows raised to rho with flooring. rho = 0.5 (the paper's
  // fixed Bhattacharyya setting, and the training hot path) uses sqrt: glibc
  // pow and sqrt are both correctly rounded so pow(v, 0.5) == sqrt(v), and
  // sqrt is roughly an order of magnitude cheaper — at k = d = 20 the pow
  // calls would otherwise dominate the whole kernel build.
  ws->powed.Resize(k, d);
  if (rho == 0.5) {
    for (size_t i = 0; i < k; ++i) {
      for (size_t x = 0; x < d; ++x) {
        double v = rows(i, x);
        if (v < kProbFloor) v = kProbFloor;
        ws->powed(i, x) = std::sqrt(v);
      }
    }
  } else {
    for (size_t i = 0; i < k; ++i) {
      for (size_t x = 0; x < d; ++x) {
        double v = rows(i, x);
        if (v < kProbFloor) v = kProbFloor;
        ws->powed(i, x) = std::pow(v, rho);
      }
    }
  }
  ws->kernel.Resize(k, k);
  for (size_t i = 0; i < k; ++i) {
    const double* pi = ws->powed.row_data(i);
    for (size_t j = i; j < k; ++j) {
      const double* pj = ws->powed.row_data(j);
      // Four fixed accumulator streams: a deterministic summation order
      // that breaks the serial dependence of a single running sum, so the
      // dot product pipelines/vectorizes without -ffast-math reassociation.
      // This is the hottest loop of every Algorithm-1 line-search probe.
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      size_t x = 0;
      for (; x + 4 <= d; x += 4) {
        s0 += pi[x] * pj[x];
        s1 += pi[x + 1] * pj[x + 1];
        s2 += pi[x + 2] * pj[x + 2];
        s3 += pi[x + 3] * pj[x + 3];
      }
      double s = (s0 + s1) + (s2 + s3);
      for (; x < d; ++x) s += pi[x] * pj[x];
      ws->kernel(i, j) = s;
      ws->kernel(j, i) = s;
    }
  }
}

linalg::Matrix NormalizedKernel(const linalg::Matrix& rows, double rho) {
  KernelWorkspace ws;
  NormalizedKernel(rows, rho, &ws);
  return std::move(ws.kernel);
}

void NormalizedKernel(const linalg::Matrix& rows, double rho,
                      KernelWorkspace* ws) {
  ProductKernel(rows, rho, ws);
  // Allocation-free normalization: the diagonal stays untouched until the
  // final pinning pass, so inverse square roots are recomputed from it
  // directly instead of being staged in a scratch vector.
  const size_t k = ws->kernel.rows();
  for (size_t i = 0; i < k; ++i) {
    double di = ws->kernel(i, i);
    DHMM_CHECK_MSG(di > 0.0, "kernel diagonal must be positive");
    double inv_i = 1.0 / std::sqrt(di);
    for (size_t j = 0; j < i; ++j) {
      double inv_j = 1.0 / std::sqrt(ws->kernel(j, j));
      double v = ws->kernel(i, j) * (inv_i * inv_j);
      ws->kernel(i, j) = v;
      ws->kernel(j, i) = v;
    }
  }
  for (size_t i = 0; i < k; ++i) ws->kernel(i, i) = 1.0;
}

}  // namespace dhmm::dpp

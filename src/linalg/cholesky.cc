#include "linalg/cholesky.h"

#include <cmath>

namespace dhmm::linalg {

bool CholeskyDecomposition::FactorizeInto(const Matrix& a) {
  DHMM_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const size_t n = a.rows();
  l_.Resize(n, n);
  inv_diag_.Resize(n);
  ok_ = true;
  for (size_t i = 0; i < n && ok_; ++i) {
    double* li = l_.row_data(i);
    for (size_t j = 0; j <= i; ++j) {
      const double* lj = l_.row_data(j);
      // Dot product of finalized row prefixes in four fixed accumulator
      // streams (deterministic order, pipelines without reassociation) —
      // this inner loop is most of the factorization at the kernel sizes
      // the M-step factorizes per line-search probe.
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      size_t k = 0;
      for (; k + 4 <= j; k += 4) {
        s0 += li[k] * lj[k];
        s1 += li[k + 1] * lj[k + 1];
        s2 += li[k + 2] * lj[k + 2];
        s3 += li[k + 3] * lj[k + 3];
      }
      double s = a(i, j) - ((s0 + s1) + (s2 + s3));
      for (; k < j; ++k) s -= li[k] * lj[k];
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) {
          ok_ = false;
          break;
        }
        li[j] = std::sqrt(s);
        inv_diag_[i] = 1.0 / li[j];
      } else {
        li[j] = s * inv_diag_[j];
      }
    }
    // Keep the upper triangle zero so L() is a well-formed lower factor even
    // though Resize() reuses dirty storage.
    for (size_t j = i + 1; j < n; ++j) li[j] = 0.0;
  }
  return ok_;
}

double CholeskyDecomposition::LogDeterminant() const {
  DHMM_CHECK(ok_);
  double s = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

void CholeskyDecomposition::SolveInto(const Matrix& b, Matrix* x) const {
  DHMM_CHECK(ok_);
  DHMM_CHECK(x != nullptr && x != &b);
  DHMM_CHECK(b.rows() == l_.rows());
  const size_t n = l_.rows();
  const size_t m = b.cols();
  x->Resize(n, m);
  // Forward: L Y = B, all right-hand sides together, inner loops along
  // contiguous rows. Each row is scaled by a precomputed reciprocal pivot —
  // one divide per row instead of one per element.
  for (size_t i = 0; i < n; ++i) {
    const double* src = b.row_data(i);
    double* xi = x->row_data(i);
    for (size_t c = 0; c < m; ++c) xi[c] = src[c];
    for (size_t j = 0; j < i; ++j) {
      const double f = l_(i, j);
      const double* xj = x->row_data(j);
      for (size_t c = 0; c < m; ++c) xi[c] -= f * xj[c];
    }
    const double inv_d = inv_diag_[i];
    for (size_t c = 0; c < m; ++c) xi[c] *= inv_d;
  }
  // Backward: L^T X = Y.
  for (size_t ii = n; ii-- > 0;) {
    double* xi = x->row_data(ii);
    for (size_t j = ii + 1; j < n; ++j) {
      const double f = l_(j, ii);
      const double* xj = x->row_data(j);
      for (size_t c = 0; c < m; ++c) xi[c] -= f * xj[c];
    }
    const double inv_d = inv_diag_[ii];
    for (size_t c = 0; c < m; ++c) xi[c] *= inv_d;
  }
}

}  // namespace dhmm::linalg

#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dhmm::linalg {

namespace {

// Sum of squares of strictly-upper-triangular entries.
double OffDiagonalNormSq(const Matrix& a) {
  double s = 0.0;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = i + 1; j < a.cols(); ++j) s += a(i, j) * a(i, j);
  return s;
}

}  // namespace

SymmetricEigen::SymmetricEigen(const Matrix& a, int max_sweeps, double tol)
    : values_(a.rows()), vectors_(Matrix::Identity(a.rows())) {
  DHMM_CHECK_MSG(a.rows() == a.cols(), "eigendecomposition needs square input");
  const size_t n = a.rows();
  Matrix m = a;
  // Symmetrize defensively: kernel construction can leave ~1e-16 asymmetry.
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i + 1; j < n; ++j) {
      double v = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = v;
      m(j, i) = v;
    }

  const double thresh = tol * std::max(1.0, m.max_abs());
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (std::sqrt(OffDiagonalNormSq(m)) <= thresh * n) break;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double apq = m(p, q);
        if (std::fabs(apq) <= thresh * 1e-3) continue;
        double app = m(p, p), aqq = m(q, q);
        double theta = 0.5 * (aqq - app) / apq;
        // Stable tangent of the rotation angle.
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;
        // Apply the rotation G(p,q) on both sides: m <- G^T m G.
        for (size_t k = 0; k < n; ++k) {
          double mkp = m(k, p), mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < n; ++k) {
          double mpk = m(p, k), mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (size_t k = 0; k < n; ++k) {
          double vkp = vectors_(k, p), vkq = vectors_(k, q);
          vectors_(k, p) = c * vkp - s * vkq;
          vectors_(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  // Extract and sort ascending, permuting eigenvector columns alongside.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = m(i, i);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return diag[x] < diag[y]; });
  Matrix sorted_vecs(n, n);
  for (size_t i = 0; i < n; ++i) {
    values_[i] = diag[order[i]];
    sorted_vecs.SetCol(i, vectors_.Col(order[i]));
  }
  vectors_ = sorted_vecs;
}

}  // namespace dhmm::linalg

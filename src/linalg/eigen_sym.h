// Symmetric eigendecomposition via the cyclic Jacobi method.
#ifndef DHMM_LINALG_EIGEN_SYM_H_
#define DHMM_LINALG_EIGEN_SYM_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace dhmm::linalg {

/// \brief Eigendecomposition A = V diag(w) V^T of a symmetric matrix.
///
/// Uses cyclic Jacobi rotations — O(n^3) per sweep, a handful of sweeps for
/// the small kernel matrices this library manipulates. Needed for the k-DPP
/// normalizer (elementary symmetric polynomials of eigenvalues, Eq. 1) and
/// for exact DPP sampling.
class SymmetricEigen {
 public:
  /// Decomposes a symmetric matrix; DHMM_CHECK-fails on non-square input.
  /// Symmetry is assumed (only the upper triangle feeds the rotations).
  explicit SymmetricEigen(const Matrix& a, int max_sweeps = 64,
                          double tol = 1e-13);

  /// Eigenvalues in ascending order.
  const Vector& eigenvalues() const { return values_; }

  /// Column i of this matrix is the eigenvector for eigenvalues()[i].
  const Matrix& eigenvectors() const { return vectors_; }

 private:
  Vector values_;
  Matrix vectors_;
};

}  // namespace dhmm::linalg

#endif  // DHMM_LINALG_EIGEN_SYM_H_

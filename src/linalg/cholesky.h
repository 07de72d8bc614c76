// Cholesky factorization for symmetric positive-definite matrices.
#ifndef DHMM_LINALG_CHOLESKY_H_
#define DHMM_LINALG_CHOLESKY_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace dhmm::linalg {

/// \brief Cholesky factorization A = L L^T for SPD matrices.
///
/// DPP kernel matrices are PSD by construction; when strictly PD this gives a
/// cheaper and more stable log-determinant than LU (half the flops, no pivot
/// search), and doubles as a PD test. The M-step hot path factorizes a
/// kernel per line-search probe, so the factor storage is reusable: a
/// default-constructed instance plus FactorizeInto is allocation-free once
/// the grow-only buffer reaches its high-water size.
class CholeskyDecomposition {
 public:
  /// Empty decomposition; call FactorizeInto before any query.
  CholeskyDecomposition() = default;

  /// Attempts the factorization; check ok() before using other accessors.
  explicit CholeskyDecomposition(const Matrix& a) { FactorizeInto(a); }

  /// \brief Refactorizes in place, reusing the factor buffer. Returns ok().
  bool FactorizeInto(const Matrix& a);

  /// True when the input was symmetric positive definite (within roundoff).
  bool ok() const { return ok_; }

  /// log det A = 2 * sum_i log L_ii. Precondition: ok().
  double LogDeterminant() const;

  /// Solves A X = B into caller-owned x (Resize()d; b and x must be
  /// distinct), all right-hand sides advancing together along contiguous
  /// rows. Precondition: ok().
  void SolveInto(const Matrix& b, Matrix* x) const;

 private:
  Matrix l_;
  Vector inv_diag_;  // reciprocal pivots: one divide per row, reused by solves
  bool ok_ = false;
};

}  // namespace dhmm::linalg

#endif  // DHMM_LINALG_CHOLESKY_H_

// Dense row-major double matrix.
#ifndef DHMM_LINALG_MATRIX_H_
#define DHMM_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>

#include "linalg/aligned.h"
#include "linalg/vector.h"
#include "util/check.h"

namespace dhmm::linalg {

/// \brief Dense row-major matrix of doubles.
///
/// This is the workhorse container for transition matrices, kernel matrices,
/// emission parameter tables and sufficient statistics. It favours clarity
/// over BLAS-level performance: the matrices in this system are k x k with
/// k <= a few dozen states, or k x V with V in the tens of thousands but only
/// touched with O(kV) passes. Storage is 64-byte aligned (linalg/aligned.h)
/// and the arithmetic hot paths route through the deterministic micro-kernels
/// in linalg/kernels.h.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Zero matrix of the given shape.
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols),
                                     data_(rows * cols, 0.0) {}
  /// Constant-filled matrix.
  Matrix(size_t rows, size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}
  /// From nested initializer lists; all rows must have equal arity.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double operator()(size_t r, size_t c) const {
    DHMM_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) {
    DHMM_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  /// Pointer to the start of row r.
  const double* row_data(size_t r) const {
    DHMM_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  double* row_data(size_t r) {
    DHMM_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row r out as a Vector.
  Vector Row(size_t r) const;
  /// Copies column c out as a Vector.
  Vector Col(size_t c) const;
  /// Overwrites row r; v.size() must equal cols().
  void SetRow(size_t r, const Vector& v);
  /// Overwrites column c; v.size() must equal rows().
  void SetCol(size_t c, const Vector& v);

  /// Fills every entry with the given value.
  void Fill(double value);

  /// Reshapes to rows x cols. Entry values are unspecified afterwards (this
  /// is a buffer-reuse primitive, not a view change): callers must overwrite
  /// or Fill() before reading. The underlying storage is reused when capacity
  /// allows, so workspaces cycling through different sequence lengths stop
  /// allocating once the high-water mark is reached.
  void Resize(size_t rows, size_t cols);

  // --- arithmetic ----------------------------------------------------------

  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double s);
  /// In-place `*this += other * scale` without a temporary — the hot-loop
  /// form of a gradient step (trial = iterate + grad * step).
  Matrix& AddScaled(const Matrix& other, double scale);
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product; inner dimensions must agree.
  Matrix MatMul(const Matrix& other) const;
  /// Transpose copy.
  Matrix Transposed() const;

  // --- reductions / predicates ---------------------------------------------

  /// Sum of all entries.
  double sum() const;
  /// Maximum absolute entry (infinity norm of vec(M)).
  double max_abs() const;
  /// Squared Frobenius distance to another same-shape matrix.
  double squared_distance(const Matrix& other) const;

  /// True when every row is a probability distribution within tolerance.
  bool IsRowStochastic(double tol = 1e-9) const;

  /// Normalizes every row to sum to one; rows with non-positive mass are set
  /// uniform (this matches EM practice for states with zero expected counts).
  void NormalizeRows();

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  AlignedBuffer data_;
};

}  // namespace dhmm::linalg

#endif  // DHMM_LINALG_MATRIX_H_

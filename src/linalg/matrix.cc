#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"

namespace dhmm::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    DHMM_CHECK_MSG(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(size_t r) const {
  DHMM_CHECK(r < rows_);
  Vector v(cols_);
  for (size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::Col(size_t c) const {
  DHMM_CHECK(c < cols_);
  Vector v(rows_);
  for (size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  DHMM_CHECK(r < rows_ && v.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::SetCol(size_t c, const Vector& v) {
  DHMM_CHECK(c < cols_ && v.size() == rows_);
  for (size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DHMM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::AddScaled(const Matrix& other, double scale) {
  DHMM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i] * scale;
  }
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  DHMM_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  // Arbitrary-shape products outside the per-k inference hot path go
  // through the active variable-length table (never the fixed-k ones).
  const kernels::KernelTable& kt = kernels::Active();
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(i, k);
      if (a == 0.0) continue;
      kt.axpy_row(a, other.row_data(k), other.cols_, out.row_data(i));
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  kernels::TransposeInto(data_.data(), rows_, cols_, out.data());
  return out;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::squared_distance(const Matrix& other) const {
  DHMM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double s = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    double d = data_[i] - other.data_[i];
    s += d * d;
  }
  return s;
}

bool Matrix::IsRowStochastic(double tol) const {
  for (size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (size_t c = 0; c < cols_; ++c) {
      double v = (*this)(r, c);
      if (v < -tol) return false;
      s += v;
    }
    if (std::fabs(s - 1.0) > tol) return false;
  }
  return true;
}

void Matrix::NormalizeRows() {
  for (size_t r = 0; r < rows_; ++r) {
    double* row = row_data(r);
    double s = 0.0;
    for (size_t c = 0; c < cols_; ++c) s += row[c];
    if (s > 0.0) {
      for (size_t c = 0; c < cols_; ++c) row[c] /= s;
    } else {
      for (size_t c = 0; c < cols_; ++c) row[c] = 1.0 / cols_;
    }
  }
}

}  // namespace dhmm::linalg

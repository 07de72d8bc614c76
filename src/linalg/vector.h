// Dense double-precision vector.
#ifndef DHMM_LINALG_VECTOR_H_
#define DHMM_LINALG_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/aligned.h"
#include "util/check.h"

namespace dhmm::linalg {

/// \brief Dense vector of doubles with bounds-checked (debug) access.
///
/// Storage is 64-byte aligned (linalg/aligned.h) so the kernel layer's
/// contiguous sweeps start on a cache-line boundary.
class Vector {
 public:
  Vector() = default;
  /// Zero-initialized vector of length n.
  explicit Vector(size_t n) : data_(n, 0.0) {}
  /// Constant-filled vector of length n.
  Vector(size_t n, double value) : data_(n, value) {}
  /// From an initializer list, e.g. Vector{1.0, 2.0}.
  Vector(std::initializer_list<double> init) : data_(init) {}
  /// From a std::vector (copies into aligned storage).
  explicit Vector(const std::vector<double>& values)
      : data_(values.begin(), values.end()) {}

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Changes the length to n. Existing entries are preserved up to min(size,
  /// n); entries beyond the old length are zero. The underlying storage is
  /// reused when capacity allows, so shrink/grow cycles (e.g. inference
  /// workspaces visiting sequences of varying length) do not reallocate once
  /// the high-water mark is reached.
  void Resize(size_t n) { data_.resize(n, 0.0); }

  double operator[](size_t i) const {
    DHMM_DCHECK(i < data_.size());
    return data_[i];
  }
  double& operator[](size_t i) {
    DHMM_DCHECK(i < data_.size());
    return data_[i];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// Underlying aligned storage (for interop with std algorithms).
  const AlignedBuffer& values() const { return data_; }
  AlignedBuffer& values() { return data_; }

  // --- elementwise / reduction operations ---------------------------------

  /// Sum of entries.
  double sum() const;
  /// Euclidean (L2) norm.
  double norm() const;
  /// Dot product; sizes must match.
  double dot(const Vector& other) const;

  /// Normalizes entries to sum to 1; precondition: sum() > 0.
  void NormalizeToSimplex();

 private:
  AlignedBuffer data_;
};

}  // namespace dhmm::linalg

#endif  // DHMM_LINALG_VECTOR_H_

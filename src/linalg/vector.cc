#include "linalg/vector.h"

#include <cmath>

#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"

namespace dhmm::linalg {

double Vector::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Vector::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Vector::dot(const Vector& other) const {
  DHMM_CHECK(size() == other.size());
  return kernels::Active().dot(data_.data(), other.data_.data(), size());
}

void Vector::NormalizeToSimplex() {
  double s = sum();
  DHMM_CHECK_MSG(s > 0.0, "cannot normalize a non-positive-mass vector");
  for (double& v : data_) v /= s;
}

}  // namespace dhmm::linalg

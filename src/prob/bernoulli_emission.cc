#include "prob/bernoulli_emission.h"

#include <algorithm>
#include <cmath>

#include "prob/logsumexp.h"
#include "util/check.h"

namespace dhmm::prob {

BernoulliEmission::BernoulliEmission(linalg::Matrix p, double p_floor)
    : p_(std::move(p)), p_floor_(p_floor) {
  DHMM_CHECK(p_floor_ > 0.0 && p_floor_ < 0.5);
  for (size_t i = 0; i < p_.rows(); ++i) {
    for (size_t d = 0; d < p_.cols(); ++d) {
      DHMM_CHECK_MSG(p_(i, d) >= 0.0 && p_(i, d) <= 1.0,
                     "Bernoulli parameters must be in [0,1]");
    }
  }
  Clamp();
  RebuildLogTerms();
}

BernoulliEmission BernoulliEmission::RandomInit(size_t k, size_t dims,
                                                Rng& rng, double p_floor) {
  linalg::Matrix p(k, dims);
  for (size_t i = 0; i < k; ++i)
    for (size_t d = 0; d < dims; ++d) p(i, d) = rng.Uniform(0.25, 0.75);
  return BernoulliEmission(std::move(p), p_floor);
}

void BernoulliEmission::Clamp() {
  for (size_t i = 0; i < p_.rows(); ++i) {
    for (size_t d = 0; d < p_.cols(); ++d) {
      p_(i, d) = std::clamp(p_(i, d), p_floor_, 1.0 - p_floor_);
    }
  }
}

void BernoulliEmission::RebuildLogTerms() {
  log_terms_.Resize(2 * p_.cols(), p_.rows());
  for (size_t d = 0; d < p_.cols(); ++d) {
    double* off = log_terms_.row_data(2 * d);
    double* on = log_terms_.row_data(2 * d + 1);
    for (size_t i = 0; i < p_.rows(); ++i) {
      on[i] = std::log(p_(i, d));
      off[i] = std::log(1.0 - p_(i, d));
    }
  }
}

// Every state sums its pixel terms from 0.0 in ascending d, as a
// per-state loop would, so the row keeps its bits. Each step is one
// contiguous k-add of the row the pixel's value indexes: no branch on the
// pixel.
void BernoulliEmission::LogProbRow(const BinaryObs& y, double* out) const {
  const size_t k = p_.rows();
  const bool valid = y.size() == p_.cols();
  std::fill(out, out + k, valid ? 0.0 : kNegInf);
  if (!valid) return;
  for (size_t d = 0; d < y.size(); ++d) {
    const double* term = log_terms_.row_data(2 * d + (y[d] != 0 ? 1 : 0));
    for (size_t i = 0; i < k; ++i) out[i] += term[i];
  }
}

BinaryObs BernoulliEmission::Sample(size_t state, Rng& rng) const {
  DHMM_DCHECK(state < p_.rows());
  BinaryObs y(p_.cols());
  for (size_t d = 0; d < y.size(); ++d) {
    y[d] = rng.Bernoulli(p_(state, d)) ? 1 : 0;
  }
  return y;
}

void BernoulliEmission::BeginAccumulate() {
  acc_on_ = linalg::Matrix(p_.rows(), p_.cols());
  acc_w_ = linalg::Vector(p_.rows());
}

void BernoulliEmission::Accumulate(const BinaryObs& y,
                                   const linalg::Vector& q) {
  DHMM_DCHECK(q.size() == p_.rows());
  DHMM_CHECK(y.size() == p_.cols());
  for (size_t i = 0; i < q.size(); ++i) {
    if (q[i] == 0.0) continue;
    acc_w_[i] += q[i];
    double* row = acc_on_.row_data(i);
    for (size_t d = 0; d < y.size(); ++d) {
      if (y[d]) row[d] += q[i];
    }
  }
}

void BernoulliEmission::FinishAccumulate() {
  DHMM_CHECK_MSG(acc_w_.size() == p_.rows(),
                 "FinishAccumulate without BeginAccumulate");
  for (size_t i = 0; i < p_.rows(); ++i) {
    if (acc_w_[i] <= 0.0) continue;  // unused state keeps old parameters
    for (size_t d = 0; d < p_.cols(); ++d) {
      p_(i, d) = acc_on_(i, d) / acc_w_[i];
    }
  }
  Clamp();
  RebuildLogTerms();
}

std::unique_ptr<EmissionModel<BinaryObs>> BernoulliEmission::Clone() const {
  return std::make_unique<BernoulliEmission>(*this);
}

}  // namespace dhmm::prob

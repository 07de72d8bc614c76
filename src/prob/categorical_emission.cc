#include "prob/categorical_emission.h"

#include <cmath>

#include "prob/logsumexp.h"
#include "util/check.h"

namespace dhmm::prob {

CategoricalEmission::CategoricalEmission(linalg::Matrix b, double pseudo_count)
    : b_(std::move(b)), pseudo_count_(pseudo_count) {
  DHMM_CHECK_MSG(b_.IsRowStochastic(1e-6), "emission rows must be stochastic");
  DHMM_CHECK(pseudo_count_ >= 0.0);
  b_.NormalizeRows();
  RebuildLogTable();
}

CategoricalEmission CategoricalEmission::RandomInit(size_t k, size_t vocab,
                                                    Rng& rng,
                                                    double concentration,
                                                    double pseudo_count) {
  return CategoricalEmission(
      rng.RandomStochasticMatrix(k, vocab, concentration), pseudo_count);
}

void CategoricalEmission::RebuildLogTable() {
  log_b_ = linalg::Matrix(b_.rows(), b_.cols());
  for (size_t i = 0; i < b_.rows(); ++i) {
    for (size_t v = 0; v < b_.cols(); ++v) {
      log_b_(i, v) = b_(i, v) > 0.0 ? std::log(b_(i, v)) : kNegInf;
    }
  }
}

double CategoricalEmission::LogProb(size_t state, const int& y) const {
  DHMM_DCHECK(state < b_.rows());
  DHMM_DCHECK(y >= 0 && static_cast<size_t>(y) < b_.cols());
  return log_b_(state, static_cast<size_t>(y));
}

int CategoricalEmission::Sample(size_t state, Rng& rng) const {
  DHMM_DCHECK(state < b_.rows());
  return static_cast<int>(rng.Categorical(b_.row_data(state), b_.cols()));
}

void CategoricalEmission::BeginAccumulate() {
  acc_ = linalg::Matrix(b_.rows(), b_.cols(), pseudo_count_);
}

void CategoricalEmission::Accumulate(const int& y, const linalg::Vector& q) {
  DHMM_DCHECK(q.size() == b_.rows());
  DHMM_DCHECK(y >= 0 && static_cast<size_t>(y) < b_.cols());
  for (size_t i = 0; i < q.size(); ++i) {
    acc_(i, static_cast<size_t>(y)) += q[i];
  }
}

void CategoricalEmission::FinishAccumulate() {
  DHMM_CHECK_MSG(acc_.rows() == b_.rows(),
                 "FinishAccumulate without BeginAccumulate");
  acc_.NormalizeRows();
  b_ = acc_;
  RebuildLogTable();
}

std::unique_ptr<EmissionModel<int>> CategoricalEmission::Clone() const {
  return std::make_unique<CategoricalEmission>(*this);
}

}  // namespace dhmm::prob

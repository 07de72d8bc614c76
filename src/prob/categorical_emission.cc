#include "prob/categorical_emission.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "prob/logsumexp.h"
#include "util/check.h"

namespace dhmm::prob {

CategoricalEmission::CategoricalEmission(linalg::Matrix b, double pseudo_count,
                                         bool normalize_rows)
    : b_(std::move(b)), pseudo_count_(pseudo_count) {
  DHMM_CHECK_MSG(b_.IsRowStochastic(1e-6), "emission rows must be stochastic");
  DHMM_CHECK(pseudo_count_ >= 0.0);
  if (normalize_rows) b_.NormalizeRows();
  RebuildTables();
}

CategoricalEmission CategoricalEmission::RandomInit(size_t k, size_t vocab,
                                                    Rng& rng,
                                                    double concentration,
                                                    double pseudo_count) {
  return CategoricalEmission(
      rng.RandomStochasticMatrix(k, vocab, concentration), pseudo_count);
}

void CategoricalEmission::RebuildTables() {
  log_bt_.Resize(b_.cols(), b_.rows());
  for (size_t v = 0; v < b_.cols(); ++v) {
    double* row = log_bt_.row_data(v);
    for (size_t i = 0; i < b_.rows(); ++i) {
      const double p = b_(i, v);
      row[i] = p > 0.0 ? std::log(p) : kNegInf;
    }
  }
  sums_.Resize(b_.rows(), Rng::CategoricalCheckpointCount(b_.cols()));
  for (size_t i = 0; i < b_.rows(); ++i) {
    Rng::BuildCategoricalCheckpoints(b_.row_data(i), b_.cols(),
                                     sums_.row_data(i));
  }
}

void CategoricalEmission::LogProbRow(const int& y, double* out) const {
  const size_t k = b_.rows();
  if (y < 0 || static_cast<size_t>(y) >= b_.cols()) {
    std::fill(out, out + k, kNegInf);
    return;
  }
  std::memcpy(out, log_bt_.row_data(static_cast<size_t>(y)),
              k * sizeof(double));
}

int CategoricalEmission::Sample(size_t state, Rng& rng) const {
  DHMM_DCHECK(state < b_.rows());
  return static_cast<int>(
      rng.Categorical(b_.row_data(state), b_.cols(), sums_.row_data(state)));
}

void CategoricalEmission::BeginAccumulate() {
  acc_ = linalg::Matrix(b_.cols(), b_.rows(), pseudo_count_);
}

void CategoricalEmission::Accumulate(const int& y, const linalg::Vector& q) {
  DHMM_DCHECK(q.size() == b_.rows());
  // Supervised fits reach here with dataset symbols and no forward pass in
  // front, so the bound is checked in every build.
  DHMM_CHECK_MSG(y >= 0 && static_cast<size_t>(y) < b_.cols(),
                 ("symbol " + std::to_string(y) + " outside the vocabulary " +
                  "of V = " + std::to_string(b_.cols()))
                     .c_str());
  double* counts = acc_.row_data(static_cast<size_t>(y));
  for (size_t i = 0; i < q.size(); ++i) counts[i] += q[i];
}

// Matrix::NormalizeRows over the transposed counts: each state's total
// sums its counts from 0.0 in ascending symbol order, so b_ keeps its bits.
// Both passes read the counts row by row.
void CategoricalEmission::FinishAccumulate() {
  const size_t k = b_.rows();
  const size_t vocab = b_.cols();
  DHMM_CHECK_MSG(acc_.rows() == vocab && acc_.cols() == k,
                 "FinishAccumulate without BeginAccumulate");
  linalg::Vector total(k);
  for (size_t v = 0; v < vocab; ++v) {
    const double* counts = acc_.row_data(v);
    for (size_t i = 0; i < k; ++i) total[i] += counts[i];
  }
  for (size_t v = 0; v < vocab; ++v) {
    const double* counts = acc_.row_data(v);
    for (size_t i = 0; i < k; ++i) {
      b_(i, v) = total[i] > 0.0 ? counts[i] / total[i] : 1.0 / vocab;
    }
  }
  RebuildTables();
}

std::unique_ptr<EmissionModel<int>> CategoricalEmission::Clone() const {
  return std::make_unique<CategoricalEmission>(*this);
}

}  // namespace dhmm::prob

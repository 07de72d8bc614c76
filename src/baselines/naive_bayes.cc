#include "baselines/naive_bayes.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace dhmm::baselines {

NaiveBayesClassifier::NaiveBayesClassifier(size_t num_classes, size_t dims,
                                           double p_floor,
                                           double pseudo_count)
    : num_classes_(num_classes), pseudo_count_(pseudo_count),
      log_priors_(num_classes,
                  -std::log(static_cast<double>(num_classes))),
      emission_(linalg::Matrix(num_classes, dims, 0.5), p_floor) {
  DHMM_CHECK(num_classes >= 2 && dims > 0);
  DHMM_CHECK(pseudo_count_ >= 0.0);
}

void NaiveBayesClassifier::Fit(const hmm::Dataset<prob::BinaryObs>& data) {
  const size_t k = num_classes_;
  const size_t d = emission_.dims();
  linalg::Vector class_counts(k, pseudo_count_);
  linalg::Matrix on_counts(k, d, pseudo_count_);
  for (const auto& seq : data) {
    DHMM_CHECK_MSG(seq.labeled(), "NaiveBayes needs labeled data");
    for (size_t t = 0; t < seq.length(); ++t) {
      int c = seq.labels[t];
      DHMM_CHECK(c >= 0 && static_cast<size_t>(c) < k);
      DHMM_CHECK(seq.obs[t].size() == d);
      class_counts[static_cast<size_t>(c)] += 1.0;
      double* row = on_counts.row_data(static_cast<size_t>(c));
      for (size_t j = 0; j < d; ++j) {
        if (seq.obs[t][j]) row[j] += 1.0;
      }
    }
  }
  linalg::Matrix p(k, d);
  for (size_t c = 0; c < k; ++c) {
    // Laplace: (on + pseudo) / (count + 2 * pseudo).
    double denom = class_counts[c] + pseudo_count_;
    for (size_t j = 0; j < d; ++j) {
      p(c, j) = on_counts(c, j) / denom;
      if (p(c, j) > 1.0) p(c, j) = 1.0;
    }
  }
  emission_ = prob::BernoulliEmission(std::move(p), emission_.p_floor());
  class_counts.NormalizeToSimplex();  // now the class priors
  for (size_t c = 0; c < k; ++c) log_priors_[c] = std::log(class_counts[c]);
}

int NaiveBayesClassifier::Predict(const prob::BinaryObs& obs) const {
  DHMM_CHECK_MSG(obs.size() == emission_.dims(),
                 "observation dimensionality mismatch");
  linalg::Vector row(num_classes_);
  emission_.LogProbRow(obs, row.data());
  double best = -std::numeric_limits<double>::infinity();
  int arg = 0;
  for (size_t c = 0; c < num_classes_; ++c) {
    double score = log_priors_[c] + row[c];
    if (score > best) {
      best = score;
      arg = static_cast<int>(c);
    }
  }
  return arg;
}

std::vector<int> NaiveBayesClassifier::PredictSequence(
    const std::vector<prob::BinaryObs>& obs) const {
  std::vector<int> out;
  out.reserve(obs.size());
  for (const auto& frame : obs) out.push_back(Predict(frame));
  return out;
}

}  // namespace dhmm::baselines

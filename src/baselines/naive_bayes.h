// Per-frame Bernoulli naive-Bayes classifier — the chain-free OCR baseline
// in the paper's Fig. 11.
#ifndef DHMM_BASELINES_NAIVE_BAYES_H_
#define DHMM_BASELINES_NAIVE_BAYES_H_

#include <vector>

#include "hmm/sequence.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "prob/bernoulli_emission.h"

namespace dhmm::baselines {

/// \brief Classifies each binary-vector frame independently:
///   argmax_c  log prior(c) + sum_d log Bernoulli(y_d; p_{c,d}).
///
/// Deliberately ignores the letter chain — its gap to the HMM quantifies the
/// value of sequential structure in Fig. 11.
class NaiveBayesClassifier {
 public:
  /// \param num_classes  label arity.
  /// \param p_floor      probability clamp, as in BernoulliEmission.
  /// \param pseudo_count Laplace smoothing for both priors and pixels.
  NaiveBayesClassifier(size_t num_classes, size_t dims, double p_floor = 1e-3,
                       double pseudo_count = 1.0);

  /// Fits priors and per-class pixel probabilities from labeled sequences.
  void Fit(const hmm::Dataset<prob::BinaryObs>& data);

  /// Classifies one frame; `obs` must have `dims` entries.
  int Predict(const prob::BinaryObs& obs) const;

  /// Classifies every frame of a sequence independently.
  std::vector<int> PredictSequence(
      const std::vector<prob::BinaryObs>& obs) const;

 private:
  size_t num_classes_;
  double pseudo_count_;
  linalg::Vector log_priors_;
  prob::BernoulliEmission emission_;
};

}  // namespace dhmm::baselines

#endif  // DHMM_BASELINES_NAIVE_BAYES_H_

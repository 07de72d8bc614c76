// "Optimized HMM" baseline (Krevat & Cuzzillo, paper reference [26]):
// a supervised HMM dressed up with the standard decoding tricks — Laplace
// smoothing and a tuned emission/transition balance exponent — providing the
// "other tricks give limited improvement" bar in Fig. 11.
#ifndef DHMM_BASELINES_OPTIMIZED_HMM_H_
#define DHMM_BASELINES_OPTIMIZED_HMM_H_

#include <vector>

#include "hmm/model.h"
#include "hmm/sequence.h"
#include "prob/bernoulli_emission.h"
#include "prob/rng.h"

namespace dhmm::baselines {

/// Options for the optimized HMM.
struct OptimizedHmmOptions {
  /// Candidate emission-weight exponents tried on a held-out slice of the
  /// training data: the decoder scores  w * log B  +  log A.
  std::vector<double> emission_weights = {0.25, 0.5, 0.75, 1.0};
  /// Candidate transition pseudo-counts.
  std::vector<double> transition_pseudo_counts = {0.1, 1.0};
};

/// \brief Supervised HMM with tuned smoothing and emission weighting.
class OptimizedHmm {
 public:
  explicit OptimizedHmm(size_t num_states, size_t dims,
                        OptimizedHmmOptions options = {});

  /// Counts parameters, then grid-searches the tricks on a validation split.
  void Fit(const hmm::Dataset<prob::BinaryObs>& data);

  /// Viterbi decoding with the tuned emission weight.
  std::vector<int> Decode(const std::vector<prob::BinaryObs>& obs) const;

  const hmm::HmmModel<prob::BinaryObs>& model() const { return model_; }

 private:
  hmm::HmmModel<prob::BinaryObs> FitCounts(
      const hmm::Dataset<prob::BinaryObs>& data, double pseudo) const;

  size_t num_states_;
  size_t dims_;
  OptimizedHmmOptions options_;
  hmm::HmmModel<prob::BinaryObs> model_;
  double emission_weight_ = 1.0;
  double pseudo_count_ = 1.0;
};

}  // namespace dhmm::baselines

#endif  // DHMM_BASELINES_OPTIMIZED_HMM_H_

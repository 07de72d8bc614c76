#include "baselines/optimized_hmm.h"

#include <memory>

#include "eval/metrics.h"
#include "hmm/inference.h"
#include "hmm/supervised.h"
#include "util/check.h"

namespace dhmm::baselines {

namespace {

constexpr double kValidationFraction = 0.15;
constexpr uint64_t kTuningSeed = 11;

}  // namespace

OptimizedHmm::OptimizedHmm(size_t num_states, size_t dims,
                           OptimizedHmmOptions options)
    : num_states_(num_states), dims_(dims), options_(std::move(options)) {
  DHMM_CHECK(num_states_ >= 2 && dims_ > 0);
  DHMM_CHECK(!options_.emission_weights.empty());
  DHMM_CHECK(!options_.transition_pseudo_counts.empty());
}

hmm::HmmModel<prob::BinaryObs> OptimizedHmm::FitCounts(
    const hmm::Dataset<prob::BinaryObs>& data, double pseudo) const {
  hmm::SupervisedOptions sup;
  sup.initial_pseudo_count = pseudo;
  sup.transition_pseudo_count = pseudo;
  std::unique_ptr<prob::EmissionModel<prob::BinaryObs>> emission =
      std::make_unique<prob::BernoulliEmission>(
          linalg::Matrix(num_states_, dims_, 0.5));
  return hmm::FitSupervised(data, num_states_, std::move(emission), sup);
}

void OptimizedHmm::Fit(const hmm::Dataset<prob::BinaryObs>& data) {
  DHMM_CHECK(data.size() >= 10);
  // Deterministic validation split: a fixed-seed draw of
  // kValidationFraction of the training sequences is held out for the grid
  // search.
  prob::Rng rng(kTuningSeed);
  std::vector<size_t> perm = rng.Permutation(data.size());
  size_t n_val = std::max<size_t>(
      1, static_cast<size_t>(kValidationFraction *
                             static_cast<double>(data.size())));
  hmm::Dataset<prob::BinaryObs> train, val;
  for (size_t i = 0; i < perm.size(); ++i) {
    (i < n_val ? val : train).push_back(data[perm[i]]);
  }

  double best_acc = -1.0;
  // One workspace for the whole grid search: the emission table and Viterbi
  // tables are recomputed per (pseudo, w, sequence) but never reallocated,
  // and the workspace's TransitionCache rebuilds log(A) once per candidate
  // (A is fixed across the w sweep and the validation set).
  hmm::InferenceWorkspace ws;
  hmm::ViterbiResult decoded;
  for (double pseudo : options_.transition_pseudo_counts) {
    hmm::HmmModel<prob::BinaryObs> candidate = FitCounts(train, pseudo);
    for (double w : options_.emission_weights) {
      // Decode validation with weight w.
      eval::LabelSequences pred, gold;
      for (const auto& seq : val) {
        candidate.emission->LogProbTableInto(seq.obs, &ws.log_b);
        ws.log_b *= w;
        const Status st =
            hmm::TryViterbi(candidate.pi, candidate.a, ws.log_b, &ws, &decoded);
        DHMM_CHECK_MSG(st.ok(), st.message().c_str());
        pred.push_back(decoded.path);
        gold.push_back(seq.labels);
      }
      double acc = eval::FrameAccuracy(pred, gold);
      if (acc > best_acc) {
        best_acc = acc;
        emission_weight_ = w;
        pseudo_count_ = pseudo;
      }
    }
  }
  // Refit on the full training data with the winning pseudo-count.
  model_ = FitCounts(data, pseudo_count_);
}

std::vector<int> OptimizedHmm::Decode(
    const std::vector<prob::BinaryObs>& obs) const {
  hmm::InferenceWorkspace ws;
  model_.emission->LogProbTableInto(obs, &ws.log_b);
  ws.log_b *= emission_weight_;
  hmm::ViterbiResult decoded;
  const Status st =
      hmm::TryViterbi(model_.pi, model_.a, ws.log_b, &ws, &decoded);
  DHMM_CHECK_MSG(st.ok(), st.message().c_str());
  return std::move(decoded.path);
}

}  // namespace dhmm::baselines

// Baum-Welch EM with a pluggable transition M-step: the one EM loop.
//
// Maximum-likelihood HMM training and the paper's MAP training (src/core)
// differ only in the transition M-step (paper §3.5.1), injected here as a
// callback that also returns the log prior of the A it wrote. Each
// iteration runs the M-step and then the next E-step, whose scaled forward
// pass yields the data log-likelihood as a by-product: that value plus the
// log prior is the objective of the parameters just produced. So no
// iteration pays for a separate likelihood pass; only a fit that reaches
// max_iters ends with one forward-only pass. The one M-step (MStep) is also
// what core::IncrementalEmTrainer runs.
//
// The E-step runs on the batched inference engine (hmm/engine.h): sequences
// fan out across a worker pool sized by EmOptions::num_threads, per-thread
// workspaces keep the hot path allocation-free, and the deterministic
// reduction order makes the fit bitwise-identical for every thread count.
#ifndef DHMM_HMM_TRAINER_H_
#define DHMM_HMM_TRAINER_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "hmm/engine.h"
#include "hmm/model.h"
#include "hmm/sequence.h"
#include "util/check.h"

namespace dhmm::hmm {

/// In-place transition M-step: `a` holds the previous A on entry and must
/// hold the updated A on exit. Returns the log prior of the A it wrote,
/// which the loop adds to the data log-likelihood to form the objective (0
/// for an unpenalized update). The in-place form lets penalized updates
/// (src/core) write through persistent workspaces without a per-iteration
/// return-value matrix. The default (nullptr) is the maximum-likelihood
/// update: normalize rows of the expected counts.
using TransitionMStep = std::function<double(
    const linalg::Matrix& expected_counts, linalg::Matrix* a)>;

/// Options controlling the EM loop.
struct EmOptions {
  int max_iters = 100;      ///< maximum EM iterations (M-steps)
  double tol = 1e-5;        ///< see MapObjectiveConverged
  bool update_pi = true;
  bool update_transitions = true;
  bool update_emission = true;
  TransitionMStep transition_m_step = nullptr;  ///< ML row normalization
  /// E-step worker threads (see BatchOptions::num_threads). Any value
  /// produces bitwise-identical fits; this is purely a throughput knob.
  int num_threads = 1;
  /// Sequence length at which the E-step switches to the checkpointed
  /// forward-backward (see BatchOptions::checkpoint_threshold_frames).
  /// Bitwise-identical fits either way; 0 disables.
  size_t checkpoint_threshold_frames = kDefaultCheckpointThresholdFrames;
};

/// Outcome of an EM fit.
struct EmResult {
  /// Data log-likelihood of the parameters each M-step started from.
  std::vector<double> loglik_history;
  /// Objective (data log-likelihood plus the transition M-step's log
  /// prior) of the parameters each M-step produced.
  std::vector<double> objective_history;
  int iterations = 0;  ///< M-steps applied
  bool converged = false;
  double final_loglik = 0.0;  ///< loglik of the returned parameters
};

/// \brief The stopping rule: relative |change| of the objective below tol.
///
/// EM's gain is non-negative only up to roundoff, and the MAP M-step's inner
/// ascent is inexact, so at the fixed point the objective can land a hair
/// *below* the previous value on every remaining iteration. A rule that
/// also required gain >= 0 never fires on such a wobble; taking |gain| lets
/// it register as convergence. Exposed for direct testing.
inline bool MapObjectiveConverged(double prev, double current, double tol) {
  double denom = std::max(1.0, std::fabs(prev));
  return std::fabs(current - prev) / denom < tol;
}

/// \brief The one M-step, from one round of E-step statistics: pi, then A
/// (options.transition_m_step, or row normalization), then the emission
/// FinishAccumulate. A parameter the round holds no evidence for keeps its
/// value: pi when no sequence started, A when every transition count is
/// zero (a round of single-frame sequences). Normalizes `stats` in place.
/// Returns the log prior of the A it wrote (0 when it kept A).
template <typename Obs>
double MStep(const EmOptions& options, EStepStats* stats,
             HmmModel<Obs>* model) {
  if (options.update_pi && stats->sequences > 0) {
    stats->pi_acc.NormalizeToSimplex();
    model->pi = stats->pi_acc;
  }
  double log_prior = 0.0;
  if (options.update_transitions && stats->trans_acc.sum() > 0.0) {
    if (options.transition_m_step) {
      log_prior = options.transition_m_step(stats->trans_acc, &model->a);
    } else {
      stats->trans_acc.NormalizeRows();
      model->a = stats->trans_acc;
    }
  }
  if (options.update_emission) model->emission->FinishAccumulate();
  return log_prior;
}

/// \brief Fits `model` to `data` by EM on a caller-provided engine.
///
/// The E-step computes exact posteriors with scaled forward-backward; the
/// M-step is MStep. The objective of each update comes from the E-step that
/// follows it, and the fit stops before the next M-step once the last two
/// objectives pass MapObjectiveConverged. It then returns the parameters
/// that E-step measured: the emission accumulators it opened are never
/// finished. Callers running many fits pass a persistent engine so
/// workspaces survive across calls.
template <typename Obs>
EmResult FitEm(HmmModel<Obs>* model, const Dataset<Obs>& data,
               const EmOptions& options, BatchEmEngine<Obs>* engine) {
  DHMM_CHECK(model != nullptr && engine != nullptr);
  model->Validate();
  DHMM_CHECK_MSG(!data.empty(), "cannot fit to an empty dataset");
  prob::EmissionModel<Obs>* emission_acc =
      options.update_emission ? model->emission.get() : nullptr;

  EmResult result;
  std::vector<double>& objective = result.objective_history;
  EStepStats stats = engine->EStep(*model, data, emission_acc);
  result.final_loglik = stats.log_likelihood;
  while (result.iterations < options.max_iters) {
    result.loglik_history.push_back(stats.log_likelihood);
    const double log_prior = MStep(options, &stats, model);
    ++result.iterations;
    if (result.iterations < options.max_iters) {
      stats = engine->EStep(*model, data, emission_acc);
      result.final_loglik = stats.log_likelihood;
    } else {
      result.final_loglik = engine->LogLikelihood(*model, data);
    }
    objective.push_back(result.final_loglik + log_prior);
    const size_t n = objective.size();
    if (n >= 2 &&
        MapObjectiveConverged(objective[n - 2], objective[n - 1],
                              options.tol)) {
      result.converged = true;
      break;
    }
  }
  return result;
}

/// \brief Fits with a throwaway engine sized by options.num_threads.
template <typename Obs>
EmResult FitEm(HmmModel<Obs>* model, const Dataset<Obs>& data,
               const EmOptions& options = {}) {
  BatchEmEngine<Obs> engine(
      BatchOptions{options.num_threads, options.checkpoint_threshold_frames});
  return FitEm(model, data, options, &engine);
}

/// \brief Total data log-likelihood under a model (one-thread engine).
template <typename Obs>
double DatasetLogLikelihood(const HmmModel<Obs>& model,
                            const Dataset<Obs>& data) {
  return BatchEmEngine<Obs>().LogLikelihood(model, data);
}

/// \brief Viterbi-decodes every sequence in a dataset (one-thread engine).
template <typename Obs>
std::vector<std::vector<int>> DecodeDataset(const HmmModel<Obs>& model,
                                            const Dataset<Obs>& data) {
  return BatchEmEngine<Obs>().Decode(model, data);
}

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_TRAINER_H_

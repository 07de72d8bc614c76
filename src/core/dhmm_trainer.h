// Unsupervised MAP-EM training of the diversified HMM (paper §3.5.1).
//
// The E-step is the ordinary forward-backward pass (the prior is independent
// of the hidden states); the M-step for the transition matrix maximizes the
// expected complete-data log-likelihood plus alpha * log det K~_A via
// projected gradient ascent (Algorithm 1). pi and B keep their closed-form
// updates. The fit is one hmm::FitEm run with that transition M-step
// (DiversifiedMStep) injected.
#ifndef DHMM_CORE_DHMM_TRAINER_H_
#define DHMM_CORE_DHMM_TRAINER_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/transition_update.h"
#include "dpp/logdet.h"
#include "hmm/trainer.h"
#include "util/check.h"

namespace dhmm::core {

/// Options for diversified MAP-EM.
struct DiversifiedEmOptions {
  /// Diversity weight (paper's alpha). 0 reduces exactly to Baum-Welch.
  double alpha = 1.0;
  /// Product-kernel exponent (paper fixes 0.5).
  double rho = 0.5;
  /// Outer EM iterations and MAP-objective convergence tolerance.
  int max_iters = 100;
  double tol = 1e-5;
  /// Inner Algorithm-1 controls for the transition update.
  optim::ProjectedGradientOptions ascent;
  /// Floor applied to transition rows after projection.
  double row_floor = 1e-10;
  bool update_pi = true;
  bool update_emission = true;
  /// E-step worker threads (see hmm::BatchOptions::num_threads). Any value
  /// produces bitwise-identical fits; this is purely a throughput knob.
  int num_threads = 1;
  /// Sequence length at which the E-step switches to the checkpointed
  /// forward-backward (see hmm::BatchOptions). 0 disables.
  size_t checkpoint_threshold_frames = hmm::kDefaultCheckpointThresholdFrames;
};

/// Fit diagnostics for the diversified trainer.
struct DiversifiedFitResult {
  /// MAP objective L(Y; lambda) + alpha log det K~_A after each EM iteration.
  std::vector<double> map_objective_history;
  /// Data log-likelihood after each EM iteration (without the prior).
  std::vector<double> loglik_history;
  int iterations = 0;
  bool converged = false;
  double final_log_det = 0.0;
  double final_map_objective = 0.0;
};

/// The stopping rule of the one EM loop (see hmm::MapObjectiveConverged).
using hmm::MapObjectiveConverged;

/// \brief The paper's transition M-step (Algorithm 1) over a persistent
/// workspace: A is updated by projected gradient ascent on
///   sum_ij xi_ij log A_ij + alpha log det K~_A   (Eq. 13),
/// and the step returns its log prior alpha log det K~_A at the new A —
/// exactly 0 at alpha = 0, where a singular kernel (log det = -inf) would
/// otherwise make it NaN. Pass it to hmm::EmOptions::transition_m_step as
/// std::ref(step), so the callback holds no copy and allocates nothing.
class DiversifiedMStep {
 public:
  /// `options` is any options struct with the fields alpha, rho, ascent and
  /// row_floor (DiversifiedEmOptions, IncrementalEmOptions). `ws` must
  /// outlive the step; after its first call at a given k, every update
  /// runs allocation-free.
  template <typename Options>
  DiversifiedMStep(const Options& options, TransitionUpdateWorkspace* ws)
      : ws_(ws) {
    update_.alpha = options.alpha;
    update_.rho = options.rho;
    update_.ascent = options.ascent;
    update_.row_floor = options.row_floor;
  }
  DiversifiedMStep(const DiversifiedMStep&) = delete;
  DiversifiedMStep& operator=(const DiversifiedMStep&) = delete;

  double operator()(const linalg::Matrix& counts, linalg::Matrix* a) {
    UpdateTransitions(*a, counts, update_, ws_, &result_);
    std::swap(*a, result_.a);
    return update_.alpha == 0.0 ? 0.0 : update_.alpha * result_.log_det;
  }

 private:
  TransitionUpdateOptions update_;
  TransitionUpdateWorkspace* ws_;
  TransitionUpdateResult result_;
};

/// \brief Fits a diversified HMM by MAP-EM: one hmm::FitEm with the
/// Algorithm-1 transition M-step.
///
/// Each iteration runs one M-step and one exact E-step over the dataset;
/// the recorded objective is the true marginal MAP objective of Eq. 7 for
/// the parameters the M-step produced — the next E-step's log-likelihood
/// plus the M-step's log prior — so monotonicity is observable (§3.5.3).
///
/// \param m_step_ws optional persistent M-step workspace (one per worker
///        thread when fits fan out across a core::BatchMStepDriver); nullptr
///        uses a fit-local workspace.
template <typename Obs>
DiversifiedFitResult FitDiversifiedHmm(
    hmm::HmmModel<Obs>* model, const hmm::Dataset<Obs>& data,
    const DiversifiedEmOptions& options,
    TransitionUpdateWorkspace* m_step_ws = nullptr) {
  DHMM_CHECK(model != nullptr);
  DHMM_CHECK(options.alpha >= 0.0);
  DHMM_CHECK(options.max_iters > 0);

  TransitionUpdateWorkspace local_ws;
  TransitionUpdateWorkspace* ws = m_step_ws != nullptr ? m_step_ws : &local_ws;
  DiversifiedMStep m_step(options, ws);
  hmm::EmOptions em;
  em.max_iters = options.max_iters;
  em.tol = options.tol;
  em.update_pi = options.update_pi;
  em.update_emission = options.update_emission;
  em.transition_m_step = std::ref(m_step);
  em.num_threads = options.num_threads;
  em.checkpoint_threshold_frames = options.checkpoint_threshold_frames;
  const hmm::EmResult fit = hmm::FitEm(model, data, em);

  DiversifiedFitResult result;
  result.map_objective_history = fit.objective_history;
  // ll(theta_1 .. theta_n): the log-likelihoods the M-steps after the
  // first started from, then the returned parameters'.
  result.loglik_history.assign(fit.loglik_history.begin() + 1,
                               fit.loglik_history.end());
  result.loglik_history.push_back(fit.final_loglik);
  result.iterations = fit.iterations;
  result.converged = fit.converged;
  result.final_log_det =
      dpp::LogDetNormalizedKernel(model->a, options.rho, &ws->kernel);
  result.final_map_objective = fit.objective_history.back();
  return result;
}

}  // namespace dhmm::core

#endif  // DHMM_CORE_DHMM_TRAINER_H_

// Selecting the number of hidden states — the paper's stated future work
// ("a non-parametric extension to dHMM, which simultaneously learns the
// number of hidden states"). This module provides the standard penalized-
// likelihood route: fit candidates k in a range and score by BIC/AIC, with
// the dHMM diversity prior optionally active during each fit (diverse rows
// make redundant states visible as unused, sharpening the selection).
#ifndef DHMM_CORE_STATE_SELECTION_H_
#define DHMM_CORE_STATE_SELECTION_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/batch_mstep.h"
#include "core/dhmm_trainer.h"
#include "hmm/sequence.h"

namespace dhmm::core {

/// Model-complexity criterion.
enum class SelectionCriterion {
  kBic,  ///< -2 loglik + params * log(#frames)
  kAic,  ///< -2 loglik + 2 * params
};

/// Options for state-count selection.
struct StateSelectionOptions {
  size_t min_states = 2;
  size_t max_states = 8;
  /// Diversity weight used while fitting each candidate (0 = plain EM).
  double alpha = 0.0;
  int em_iters = 40;
  /// Independent restarts per candidate; best final objective wins.
  int restarts = 2;
  SelectionCriterion criterion = SelectionCriterion::kBic;
  uint64_t seed = 1;
  /// Worker threads for the (k, restart) candidate sweep (see
  /// core::BatchMStepOptions). Every candidate fit is seeded from its own
  /// (k, restart) pair and reduced in ascending unit order, so any value
  /// produces bitwise-identical results; this is purely a throughput knob.
  int num_threads = 1;
};

/// Score sheet for one candidate state count.
struct StateCandidate {
  size_t k = 0;
  double log_likelihood = 0.0;
  double num_parameters = 0.0;
  double score = 0.0;  ///< criterion value; lower is better
};

/// Result of a selection sweep.
struct StateSelectionResult {
  size_t best_k = 0;
  std::vector<StateCandidate> candidates;
};

/// Builds a fresh randomly-initialized model with `k` states for the sweep.
/// Supplied by the caller because the emission family is task-specific.
/// Candidate fits fan out across a worker pool, so the factory must be safe
/// to invoke concurrently (any randomness must come from the passed rng).
template <typename Obs>
using ModelFactory =
    std::function<hmm::HmmModel<Obs>(size_t k, prob::Rng& rng)>;

/// Number of free parameters of a k-state model whose emission has
/// `emission_params_per_state` free parameters per state:
///   (k-1) initial + k(k-1) transition + k * per-state emission.
double FreeParameterCount(size_t k, double emission_params_per_state);

/// \brief Sweeps k over [min_states, max_states], fitting each candidate
/// (with restarts) and scoring by the chosen criterion.
///
/// The (k, restart) fits are independent work units fanned across a
/// core::BatchMStepDriver: each unit seeds its own rng from its (k, restart)
/// pair, runs a single-threaded fit with the claiming worker's persistent
/// M-step workspace, and drops its final log-likelihood into a per-unit
/// slot. The max-over-restarts and score comparison then run sequentially
/// in ascending k and restart order, so the sweep is bitwise identical for
/// every options.num_threads.
template <typename Obs>
StateSelectionResult SelectStateCount(
    const hmm::Dataset<Obs>& data, const ModelFactory<Obs>& factory,
    double emission_params_per_state, const StateSelectionOptions& options) {
  DHMM_CHECK(options.min_states >= 2 &&
             options.min_states <= options.max_states);
  DHMM_CHECK(options.restarts > 0);
  const double n_frames = static_cast<double>(hmm::TotalFrames(data));
  const size_t num_k = options.max_states - options.min_states + 1;
  const size_t restarts = static_cast<size_t>(options.restarts);

  std::vector<double> unit_loglik(num_k * restarts);
  BatchMStepDriver driver(BatchMStepOptions{options.num_threads});
  driver.Run(unit_loglik.size(), [&](TransitionUpdateWorkspace& ws,
                                     size_t unit) {
    const size_t k = options.min_states + unit / restarts;
    const size_t r = unit % restarts;
    prob::Rng rng(options.seed + 1000 * k + static_cast<uint64_t>(r));
    hmm::HmmModel<Obs> model = factory(k, rng);
    if (options.alpha == 0.0) {
      hmm::EmOptions em;
      em.max_iters = options.em_iters;
      unit_loglik[unit] = hmm::FitEm(&model, data, em).final_loglik;
    } else {
      DiversifiedEmOptions opts;
      opts.alpha = options.alpha;
      opts.max_iters = options.em_iters;
      unit_loglik[unit] =
          FitDiversifiedHmm(&model, data, opts, &ws).loglik_history.back();
    }
  });

  StateSelectionResult result;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t ki = 0; ki < num_k; ++ki) {
    const size_t k = options.min_states + ki;
    double best_ll = -std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < restarts; ++r) {
      best_ll = std::max(best_ll, unit_loglik[ki * restarts + r]);
    }
    StateCandidate cand;
    cand.k = k;
    cand.log_likelihood = best_ll;
    cand.num_parameters = FreeParameterCount(k, emission_params_per_state);
    double penalty = options.criterion == SelectionCriterion::kBic
                         ? cand.num_parameters * std::log(n_frames)
                         : 2.0 * cand.num_parameters;
    cand.score = -2.0 * best_ll + penalty;
    if (cand.score < best_score) {
      best_score = cand.score;
      result.best_k = k;
    }
    result.candidates.push_back(cand);
  }
  return result;
}

}  // namespace dhmm::core

#endif  // DHMM_CORE_STATE_SELECTION_H_

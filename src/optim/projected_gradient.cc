#include "optim/projected_gradient.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace dhmm::optim {

void ProjectedGradientAscent(const linalg::Matrix& init,
                             const MatrixObjective& objective,
                             const MatrixValueGradient& value_and_grad,
                             const MatrixProjection& project,
                             const ProjectedGradientOptions& options,
                             ProjectedGradientWorkspace* ws,
                             ProjectedGradientResult* result) {
  DHMM_CHECK(options.max_iters > 0);
  DHMM_CHECK(ws != nullptr && result != nullptr);

  result->argmax = init;
  result->iterations = 0;
  result->converged = false;
  double value = -std::numeric_limits<double>::infinity();
  bool has_grad = value_and_grad(result->argmax, &value, &ws->grad);
  DHMM_CHECK_MSG(std::isfinite(value),
                 "projected gradient needs a feasible finite starting point");
  result->objective = value;

  double step = kInitialStep;
  int small_gain_streak = 0;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    if (!has_grad) break;

    // Backtracking line search on the projected step. Once an improving
    // candidate is found, probe a few more step sizes and keep the best —
    // the first improving step after a long shrink is often a microscopic
    // gain just inside the feasible region, while a nearby step does far
    // better.
    bool accepted = false;
    double cand_obj = 0.0;
    double search_start = step;
    double accepted_step = step;
    int extra_probes = 3;
    for (int bt = 0; bt < kMaxBacktracks && step >= kMinStep; ++bt) {
      ws->trial = result->argmax;
      ws->trial.AddScaled(ws->grad, step);
      project(&ws->trial);
      double trial_obj = objective(ws->trial);
      if (std::isfinite(trial_obj) && trial_obj > result->objective &&
          (!accepted || trial_obj > cand_obj)) {
        accepted = true;
        std::swap(ws->candidate, ws->trial);
        cand_obj = trial_obj;
        accepted_step = step;
      }
      if (accepted && --extra_probes < 0) break;
      step *= kBacktrackFactor;
    }
    if (!accepted) {
      // A grown step can exceed what the backtrack budget reaches back down
      // from; retry once from the initial step before concluding that this
      // is a local maximum.
      if (search_start > kInitialStep) {
        step = kInitialStep;
        continue;
      }
      result->converged = true;  // no improving step exists: local maximum
      break;
    }
    step = accepted_step;

    double gain = cand_obj - result->objective;
    std::swap(result->argmax, ws->candidate);
    result->objective = cand_obj;
    ++result->iterations;
    // Adaptive step recovery, capped so the next backtracking search can
    // always reach small steps within its budget.
    step = std::min(step * kGrowFactor, kInitialStep * 1e8);

    // A single small gain can be an artifact of a line search that just
    // shrank the step; reset the step and require a streak of small gains at
    // full step size before declaring convergence.
    if (gain < options.tol) {
      step = std::max(step, kInitialStep);
      if (++small_gain_streak >= 3) {
        result->converged = true;
        break;
      }
    } else {
      small_gain_streak = 0;
    }
    // Fused re-evaluation at the new iterate; the value matches cand_obj (it
    // is recomputed by the same code path), so only the gradient is kept.
    has_grad = value_and_grad(result->argmax, &value, &ws->grad);
  }
}

}  // namespace dhmm::optim

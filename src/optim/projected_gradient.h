// Projected gradient ascent with adaptive (backtracking) step size — the
// optimization engine behind the paper's Algorithm 1.
#ifndef DHMM_OPTIM_PROJECTED_GRADIENT_H_
#define DHMM_OPTIM_PROJECTED_GRADIENT_H_

#include <functional>

#include "linalg/matrix.h"

namespace dhmm::optim {

/// Objective value at a candidate point; may be -inf for infeasible points
/// (e.g. a singular DPP kernel), which the line search treats as a rejected
/// step.
using MatrixObjective = std::function<double(const linalg::Matrix&)>;

/// In-place feasibility projection.
using MatrixProjection = std::function<void(linalg::Matrix*)>;

/// Fused objective-and-gradient oracle: writes F(a) to *value and the
/// gradient to *grad (Resize()d in place). Returns false when the gradient
/// is undefined at `a` (e.g. a singular DPP kernel); the ascent then stops
/// and returns its current iterate. The point of fusing: the dHMM objective
/// and its gradient share one kernel build and one Cholesky factorization
/// (dpp::LogDetAndGrad), where separate callbacks each redo both.
using MatrixValueGradient =
    std::function<bool(const linalg::Matrix&, double*, linalg::Matrix*)>;

/// Line-search constants of the ascent.
inline constexpr double kInitialStep = 1.0;      ///< first trial step gamma
inline constexpr double kBacktrackFactor = 0.5;  ///< gamma shrink on rejection
/// Gamma growth after an accepted step. It exceeds 1/kBacktrackFactor so
/// that the step size can recover even when every iteration needs one
/// backtrack (otherwise the net step change per iteration shrinks and the
/// ascent creeps).
inline constexpr double kGrowFactor = 2.5;
inline constexpr int kMaxBacktracks = 40;  ///< line-search probes per iteration
inline constexpr double kMinStep = 1e-14;  ///< smallest gamma a probe tries
static_assert(kInitialStep > 0.0);
static_assert(kBacktrackFactor > 0.0 && kBacktrackFactor < 1.0);
static_assert(kGrowFactor * kBacktrackFactor > 1.0);

/// Options for ProjectedGradientAscent.
struct ProjectedGradientOptions {
  int max_iters = 200;  ///< outer ascent iterations
  double tol = 1e-7;    ///< stop when objective gain < tol (Alg. 1 l. 9)
};

/// Result of a projected gradient run.
struct ProjectedGradientResult {
  linalg::Matrix argmax;   ///< best feasible iterate found
  double objective = 0.0;  ///< objective at argmax
  int iterations = 0;      ///< accepted ascent steps
  bool converged = false;  ///< true when the tol criterion triggered
};

/// Reusable scratch for ProjectedGradientAscent. All buffers are grow-only:
/// after the first run at a given shape, every backtracking probe reuses
/// `trial`, `grad`, and `candidate` instead of allocating fresh matrices
/// per probe.
struct ProjectedGradientWorkspace {
  linalg::Matrix grad;       ///< gradient at the current iterate
  linalg::Matrix trial;      ///< projected trial point of the line search
  linalg::Matrix candidate;  ///< best improving trial found this iteration
};

/// \brief Maximizes the objective over matrices with feasible set given by
/// `project`, starting from `init` (which must be feasible).
///
/// Implements the paper's Algorithm 1 loop: compute gradient, find a step
/// size by backtracking until the projected step improves the objective,
/// stop when the improvement falls below tolerance. The objective and
/// gradient at each accepted iterate come from one fused `value_and_grad`
/// call (one kernel factorization instead of two); `objective` serves the
/// value-only line-search probes. All intermediate matrices live in `ws` /
/// `result`, which only grow — after the first call at a given shape the
/// whole ascent performs zero heap allocations. `result` fields are fully
/// overwritten; passing the same workspace and result across calls is the
/// intended steady-state usage.
void ProjectedGradientAscent(const linalg::Matrix& init,
                             const MatrixObjective& objective,
                             const MatrixValueGradient& value_and_grad,
                             const MatrixProjection& project,
                             const ProjectedGradientOptions& options,
                             ProjectedGradientWorkspace* ws,
                             ProjectedGradientResult* result);

}  // namespace dhmm::optim

#endif  // DHMM_OPTIM_PROJECTED_GRADIENT_H_

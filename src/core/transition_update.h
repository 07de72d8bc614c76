// The dHMM transition-matrix update (paper Algorithm 1, Eqs. 13-18).
//
// Maximizes over row-stochastic A:
//   F(A) = sum_ij C_ij log A_ij                 (expected/observed counts)
//        + alpha * log det K~_A                 (DPP diversity prior, Eq. 6)
//        - tether_weight * ||A - A0||_F^2      (supervised drift, Eq. 8)
// by projected gradient ascent with adaptive step size and per-row Euclidean
// simplex projection (Eq. 17).
#ifndef DHMM_CORE_TRANSITION_UPDATE_H_
#define DHMM_CORE_TRANSITION_UPDATE_H_

#include "dpp/kernel_workspace.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "optim/projected_gradient.h"

namespace dhmm::core {

/// Options for the penalized transition update.
struct TransitionUpdateOptions {
  /// Diversity weight alpha; 0 short-circuits to the ML update (normalized
  /// counts), exactly recovering Baum-Welch.
  double alpha = 1.0;
  /// Product-kernel exponent; the paper fixes 0.5.
  double rho = 0.5;
  /// Tether matrix A0 and weight alpha_A for the supervised objective
  /// (Eq. 8). tether must outlive the call; nullptr disables the term.
  const linalg::Matrix* tether = nullptr;
  double tether_weight = 0.0;
  /// Entries are kept >= row_floor (renormalized) after projection so that
  /// the count term stays finite and kernel gradients stay bounded.
  double row_floor = 1e-10;
  /// Inner projected-gradient-ascent controls (Algorithm 1's loop).
  optim::ProjectedGradientOptions ascent;
};

/// Diagnostics from one update.
struct TransitionUpdateResult {
  linalg::Matrix a;          ///< the updated transition matrix
  double objective = 0.0;    ///< F(a)
  double log_det = 0.0;      ///< log det K~ at a
  int iterations = 0;        ///< accepted ascent steps
  bool converged = false;
};

/// \brief Grow-only scratch for the whole M-step stack: kernel/Cholesky
/// buffers for the diversity prior, trial/gradient matrices for the inner
/// ascent, and staging matrices for the feasible start.
///
/// One workspace per worker thread (mirroring hmm::InferenceWorkspace in the
/// E-step engine): after the first UpdateTransitions call at a given k, the
/// update performs zero heap allocations. Thread-compatible, not
/// thread-safe; contents are fully overwritten per call, so a workspace can
/// move freely between state counts and training runs.
struct TransitionUpdateWorkspace {
  dpp::KernelWorkspace kernel;            ///< kernel/Cholesky/K^{-1}P buffers
  optim::ProjectedGradientWorkspace ascent;  ///< trial/grad/candidate
  optim::ProjectedGradientResult pg;      ///< reused inner-ascent result slot
  linalg::Matrix raw_grad;   ///< Euclidean gradient g of Eq. 15 / Eq. 18
  linalg::Matrix ml;         ///< normalized-counts candidate start
  linalg::Matrix start;      ///< feasible starting point
  linalg::Vector row_scratch;  ///< simplex-projection / floor-flag scratch

  // Accepted-probe snapshot: whenever a line-search probe beats every value
  // seen this update (exactly the optimizer's acceptance rule), its kernel
  // state and objective are copied here. The fused oracle is then invoked
  // at that same point for the gradient, recognizes it by exact matrix
  // equality, and skips the kernel rebuild, refactorization, and count-term
  // logs — the precise redundancy where the old gradient callback rebuilt
  // the kernel the objective had just computed. A miss only costs the
  // equality test, so the cache is purely an optimization.
  dpp::KernelWorkspace accepted;      ///< kernel state at `accepted_a`
  linalg::Matrix accepted_a;          ///< the snapshotted point
  double accepted_objective = 0.0;    ///< full objective F at `accepted_a`
  bool accepted_valid = false;        ///< reset by every UpdateTransitions
};

/// \brief The penalized objective F(A) itself, as every line-search probe
/// evaluates it: allocation-free at steady state and bitwise-identical to
/// what UpdateTransitions maximizes. Returns -inf outside the feasible
/// region (zero prob where C > 0, or a singular kernel).
double TransitionObjective(const linalg::Matrix& a,
                           const linalg::Matrix& counts,
                           const TransitionUpdateOptions& options,
                           dpp::KernelWorkspace* ws);

/// \brief Projects rows to the simplex, then enforces entries >= row_floor
/// while keeping each row summing to one.
///
/// Only the un-floored mass is rescaled (iterated to a fixed point), so the
/// post-condition `a(i, j) >= row_floor` genuinely holds — naively
/// renormalizing the whole row after flooring divides by a sum > 1 and can
/// push just-floored entries straight back under the floor.
/// Requires row_floor * cols < 1. Allocation-free: `scratch` is grow-only
/// sort/flag storage.
void ProjectFeasible(linalg::Matrix* a, double row_floor,
                     linalg::Vector* scratch);

/// \brief Runs the update starting from `a_init` (rows on the simplex).
///
/// \param counts  k x k non-negative transition counts C (expected counts in
///                the unsupervised M-step; hard counts in the supervised
///                objective).
TransitionUpdateResult UpdateTransitions(
    const linalg::Matrix& a_init, const linalg::Matrix& counts,
    const TransitionUpdateOptions& options);

/// \brief Workspace overload — the steady-state training hot path.
///
/// Objective and gradient are fused (one kernel build + one Cholesky
/// factorization per evaluation via dpp::LogDetAndGrad), every intermediate
/// lives in `ws`, and `result` fields are overwritten in place. Calling this
/// repeatedly with the same workspace and result performs no heap
/// allocation after the first call at a given k.
void UpdateTransitions(const linalg::Matrix& a_init,
                       const linalg::Matrix& counts,
                       const TransitionUpdateOptions& options,
                       TransitionUpdateWorkspace* ws,
                       TransitionUpdateResult* result);

}  // namespace dhmm::core

#endif  // DHMM_CORE_TRANSITION_UPDATE_H_

#include "core/transition_update.h"

#include <cmath>
#include <limits>
#include <utility>

#include "dpp/logdet.h"
#include "optim/simplex_projection.h"
#include "util/check.h"

namespace dhmm::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// When the starting A has (numerically) coincident rows the prior is -inf;
// the update mixes in this much uniform noise, doubling per attempt, to
// restore feasibility.
constexpr double kFeasibilityJitter = 1e-3;

// Count term of Eq. 13: sum_ij C_ij log A_ij, with the raw count gradient
// C_ij / A_ij optionally written alongside (grad may be null). Returns -inf
// when A has a zero where C > 0.
double CountTerm(const linalg::Matrix& a, const linalg::Matrix& counts,
                 linalg::Matrix* grad) {
  double obj = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      double c = counts(i, j);
      double g = 0.0;
      if (c != 0.0) {
        DHMM_DCHECK(c > 0.0);
        if (a(i, j) <= 0.0) return kNegInf;
        obj += c * std::log(a(i, j));
        g = c / a(i, j);
      }
      if (grad != nullptr) (*grad)(i, j) = g;
    }
  }
  return obj;
}

// Line-search probe: the workspace objective plus the accepted-probe
// snapshot. A probe that beats every value seen this update is (by the
// optimizer's acceptance rule) the current candidate, and the ascent will
// come back to that exact point for its gradient — so its kernel state is
// copied aside for the oracle below to reuse.
double ProbeObjective(const linalg::Matrix& a, const linalg::Matrix& counts,
                      const TransitionUpdateOptions& options,
                      TransitionUpdateWorkspace* ws) {
  double obj = TransitionObjective(a, counts, options, &ws->kernel);
  if (options.alpha != 0.0 && std::isfinite(obj) &&
      (!ws->accepted_valid || obj > ws->accepted_objective)) {
    ws->accepted_valid = true;
    ws->accepted_objective = obj;
    ws->accepted_a = a;
    ws->accepted.powed = ws->kernel.powed;
    ws->accepted.kernel = ws->kernel.kernel;
    ws->accepted.chol = ws->kernel.chol;
  }
  return obj;
}

// Adds the tether gradient 2 alpha_A (A0 - A) (Eq. 18 last term) to g.
void AddTetherGradient(const linalg::Matrix& a,
                       const TransitionUpdateOptions& options,
                       linalg::Matrix* g) {
  if (options.tether == nullptr || options.tether_weight == 0.0) return;
  const double two_w = 2.0 * options.tether_weight;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      (*g)(i, j) += ((*options.tether)(i, j) - a(i, j)) * two_w;
    }
  }
}

// Natural-gradient (replicator) direction on the simplex:
//   d_ij = A_ij * (g_ij - sum_m A_im g_im).
// Same fixed points as the Euclidean projected gradient (at a KKT point
// g is constant on each row's support, so d = 0), but globally bounded:
// the count term contributes A_ij * C_ij/A_ij = C_ij even when simplex
// projection has floored an entry, where the raw C/A gradient explodes
// and freezes a plain projected-gradient ascent.
void ReplicatorDirection(const linalg::Matrix& a, const linalg::Matrix& g,
                         linalg::Matrix* grad) {
  const size_t k = a.rows();
  grad->Resize(k, k);
  for (size_t i = 0; i < k; ++i) {
    double row_mean = 0.0;
    for (size_t j = 0; j < k; ++j) row_mean += a(i, j) * g(i, j);
    for (size_t j = 0; j < k; ++j) {
      (*grad)(i, j) = a(i, j) * (g(i, j) - row_mean);
    }
  }
}

// Fused F(A) and its natural gradient: one kernel build + one factorization
// cover both the alpha * log det K~ value and its gradient
// (dpp::LogDetAndGrad), where the pre-workspace code rebuilt and
// refactorized the same kernel in separate objective and gradient callbacks.
// When the point is the snapshotted accepted probe, even that single build
// is skipped. The value accumulation mirrors TransitionObjective term by
// term so probe values and oracle values are bitwise identical.
bool FusedObjectiveAndGradient(const linalg::Matrix& a,
                               const linalg::Matrix& counts,
                               const TransitionUpdateOptions& options,
                               TransitionUpdateWorkspace* ws, double* value,
                               linalg::Matrix* grad) {
  const size_t k = a.rows();
  *value = kNegInf;

  if (options.alpha != 0.0 && ws->accepted_valid && a == ws->accepted_a) {
    // Snapshot hit: the probe that produced this point already built and
    // factorized its kernel and evaluated the full objective, so only the
    // gradient remains — count term (no logs needed), dpp solve on the
    // snapshotted factors, tether, replicator.
    ws->raw_grad.Resize(k, k);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        double c = counts(i, j);
        ws->raw_grad(i, j) = c != 0.0 ? c / a(i, j) : 0.0;
      }
    }
    dpp::GradLogDetFromFactoredWorkspace(a, options.rho, &ws->accepted,
                                         &ws->accepted.grad);
    ws->raw_grad.AddScaled(ws->accepted.grad, options.alpha);
    AddTetherGradient(a, options, &ws->raw_grad);
    ReplicatorDirection(a, ws->raw_grad, grad);
    *value = ws->accepted_objective;
    return true;
  }

  // Raw Euclidean gradient g of the objective (Eq. 15 / Eq. 18).
  ws->raw_grad.Resize(k, k);
  double obj = CountTerm(a, counts, &ws->raw_grad);
  if (obj == kNegInf) return false;

  // Diversity term: alpha * log det K~ and alpha * grad log det K~.
  if (options.alpha != 0.0) {
    double log_det = kNegInf;
    if (!dpp::LogDetAndGrad(a, options.rho, &ws->kernel, &log_det,
                            &ws->kernel.grad)) {
      return false;
    }
    obj += options.alpha * log_det;
    ws->raw_grad.AddScaled(ws->kernel.grad, options.alpha);
  }

  // Tether term: -alpha_A ||A - A0||^2 and its gradient (Eq. 18).
  if (options.tether != nullptr && options.tether_weight != 0.0) {
    obj -= options.tether_weight * a.squared_distance(*options.tether);
  }
  AddTetherGradient(a, options, &ws->raw_grad);
  ReplicatorDirection(a, ws->raw_grad, grad);
  *value = obj;
  return true;
}

// Single-pointer capture context so the std::function callbacks handed to
// the inner ascent fit its small-buffer storage — capturing the operands
// individually would spill to the heap on every update.
struct AscentContext {
  const linalg::Matrix* counts;
  const TransitionUpdateOptions* options;
  TransitionUpdateWorkspace* ws;
};

}  // namespace

void ProjectFeasible(linalg::Matrix* a, double row_floor,
                     linalg::Vector* scratch) {
  optim::ProjectRowsToSimplex(a, scratch);
  if (row_floor <= 0.0) return;
  const size_t n = a->cols();
  DHMM_CHECK_MSG(row_floor * static_cast<double>(n) < 1.0,
                 "row_floor too large for the row width");
  scratch->Resize(n);
  double* floored = scratch->data();  // 0/1 membership flags
  for (size_t r = 0; r < a->rows(); ++r) {
    double* row = a->row_data(r);
    size_t num_floored = 0;
    for (size_t c = 0; c < n; ++c) {
      floored[c] = 0.0;
      if (row[c] < row_floor) {
        floored[c] = 1.0;
        ++num_floored;
      }
    }
    if (num_floored == 0) continue;
    // Pin floored entries at exactly row_floor and rescale only the
    // remaining (un-floored) mass. Rescaling can push further entries under
    // the floor, so iterate the floored set to a fixed point; it grows
    // strictly each pass, and because row_floor * n < 1 at least one entry
    // always survives, so this terminates within n passes.
    for (;;) {
      double free_sum = 0.0;
      for (size_t c = 0; c < n; ++c) {
        if (floored[c] == 0.0) free_sum += row[c];
      }
      DHMM_DCHECK(free_sum > 0.0);
      const double target =
          1.0 - row_floor * static_cast<double>(num_floored);
      const double scale = target / free_sum;
      bool grew = false;
      for (size_t c = 0; c < n; ++c) {
        if (floored[c] == 0.0 && row[c] * scale < row_floor) {
          floored[c] = 1.0;
          ++num_floored;
          grew = true;
        }
      }
      if (!grew) {
        for (size_t c = 0; c < n; ++c) {
          row[c] = floored[c] != 0.0 ? row_floor : row[c] * scale;
        }
        break;
      }
    }
  }
}

double TransitionObjective(const linalg::Matrix& a,
                           const linalg::Matrix& counts,
                           const TransitionUpdateOptions& options,
                           dpp::KernelWorkspace* ws) {
  DHMM_CHECK(a.rows() == counts.rows() && a.cols() == counts.cols());
  double obj = CountTerm(a, counts, /*grad=*/nullptr);
  if (obj == kNegInf) return kNegInf;
  if (options.alpha != 0.0) {
    double ld = dpp::LogDetNormalizedKernel(a, options.rho, ws);
    if (ld == kNegInf) return kNegInf;
    obj += options.alpha * ld;
  }
  if (options.tether != nullptr && options.tether_weight != 0.0) {
    obj -= options.tether_weight * a.squared_distance(*options.tether);
  }
  return obj;
}

TransitionUpdateResult UpdateTransitions(
    const linalg::Matrix& a_init, const linalg::Matrix& counts,
    const TransitionUpdateOptions& options) {
  TransitionUpdateWorkspace ws;
  TransitionUpdateResult result;
  UpdateTransitions(a_init, counts, options, &ws, &result);
  return result;
}

void UpdateTransitions(const linalg::Matrix& a_init,
                       const linalg::Matrix& counts,
                       const TransitionUpdateOptions& options,
                       TransitionUpdateWorkspace* ws,
                       TransitionUpdateResult* result) {
  const size_t k = a_init.rows();
  DHMM_CHECK(a_init.cols() == k);
  DHMM_CHECK(counts.rows() == k && counts.cols() == k);
  DHMM_CHECK(options.alpha >= 0.0);
  DHMM_CHECK(options.tether_weight >= 0.0);
  DHMM_CHECK(ws != nullptr && result != nullptr);

  result->objective = 0.0;
  result->log_det = 0.0;
  result->iterations = 0;
  result->converged = false;
  ws->accepted_valid = false;

  // alpha = 0 and no tether: closed-form ML update (paper's "same as
  // traditional HMM" case).
  if (options.alpha == 0.0 &&
      (options.tether == nullptr || options.tether_weight == 0.0)) {
    result->a = counts;
    result->a.NormalizeRows();
    ProjectFeasible(&result->a, options.row_floor, &ws->row_scratch);
    result->objective =
        TransitionObjective(result->a, counts, options, &ws->kernel);
    result->log_det =
        dpp::LogDetNormalizedKernel(result->a, options.rho, &ws->kernel);
    result->converged = true;
    return;
  }

  // Feasible start: prefer the better of {previous A, ML update}. Starting
  // from the normalized counts is crucial for conditioning: there the count
  // gradient C_ij/A_ij is constant within each row, so the simplex projection
  // cancels it exactly and the ascent only has to trade off the prior terms.
  ws->ml = counts;
  ws->ml.NormalizeRows();
  ProjectFeasible(&ws->ml, options.row_floor, &ws->row_scratch);
  ws->start = a_init;
  ProjectFeasible(&ws->start, options.row_floor, &ws->row_scratch);
  double obj_start;
  {
    double obj_ml = ProbeObjective(ws->ml, counts, options, ws);
    obj_start = ProbeObjective(ws->start, counts, options, ws);
    if (obj_ml > obj_start || obj_start == kNegInf) {
      ws->start = ws->ml;
      obj_start = obj_ml;
    }
  }
  double jitter = kFeasibilityJitter;
  for (int attempt = 0; attempt < 40 && obj_start == kNegInf; ++attempt) {
    const size_t n = ws->start.cols();
    for (size_t i = 0; i < ws->start.rows(); ++i) {
      for (size_t j = 0; j < n; ++j) {
        // Deterministic, row-dependent perturbation: tilt row i toward its
        // (i mod n)-th corner. Distinct tilts separate coincident rows.
        double bump = (j == i % n) ? jitter : 0.0;
        ws->start(i, j) = (ws->start(i, j) + bump) / (1.0 + jitter);
      }
    }
    jitter *= 2.0;
    obj_start = ProbeObjective(ws->start, counts, options, ws);
  }
  DHMM_CHECK_MSG(obj_start > kNegInf,
                 "could not find a feasible starting transition matrix");

  AscentContext ctx{&counts, &options, ws};
  optim::MatrixObjective objective = [&ctx](const linalg::Matrix& a) {
    return ProbeObjective(a, *ctx.counts, *ctx.options, ctx.ws);
  };
  optim::MatrixValueGradient value_and_grad =
      [&ctx](const linalg::Matrix& a, double* value, linalg::Matrix* grad) {
        return FusedObjectiveAndGradient(a, *ctx.counts, *ctx.options,
                                         ctx.ws, value, grad);
      };
  optim::MatrixProjection project = [&ctx](linalg::Matrix* a) {
    ProjectFeasible(a, ctx.options->row_floor, &ctx.ws->row_scratch);
  };

  optim::ProjectedGradientAscent(ws->start, objective, value_and_grad,
                                 project, options.ascent, &ws->ascent,
                                 &ws->pg);

  // Copy (not swap): swapping would leave pg.argmax holding result->a's
  // previous buffer — empty on the first call — and the next run would have
  // to reallocate it. The copy reuses both buffers' capacity.
  result->a = ws->pg.argmax;
  result->objective = ws->pg.objective;
  result->log_det =
      dpp::LogDetNormalizedKernel(result->a, options.rho, &ws->kernel);
  result->iterations = ws->pg.iterations;
  result->converged = ws->pg.converged;
}

}  // namespace dhmm::core

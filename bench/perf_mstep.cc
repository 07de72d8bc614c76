// Microbenchmark for the penalized transition M-step (Algorithm 1): the
// allocation-free workspace path versus a faithful reconstruction of the
// pre-workspace baseline, swept over k and alpha.
//
// The acceptance bar for the workspace stack is >= 2x on UpdateTransitions
// at k = 20 versus the baseline path below — a line-by-line replica of the
// code this PR replaced: std::pow-based kernel builds, a fresh normalized
// kernel + pivoted LU per objective probe, a gradient that rebuilds the
// kernel and forms an explicit inverse through per-column temporaries, and
// per-row allocating simplex projections.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/transition_update.h"
#include "dpp/logdet.h"
#include "linalg/matrix.h"
#include "optim/projected_gradient.h"
#include "optim/simplex_projection.h"
#include "prob/rng.h"
#include "util/check.h"

namespace {

using namespace dhmm;

struct MStepInputs {
  linalg::Matrix counts;
  linalg::Matrix init;
};

// A batch of independent inputs per measurement: the ascent is adaptive, so
// a single input would make the comparison hostage to one trajectory's
// probe-count luck. Eight seeds average that out.
constexpr size_t kBatch = 8;

MStepInputs MakeInputs(size_t k, uint64_t seed) {
  prob::Rng rng(k * 7919 + seed);
  MStepInputs in;
  in.counts = linalg::Matrix(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      in.counts(i, j) = 1.0 + 100.0 * rng.Uniform();
    }
  }
  in.init = rng.RandomStochasticMatrix(k, k, 1.5);
  return in;
}

std::vector<MStepInputs> MakeBatch(size_t k) {
  std::vector<MStepInputs> batch;
  batch.reserve(kBatch);
  for (uint64_t s = 0; s < kBatch; ++s) batch.push_back(MakeInputs(k, s));
  return batch;
}

// ------------------------------------------------------ pre-PR baseline ---
//
// Verbatim reconstruction of the pre-workspace M-step, inlined here so the
// comparison survives the refactor it measures: std::pow-based kernel
// builds (no sqrt specialization), a normalized kernel + fresh LU per
// objective probe, and a gradient that rebuilds the kernel again, forms an
// explicit inverse, and multiplies it out — all through freshly allocated
// matrices, exactly as the shipped code did before the workspace stack.

constexpr double kProbFloor = 1e-12;

// The pre-PR partial-pivot LU, reduced to the operations the baseline calls:
// factor a copy (PA = LU, unit-diagonal L below, U on and above the
// diagonal), test for a zero pivot or a non-positive determinant, log |det|,
// and one vector solve.
class BaselineLu {
 public:
  explicit BaselineLu(const linalg::Matrix& a) : lu_(a), piv_(a.rows()) {
    const size_t n = lu_.rows();
    for (size_t i = 0; i < n; ++i) piv_[i] = i;
    for (size_t col = 0; col < n; ++col) {
      size_t pivot = col;
      double best = std::fabs(lu_(col, col));
      for (size_t r = col + 1; r < n; ++r) {
        const double v = std::fabs(lu_(r, col));
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (pivot != col) {
        for (size_t c = 0; c < n; ++c) std::swap(lu_(pivot, c), lu_(col, c));
        std::swap(piv_[pivot], piv_[col]);
        pivot_sign_ = -pivot_sign_;
      }
      const double d = lu_(col, col);
      if (d == 0.0 || !std::isfinite(d)) {
        singular_ = true;
        continue;
      }
      for (size_t r = col + 1; r < n; ++r) {
        const double f = lu_(r, col) / d;
        lu_(r, col) = f;
        if (f == 0.0) continue;
        for (size_t c = col + 1; c < n; ++c) lu_(r, c) -= f * lu_(col, c);
      }
    }
  }

  // True for a zero pivot or det <= 0: the baseline's -inf / reject test.
  bool NonPositiveDeterminant() const {
    if (singular_) return true;
    int sign = pivot_sign_;
    for (size_t i = 0; i < lu_.rows(); ++i) {
      if (lu_(i, i) < 0.0) sign = -sign;
    }
    return sign <= 0;
  }

  double LogAbsDeterminant() const {
    double s = 0.0;
    for (size_t i = 0; i < lu_.rows(); ++i) s += std::log(std::fabs(lu_(i, i)));
    return s;
  }

  linalg::Vector Solve(const linalg::Vector& b) const {
    const size_t n = lu_.rows();
    linalg::Vector x(n);
    for (size_t i = 0; i < n; ++i) x[i] = b[piv_[i]];
    for (size_t i = 1; i < n; ++i) {
      double s = x[i];
      for (size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
      x[i] = s;
    }
    for (size_t ii = n; ii-- > 0;) {
      double s = x[ii];
      for (size_t j = ii + 1; j < n; ++j) s -= lu_(ii, j) * x[j];
      x[ii] = s / lu_(ii, ii);
    }
    return x;
  }

 private:
  linalg::Matrix lu_;
  std::vector<size_t> piv_;
  int pivot_sign_ = 1;
  bool singular_ = false;
};

// Pre-PR feasibility projection: per-row allocating simplex projection
// (Row copy -> ProjectToSimplex -> SetRow) followed by the whole-row
// renormalization after flooring.
void BaselineProjectFeasible(linalg::Matrix* a, double row_floor) {
  for (size_t r = 0; r < a->rows(); ++r) {
    a->SetRow(r, optim::ProjectToSimplex(a->Row(r)));
  }
  if (row_floor <= 0.0) return;
  for (size_t r = 0; r < a->rows(); ++r) {
    double* row = a->row_data(r);
    bool clipped = false;
    for (size_t c = 0; c < a->cols(); ++c) {
      if (row[c] < row_floor) {
        row[c] = row_floor;
        clipped = true;
      }
    }
    if (clipped) {
      double s = 0.0;
      for (size_t c = 0; c < a->cols(); ++c) s += row[c];
      for (size_t c = 0; c < a->cols(); ++c) row[c] /= s;
    }
  }
}

linalg::Matrix BaselinePowed(const linalg::Matrix& rows, double rho) {
  const size_t kk = rows.rows();
  const size_t d = rows.cols();
  linalg::Matrix powed(kk, d);
  for (size_t i = 0; i < kk; ++i) {
    for (size_t x = 0; x < d; ++x) {
      double v = rows(i, x);
      powed(i, x) = std::pow(v < kProbFloor ? kProbFloor : v, rho);
    }
  }
  return powed;
}

linalg::Matrix BaselineKernel(const linalg::Matrix& powed) {
  const size_t kk = powed.rows();
  const size_t d = powed.cols();
  linalg::Matrix kernel(kk, kk);
  for (size_t i = 0; i < kk; ++i) {
    for (size_t j = i; j < kk; ++j) {
      double s = 0.0;
      for (size_t x = 0; x < d; ++x) s += powed(i, x) * powed(j, x);
      kernel(i, j) = s;
      kernel(j, i) = s;
    }
  }
  return kernel;
}

// Pre-workspace Eq. 2 normalization: a staged inverse-sqrt diagonal and a
// full k x k rescale pass.
void BaselineNormalizeKernel(linalg::Matrix* kernel) {
  DHMM_CHECK(kernel != nullptr && kernel->rows() == kernel->cols());
  const size_t k = kernel->rows();
  linalg::Vector inv_sqrt_diag(k);
  for (size_t i = 0; i < k; ++i) {
    double d = (*kernel)(i, i);
    DHMM_CHECK_MSG(d > 0.0, "kernel diagonal must be positive");
    inv_sqrt_diag[i] = 1.0 / std::sqrt(d);
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      (*kernel)(i, j) *= inv_sqrt_diag[i] * inv_sqrt_diag[j];
    }
  }
  for (size_t i = 0; i < k; ++i) (*kernel)(i, i) = 1.0;
}

double BaselineLogDet(const linalg::Matrix& rows, double rho) {
  linalg::Matrix kernel = BaselineKernel(BaselinePowed(rows, rho));
  BaselineNormalizeKernel(&kernel);
  BaselineLu lu(kernel);
  if (lu.NonPositiveDeterminant()) {
    return -std::numeric_limits<double>::infinity();
  }
  return lu.LogAbsDeterminant();
}

bool BaselineGradLogDet(const linalg::Matrix& rows, double rho,
                        linalg::Matrix* grad) {
  const size_t kk = rows.rows();
  const size_t d = rows.cols();
  *grad = linalg::Matrix(kk, d);
  linalg::Matrix powed = BaselinePowed(rows, rho);
  linalg::Matrix kernel = BaselineKernel(powed);
  BaselineLu lu(kernel);
  if (lu.NonPositiveDeterminant()) return false;
  // Pre-PR inverse: column-by-column vector solves through Col/SetCol
  // temporaries.
  linalg::Matrix ident = linalg::Matrix::Identity(kk);
  linalg::Matrix kinv(kk, kk);
  for (size_t c = 0; c < kk; ++c) {
    kinv.SetCol(c, lu.Solve(ident.Col(c)));
  }
  linalg::Matrix m = kinv.MatMul(powed);
  for (size_t i = 0; i < kk; ++i) {
    const double kii = kernel(i, i);
    for (size_t j = 0; j < d; ++j) {
      double a = rows(i, j);
      if (a < kProbFloor) {
        (*grad)(i, j) = 0.0;
        continue;
      }
      double p = powed(i, j);
      (*grad)(i, j) =
          2.0 * rho * std::pow(a, rho - 1.0) * (m(i, j) - p / kii);
    }
  }
  return true;
}

double BaselineObjective(const linalg::Matrix& a, const linalg::Matrix& counts,
                         const core::TransitionUpdateOptions& options) {
  double obj = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      double c = counts(i, j);
      if (c == 0.0) continue;
      if (a(i, j) <= 0.0) return -std::numeric_limits<double>::infinity();
      obj += c * std::log(a(i, j));
    }
  }
  if (options.alpha != 0.0) {
    double ld = BaselineLogDet(a, options.rho);
    if (std::isinf(ld)) return ld;
    obj += options.alpha * ld;
  }
  return obj;
}

// Pre-workspace Algorithm-1 ascent: separate objective and gradient
// callbacks, a fresh gradient matrix per iteration and a fresh trial and
// candidate matrix per line-search probe.
optim::ProjectedGradientResult BaselineAscent(
    const linalg::Matrix& init,
    const std::function<double(const linalg::Matrix&)>& objective,
    const std::function<bool(const linalg::Matrix&, linalg::Matrix*)>&
        gradient,
    const std::function<void(linalg::Matrix*)>& project,
    const optim::ProjectedGradientOptions& options) {
  DHMM_CHECK(options.max_iters > 0);
  optim::ProjectedGradientResult result;
  result.argmax = init;
  result.objective = objective(init);
  DHMM_CHECK_MSG(std::isfinite(result.objective),
                 "projected gradient needs a feasible finite starting point");
  double step = optim::kInitialStep;
  int small_gain_streak = 0;
  linalg::Matrix grad;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    if (!gradient(result.argmax, &grad)) break;
    bool accepted = false;
    linalg::Matrix candidate;
    double cand_obj = 0.0;
    double search_start = step;
    double accepted_step = step;
    int extra_probes = 3;
    for (int bt = 0; bt < optim::kMaxBacktracks && step >= optim::kMinStep;
         ++bt) {
      linalg::Matrix trial = result.argmax + grad * step;
      project(&trial);
      double trial_obj = objective(trial);
      if (std::isfinite(trial_obj) && trial_obj > result.objective &&
          (!accepted || trial_obj > cand_obj)) {
        accepted = true;
        candidate = std::move(trial);
        cand_obj = trial_obj;
        accepted_step = step;
      }
      if (accepted && --extra_probes < 0) break;
      step *= optim::kBacktrackFactor;
    }
    if (!accepted) {
      if (search_start > optim::kInitialStep) {
        step = optim::kInitialStep;
        continue;
      }
      result.converged = true;
      break;
    }
    step = accepted_step;
    double gain = cand_obj - result.objective;
    result.argmax = std::move(candidate);
    result.objective = cand_obj;
    ++result.iterations;
    step = std::min(step * optim::kGrowFactor, optim::kInitialStep * 1e8);
    if (gain < options.tol) {
      step = std::max(step, optim::kInitialStep);
      if (++small_gain_streak >= 3) {
        result.converged = true;
        break;
      }
    } else {
      small_gain_streak = 0;
    }
  }
  return result;
}

core::TransitionUpdateResult BaselineUpdateTransitions(
    const linalg::Matrix& a_init, const linalg::Matrix& counts,
    const core::TransitionUpdateOptions& options) {
  const size_t k = a_init.rows();
  linalg::Matrix ml = counts;
  ml.NormalizeRows();
  BaselineProjectFeasible(&ml, options.row_floor);
  linalg::Matrix start = a_init;
  BaselineProjectFeasible(&start, options.row_floor);
  {
    double obj_ml = BaselineObjective(ml, counts, options);
    double obj_start = BaselineObjective(start, counts, options);
    if (obj_ml > obj_start || std::isinf(obj_start)) start = ml;
  }

  auto objective = [&](const linalg::Matrix& a) {
    return BaselineObjective(a, counts, options);
  };
  auto gradient = [&](const linalg::Matrix& a, linalg::Matrix* grad) {
    linalg::Matrix g(k, k);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        if (counts(i, j) > 0.0) g(i, j) = counts(i, j) / a(i, j);
      }
    }
    if (options.alpha != 0.0) {
      linalg::Matrix dpp_grad;
      if (!BaselineGradLogDet(a, options.rho, &dpp_grad)) {
        return false;
      }
      g += dpp_grad * options.alpha;
    }
    *grad = linalg::Matrix(k, k);
    for (size_t i = 0; i < k; ++i) {
      double row_mean = 0.0;
      for (size_t j = 0; j < k; ++j) row_mean += a(i, j) * g(i, j);
      for (size_t j = 0; j < k; ++j) {
        (*grad)(i, j) = a(i, j) * (g(i, j) - row_mean);
      }
    }
    return true;
  };
  auto project = [&](linalg::Matrix* a) {
    BaselineProjectFeasible(a, options.row_floor);
  };

  optim::ProjectedGradientResult pg =
      BaselineAscent(start, objective, gradient, project, options.ascent);
  core::TransitionUpdateResult result;
  result.a = std::move(pg.argmax);
  result.objective = pg.objective;
  result.iterations = pg.iterations;
  result.converged = pg.converged;
  return result;
}

void BM_UpdateTransitionsBaseline(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<MStepInputs> batch = MakeBatch(k);
  core::TransitionUpdateOptions opts;
  opts.alpha = static_cast<double>(state.range(1));
  for (auto _ : state) {
    for (const MStepInputs& in : batch) {
      core::TransitionUpdateResult r =
          BaselineUpdateTransitions(in.init, in.counts, opts);
      benchmark::DoNotOptimize(r.objective);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.counters["alpha"] = opts.alpha;
}

void BM_UpdateTransitionsWorkspace(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<MStepInputs> batch = MakeBatch(k);
  core::TransitionUpdateOptions opts;
  opts.alpha = static_cast<double>(state.range(1));
  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult result;
  for (auto _ : state) {
    for (const MStepInputs& in : batch) {
      core::UpdateTransitions(in.init, in.counts, opts, &ws, &result);
      benchmark::DoNotOptimize(result.objective);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.counters["alpha"] = opts.alpha;
}

// Warm-start inputs: the per-EM-iteration shape. Training calls the M-step
// once per outer iteration starting from the *previous* A, so after the
// first few iterations every update starts near its optimum and runs only
// a couple of ascent steps — the regime where the redundant staging
// evaluations and per-probe rebuild costs dominate.
std::vector<MStepInputs> MakeWarmBatch(size_t k, double alpha) {
  std::vector<MStepInputs> batch = MakeBatch(k);
  core::TransitionUpdateOptions opts;
  opts.alpha = alpha;
  for (MStepInputs& in : batch) {
    in.init = core::UpdateTransitions(in.init, in.counts, opts).a;
  }
  return batch;
}

void BM_UpdateTransitionsBaselineWarm(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  core::TransitionUpdateOptions opts;
  opts.alpha = static_cast<double>(state.range(1));
  std::vector<MStepInputs> batch = MakeWarmBatch(k, opts.alpha);
  for (auto _ : state) {
    for (const MStepInputs& in : batch) {
      core::TransitionUpdateResult r =
          BaselineUpdateTransitions(in.init, in.counts, opts);
      benchmark::DoNotOptimize(r.objective);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.counters["alpha"] = opts.alpha;
}

void BM_UpdateTransitionsWorkspaceWarm(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  core::TransitionUpdateOptions opts;
  opts.alpha = static_cast<double>(state.range(1));
  std::vector<MStepInputs> batch = MakeWarmBatch(k, opts.alpha);
  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult result;
  for (auto _ : state) {
    for (const MStepInputs& in : batch) {
      core::UpdateTransitions(in.init, in.counts, opts, &ws, &result);
      benchmark::DoNotOptimize(result.objective);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.counters["alpha"] = opts.alpha;
}

#define MSTEP_SWEEP(bench)                                              \
  BENCHMARK(bench)                                                      \
      ->ArgNames({"k", "alpha"})                                        \
      ->Args({5, 1})                                                    \
      ->Args({5, 10})                                                   \
      ->Args({20, 1})                                                   \
      ->Args({20, 10})                                                  \
      ->Args({50, 1})                                                   \
      ->Args({50, 10})

MSTEP_SWEEP(BM_UpdateTransitionsBaseline);
MSTEP_SWEEP(BM_UpdateTransitionsWorkspace);
MSTEP_SWEEP(BM_UpdateTransitionsBaselineWarm);
MSTEP_SWEEP(BM_UpdateTransitionsWorkspaceWarm);

#undef MSTEP_SWEEP

// The fused objective+gradient oracle versus the separate entry points it
// replaced (one kernel build + factorization versus two of each).
void BM_LogDetGradSeparate(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  prob::Rng rng(5);
  linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
  linalg::Matrix grad;
  for (auto _ : state) {
    double ld = dpp::LogDetNormalizedKernel(a, 0.5);
    dpp::GradLogDetNormalizedKernel(a, 0.5, &grad);
    benchmark::DoNotOptimize(ld);
    benchmark::DoNotOptimize(grad);
  }
}
BENCHMARK(BM_LogDetGradSeparate)->ArgName("k")->Arg(20);

void BM_LogDetGradFused(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  prob::Rng rng(5);
  linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
  dpp::KernelWorkspace ws;
  double ld = 0.0;
  linalg::Matrix grad;
  for (auto _ : state) {
    dpp::LogDetAndGrad(a, 0.5, &ws, &ld, &grad);
    benchmark::DoNotOptimize(ld);
    benchmark::DoNotOptimize(grad);
  }
}
BENCHMARK(BM_LogDetGradFused)->ArgName("k")->Arg(20);

}  // namespace

// main() lives in perf_main.cc (shared across perf benches): it adds the
// kernel_isa context entry to every benchmark JSON before running.

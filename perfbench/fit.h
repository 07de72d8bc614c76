// The training half of a workload: seeded MAP-EM restarts of
// core::FitDiversifiedHmm, and the traced replica that drives the same fit
// through the public per-stage calls with a timer around each stage.
#ifndef DHMM_PERFBENCH_FIT_H_
#define DHMM_PERFBENCH_FIT_H_

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/dhmm_trainer.h"
#include "core/transition_update.h"
#include "dpp/logdet.h"
#include "hmm/engine.h"
#include "hmm/model.h"
#include "hmm/sequence.h"
#include "serve.h"

namespace perfbench {

/// One workload's fitting problem.
template <typename Obs>
struct FitSpec {
  const hmm::Dataset<Obs>* data = nullptr;
  /// The seeded initial model of restart r (the bench::RunPos protocol).
  std::function<hmm::HmmModel<Obs>(int restart)> init;
  dhmm::core::DiversifiedEmOptions options;
  /// Restarts always run, whatever the time budget; the best MAP objective
  /// among them is the reported model, so it is deterministic.
  int min_restarts = 3;
};

template <typename Obs>
struct FitOutcome {
  std::vector<double> fit_s;
  hmm::HmmModel<Obs> best;  // best MAP objective among the first restarts
  double best_objective = -std::numeric_limits<double>::infinity();
};

/// Fits restarts 0, 1, ... until at least `min_restarts` have run and
/// `budget_s` has passed; each fit is timed on its own.
template <typename Obs>
FitOutcome<Obs> RunFits(const FitSpec<Obs>& spec, double budget_s,
                        Result* res) {
  FitOutcome<Obs> out;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < spec.min_restarts || SecondsSince(start) < budget_s;
       ++r) {
    hmm::HmmModel<Obs> model = spec.init(r);
    const Clock::time_point t0 = Clock::now();
    const dhmm::core::DiversifiedFitResult fit =
        dhmm::core::FitDiversifiedHmm(&model, *spec.data, spec.options);
    out.fit_s.push_back(SecondsSince(t0));
    ++res->attempted;
    if (!std::isfinite(fit.final_map_objective)) {
      ++res->failed;
      res->Note(Fmt("restart %.0f: non-finite MAP objective", r));
      continue;
    }
    if (r < spec.min_restarts && fit.final_map_objective > out.best_objective) {
      out.best_objective = fit.final_map_objective;
      out.best = std::move(model);
    }
  }
  if (out.best.emission == nullptr) Fatal("no restart produced a model");
  std::vector<double> times = out.fit_s;
  const double median = Median(&times);
  res->Note(Fmt("fits: %.0f restarts, median %.4f s, min %.4f s, max %.4f s",
                static_cast<double>(times.size()), median, times.front(),
                times.back()));
  return out;
}

/// The traced replica: fits restart 0 once with FitDiversifiedHmm and once
/// through BatchEmEngine::EStep, UpdateTransitions, FinishAccumulate,
/// BatchEmEngine::LogLikelihood and LogDetNormalizedKernel in the trainer's
/// order, timing each stage. The replica's MAP-objective history must be
/// bitwise equal to the trainer's, and its stage times must sum to within
/// 5% of its wall time. Returns the fitted model.
template <typename Obs>
hmm::HmmModel<Obs> TraceFit(const FitSpec<Obs>& spec, Result* res) {
  namespace core = dhmm::core;
  const core::DiversifiedEmOptions& o = spec.options;
  hmm::HmmModel<Obs> reference = spec.init(0);
  hmm::HmmModel<Obs> model = reference;
  const core::DiversifiedFitResult fit =
      core::FitDiversifiedHmm(&reference, *spec.data, o);

  core::TransitionUpdateOptions update;
  update.alpha = o.alpha;
  update.rho = o.rho;
  update.ascent = o.ascent;
  update.row_floor = o.row_floor;
  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult m_result;
  hmm::BatchEmEngine<Obs> engine(
      hmm::BatchOptions{o.num_threads, o.checkpoint_threshold_frames});

  double estep = 0.0, mstep = 0.0, emission_mstep = 0.0, loglik = 0.0,
         logdet = 0.0;
  long pg_iterations = 0;
  std::vector<double> history;
  const Clock::time_point start = Clock::now();
  for (int iter = 0; iter < o.max_iters; ++iter) {
    const Clock::time_point t0 = Clock::now();
    hmm::EStepStats stats = engine.EStep(
        model, *spec.data, o.update_emission ? model.emission.get() : nullptr);
    const Clock::time_point t1 = Clock::now();
    if (o.update_pi) {
      stats.pi_acc.NormalizeToSimplex();
      model.pi = stats.pi_acc;
    }
    core::UpdateTransitions(model.a, stats.trans_acc, update, &ws, &m_result);
    std::swap(model.a, m_result.a);
    pg_iterations += m_result.iterations;
    const Clock::time_point t2 = Clock::now();
    if (o.update_emission) model.emission->FinishAccumulate();
    const Clock::time_point t3 = Clock::now();
    const double ll = engine.LogLikelihood(model, *spec.data);
    const Clock::time_point t4 = Clock::now();
    const double log_det =
        dhmm::dpp::LogDetNormalizedKernel(model.a, o.rho, &ws.kernel);
    const Clock::time_point t5 = Clock::now();
    history.push_back(ll + o.alpha * log_det);
    estep += Seconds(t0, t1);
    mstep += Seconds(t1, t2);
    emission_mstep += Seconds(t2, t3);
    loglik += Seconds(t3, t4);
    logdet += Seconds(t4, t5);
    if (iter > 0 && core::MapObjectiveConverged(history[iter - 1],
                                                history[iter], o.tol)) {
      break;
    }
  }
  const double wall = SecondsSince(start);
  res->attempted += 2;

  bool same = history.size() == fit.map_objective_history.size();
  for (size_t i = 0; same && i < history.size(); ++i) {
    same = SameBits(history[i], fit.map_objective_history[i]);
  }
  if (!same) {
    ++res->failed;
    res->Invalid("traced replica's MAP-objective history differs from "
                 "FitDiversifiedHmm");
  }
  const double staged = estep + mstep + emission_mstep + loglik + logdet;
  if (std::fabs(wall - staged) > 0.05 * wall) {
    res->Invalid(Fmt("traced stages sum to %.4f s, replica wall %.4f s",
                     staged, wall));
  }
  const double frames = static_cast<double>(hmm::TotalFrames(*spec.data)) *
                        static_cast<double>(history.size());
  res->Note(Fmt("replica fit %.4f s: E-step %.1f%%, log-likelihood "
                "re-evaluation %.1f%%, M-step (transitions) %.1f%%",
                wall, 100.0 * estep / wall, 100.0 * loglik / wall,
                100.0 * mstep / wall));
  res->Note(Fmt("replica fit: emission M-step %.1f%%, log det %.1f%%, "
                "%.0f projected-gradient iterations",
                100.0 * emission_mstep / wall, 100.0 * logdet / wall,
                static_cast<double>(pg_iterations)));
  res->Note(std::string("replica MAP-objective history bitwise equal to "
                        "FitDiversifiedHmm: ") +
            (same ? "yes" : "NO"));
  res->Add("hmm.estep_s", estep, "s");
  res->Add("hmm.estep_frames_per_s", frames / estep, "frames/s");
  res->Add("hmm.loglik_eval_s", loglik, "s");
  res->Add("core.mstep_s", mstep, "s");
  res->Add("core.pg_iterations", static_cast<double>(pg_iterations), "count");
  res->Add("dpp.logdet_s", logdet, "s");
  res->Add("prob.emission_mstep_s", emission_mstep, "s");
  return model;
}

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_FIT_H_

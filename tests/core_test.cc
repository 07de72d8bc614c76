#include <cmath>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "core/dhmm_trainer.h"
#include "core/supervised_diversified.h"
#include "core/transition_update.h"
#include "dpp/logdet.h"
#include "eval/diversity.h"
#include "hmm/sampler.h"
#include "prob/categorical_emission.h"
#include "prob/rng.h"

namespace dhmm::core {
namespace {

// ------------------------------------------------------- TransitionUpdate ---

TEST(TransitionUpdateTest, AlphaZeroMatchesNormalizedCounts) {
  linalg::Matrix counts{{6.0, 2.0}, {1.0, 3.0}};
  linalg::Matrix init(2, 2, 0.5);
  TransitionUpdateOptions opts;
  opts.alpha = 0.0;
  TransitionUpdateResult r = UpdateTransitions(init, counts, opts);
  EXPECT_NEAR(r.a(0, 0), 0.75, 1e-9);
  EXPECT_NEAR(r.a(0, 1), 0.25, 1e-9);
  EXPECT_NEAR(r.a(1, 0), 0.25, 1e-9);
  EXPECT_NEAR(r.a(1, 1), 0.75, 1e-9);
  EXPECT_TRUE(r.converged);
}

TEST(TransitionUpdateTest, ResultIsRowStochastic) {
  prob::Rng rng(1);
  linalg::Matrix counts(4, 4);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 4; ++j) counts(i, j) = 1.0 + 10.0 * rng.Uniform();
  linalg::Matrix init = rng.RandomStochasticMatrix(4, 4, 2.0);
  TransitionUpdateOptions opts;
  opts.alpha = 2.0;
  TransitionUpdateResult r = UpdateTransitions(init, counts, opts);
  EXPECT_TRUE(r.a.IsRowStochastic(1e-8));
}

TEST(TransitionUpdateTest, ObjectiveImprovesOverStart) {
  prob::Rng rng(2);
  linalg::Matrix counts(3, 3);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j) counts(i, j) = 1.0 + 5.0 * rng.Uniform();
  linalg::Matrix init = rng.RandomStochasticMatrix(3, 3, 2.0);
  TransitionUpdateOptions opts;
  opts.alpha = 1.0;
  dpp::KernelWorkspace ws;
  double before = TransitionObjective(init, counts, opts, &ws);
  TransitionUpdateResult r = UpdateTransitions(init, counts, opts);
  EXPECT_GE(r.objective, before);
}

TEST(TransitionUpdateTest, DiversityIncreasesWithAlpha) {
  // Counts that favor near-identical rows; larger alpha must yield more
  // diverse transition rows (the paper's central mechanism).
  linalg::Matrix counts{{5.0, 5.0, 5.0}, {5.2, 4.9, 4.9}, {4.9, 5.2, 4.9}};
  prob::Rng rng(3);
  linalg::Matrix init = rng.RandomStochasticMatrix(3, 3, 5.0);
  double prev_div = -1.0;
  for (double alpha : {0.0, 2.0, 20.0}) {
    TransitionUpdateOptions opts;
    opts.alpha = alpha;
    TransitionUpdateResult r = UpdateTransitions(init, counts, opts);
    double div = eval::AveragePairwiseDiversity(r.a);
    EXPECT_GE(div, prev_div - 1e-9) << "alpha " << alpha;
    prev_div = div;
  }
}

TEST(TransitionUpdateTest, LogDetReportedMatchesMatrix) {
  prob::Rng rng(4);
  linalg::Matrix counts(3, 3, 2.0);
  linalg::Matrix init = rng.RandomStochasticMatrix(3, 3, 2.0);
  TransitionUpdateOptions opts;
  opts.alpha = 1.0;
  TransitionUpdateResult r = UpdateTransitions(init, counts, opts);
  EXPECT_EQ(r.log_det, dpp::LogDetNormalizedKernel(r.a, opts.rho));
}

TEST(TransitionUpdateTest, InfeasibleStartIsJittered) {
  // Identical rows: prior is -inf at the start; the update must still run.
  linalg::Matrix init(3, 3, 1.0 / 3.0);
  linalg::Matrix counts(3, 3, 1.0);
  TransitionUpdateOptions opts;
  opts.alpha = 1.0;
  TransitionUpdateResult r = UpdateTransitions(init, counts, opts);
  EXPECT_TRUE(std::isfinite(r.objective));
  EXPECT_TRUE(r.a.IsRowStochastic(1e-8));
}

TEST(TransitionUpdateTest, TetherPullsTowardA0) {
  prob::Rng rng(5);
  linalg::Matrix counts(3, 3, 1.0);
  linalg::Matrix a0 = rng.RandomStochasticMatrix(3, 3, 2.0);
  linalg::Matrix init = a0;

  TransitionUpdateOptions weak;
  weak.alpha = 5.0;
  weak.tether = &a0;
  weak.tether_weight = 0.1;
  TransitionUpdateResult r_weak = UpdateTransitions(init, counts, weak);

  TransitionUpdateOptions strong = weak;
  strong.tether_weight = 1e6;
  TransitionUpdateResult r_strong = UpdateTransitions(init, counts, strong);

  double drift_weak = std::sqrt(r_weak.a.squared_distance(a0));
  double drift_strong = std::sqrt(r_strong.a.squared_distance(a0));
  EXPECT_LE(drift_strong, drift_weak + 1e-9);
  EXPECT_LT(drift_strong, 0.05);
}

TEST(TransitionUpdateTest, ObjectiveFunctionValues) {
  linalg::Matrix a{{0.5, 0.5}, {0.2, 0.8}};
  linalg::Matrix counts{{2.0, 1.0}, {0.0, 4.0}};
  TransitionUpdateOptions opts;
  opts.alpha = 0.0;
  double expected = 2.0 * std::log(0.5) + std::log(0.5) + 4.0 * std::log(0.8);
  dpp::KernelWorkspace ws;
  EXPECT_NEAR(TransitionObjective(a, counts, opts, &ws), expected, 1e-12);
  // Zero probability where counts are positive -> -inf.
  linalg::Matrix zero_a{{1.0, 0.0}, {0.2, 0.8}};
  EXPECT_TRUE(std::isinf(TransitionObjective(zero_a, counts, opts, &ws)));
}

TEST(TransitionUpdateTest, ProjectFeasibleKeepsFlooredEntriesAboveFloor) {
  // One dominant entry: flooring the two zeros and then renormalizing the
  // whole row (the old behaviour) divides by 1.4 and drops the just-floored
  // entries to ~0.143 < 0.2. Only the un-floored mass may be rescaled.
  linalg::Matrix a{{1.0, 0.0, 0.0}};
  const double floor = 0.2;
  linalg::Vector scratch;
  ProjectFeasible(&a, floor, &scratch);
  EXPECT_NEAR(a(0, 0), 0.6, 1e-12);
  EXPECT_GE(a(0, 1), floor);
  EXPECT_GE(a(0, 2), floor);
  double sum = a(0, 0) + a(0, 1) + a(0, 2);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(TransitionUpdateTest, ProjectFeasibleIteratesCascadingFloors) {
  // Rescaling after the first floor pushes the middle entry below the floor
  // too; the fixed-point iteration must catch the cascade.
  linalg::Matrix a{{0.36, 0.33, 0.31}};
  const double floor = 0.325;
  linalg::Vector scratch;
  ProjectFeasible(&a, floor, &scratch);
  for (size_t c = 0; c < 3; ++c) EXPECT_GE(a(0, c), floor) << "col " << c;
  EXPECT_NEAR(a(0, 0) + a(0, 1) + a(0, 2), 1.0, 1e-12);
  EXPECT_NEAR(a(0, 0), 0.35, 1e-12);
}

TEST(TransitionUpdateTest, LargeAlphaYieldsNearOrthogonalRows) {
  linalg::Matrix counts(3, 3, 1.0);
  prob::Rng rng(6);
  linalg::Matrix init = rng.RandomStochasticMatrix(3, 3, 2.0);
  TransitionUpdateOptions opts;
  opts.alpha = 500.0;
  opts.ascent.max_iters = 600;
  TransitionUpdateResult r = UpdateTransitions(init, counts, opts);
  // With diversity dominating, log det K~ should approach 0 (identity
  // kernel).
  EXPECT_GT(r.log_det, -0.3);
}

// ----------------------------------------------------------- dHMM trainer ---

hmm::HmmModel<int> RandomModel(uint64_t seed, size_t k, size_t v) {
  prob::Rng rng(seed);
  return hmm::HmmModel<int>(
      rng.DirichletSymmetric(k, 3.0), rng.RandomStochasticMatrix(k, k, 3.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(k, v, rng)));
}

TEST(DiversifiedTrainerTest, MapObjectiveMonotone) {
  hmm::HmmModel<int> truth = RandomModel(10, 3, 8);
  prob::Rng rng(11);
  hmm::Dataset<int> data = hmm::SampleDataset(truth, 50, 10, rng);
  hmm::HmmModel<int> model = RandomModel(12, 3, 8);
  DiversifiedEmOptions opts;
  opts.alpha = 1.0;
  opts.max_iters = 15;
  opts.tol = 0.0;
  DiversifiedFitResult r = FitDiversifiedHmm(&model, data, opts);
  ASSERT_GE(r.map_objective_history.size(), 2u);
  for (size_t i = 1; i < r.map_objective_history.size(); ++i) {
    EXPECT_GE(r.map_objective_history[i],
              r.map_objective_history[i - 1] - 1e-6)
        << "MAP objective decreased at iteration " << i;
  }
}

TEST(DiversifiedTrainerTest, AlphaZeroTracksBaumWelch) {
  hmm::HmmModel<int> truth = RandomModel(13, 3, 8);
  prob::Rng rng(14);
  hmm::Dataset<int> data = hmm::SampleDataset(truth, 40, 8, rng);

  hmm::HmmModel<int> dhmm_model = RandomModel(15, 3, 8);
  hmm::HmmModel<int> bw_model = dhmm_model;  // identical start

  DiversifiedEmOptions opts;
  opts.alpha = 0.0;
  opts.max_iters = 8;
  opts.tol = 0.0;
  FitDiversifiedHmm(&dhmm_model, data, opts);

  hmm::EmOptions em;
  em.max_iters = 8;
  em.tol = 0.0;
  hmm::FitEm(&bw_model, data, em);

  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(dhmm_model.pi[i], bw_model.pi[i], 1e-9);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(dhmm_model.a(i, j), bw_model.a(i, j), 1e-9);
    }
  }
}

TEST(DiversifiedTrainerTest, DiversityExceedsBaumWelchOnAmbiguousData) {
  // Ambiguous emissions (every state can emit every symbol with similar
  // probability) collapse plain EM's transition rows; the prior must keep
  // them apart.
  prob::Rng rng(16);
  linalg::Matrix flat_b(3, 6);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t v = 0; v < 6; ++v) {
      flat_b(i, v) = 1.0 + 0.2 * rng.Uniform();
    }
  }
  flat_b.NormalizeRows();
  hmm::HmmModel<int> truth(
      rng.DirichletSymmetric(3, 3.0), rng.RandomStochasticMatrix(3, 3, 0.4),
      std::make_unique<prob::CategoricalEmission>(flat_b));
  hmm::Dataset<int> data = hmm::SampleDataset(truth, 60, 10, rng);

  hmm::HmmModel<int> base = RandomModel(17, 3, 6);
  hmm::HmmModel<int> diver = base;

  hmm::EmOptions em;
  em.max_iters = 30;
  hmm::FitEm(&base, data, em);

  DiversifiedEmOptions opts;
  opts.alpha = 5.0;
  opts.max_iters = 30;
  FitDiversifiedHmm(&diver, data, opts);

  EXPECT_GT(eval::AveragePairwiseDiversity(diver.a),
            eval::AveragePairwiseDiversity(base.a));
}

TEST(DiversifiedTrainerTest, ConvergenceCriterionAcceptsNegativeWobble) {
  // Regression for the convergence lockout: the inner ascent is inexact, so
  // at the plateau the MAP objective can land a hair *below* the previous
  // value (observed: alternating gains of +-1e-13 around -775). The old
  // criterion required gain >= 0 and never fired on the negative side.
  EXPECT_TRUE(MapObjectiveConverged(-775.0, -775.0 - 1e-12, 1e-6));
  EXPECT_TRUE(MapObjectiveConverged(-775.0, -775.0 + 1e-12, 1e-6));
  // Real movement in either direction is still not convergence.
  EXPECT_FALSE(MapObjectiveConverged(-775.0, -774.0, 1e-6));
  EXPECT_FALSE(MapObjectiveConverged(-775.0, -776.0, 1e-6));
  // Relative scaling: a 1e-4 step is convergence only against a large
  // objective magnitude.
  EXPECT_TRUE(MapObjectiveConverged(-1e4, -1e4 - 1e-4, 1e-6));
  EXPECT_FALSE(MapObjectiveConverged(-1.0, -1.0 - 1e-4, 1e-6));
}

TEST(DiversifiedTrainerTest, AlphaZeroObjectiveIsTheLogLikelihood) {
  // Identical emission rows leave the states indistinguishable, so the
  // update gives A two identical rows and log det K~_A = -inf. At
  // alpha = 0 the objective must still be the log-likelihood, bitwise —
  // not 0 * -inf = NaN.
  const linalg::Matrix b{{0.2, 0.3, 0.5}, {0.2, 0.3, 0.5}};
  auto make = [&b](const linalg::Matrix& a) {
    return hmm::HmmModel<int>(linalg::Vector{0.5, 0.5}, a,
                              std::make_unique<prob::CategoricalEmission>(b));
  };
  const linalg::Matrix tied{{0.6, 0.4}, {0.6, 0.4}};
  prob::Rng rng(5);
  const hmm::Dataset<int> data = hmm::SampleDataset(make(tied), 20, 8, rng);
  for (const linalg::Matrix& a0 : {tied, linalg::Matrix(2, 2, 0.5)}) {
    hmm::HmmModel<int> model = make(a0);
    DiversifiedEmOptions opts;
    opts.alpha = 0.0;
    opts.max_iters = 6;
    const DiversifiedFitResult r = FitDiversifiedHmm(&model, data, opts);
    ASSERT_EQ(r.map_objective_history.size(), r.loglik_history.size());
    for (size_t i = 0; i < r.loglik_history.size(); ++i) {
      EXPECT_EQ(std::memcmp(&r.map_objective_history[i], &r.loglik_history[i],
                            sizeof(double)),
                0)
          << i << ": " << r.map_objective_history[i];
    }
    EXPECT_EQ(std::memcmp(&r.final_map_objective, &r.loglik_history.back(),
                          sizeof(double)),
              0);
  }
}

TEST(DiversifiedTrainerTest, RefitFromConvergedModelStopsImmediately) {
  // End-to-end: a model already at its MAP fixed point must converge in the
  // first couple of outer iterations instead of burning the whole budget.
  hmm::HmmModel<int> truth = RandomModel(50, 3, 8);
  prob::Rng rng(51);
  hmm::Dataset<int> data = hmm::SampleDataset(truth, 40, 10, rng);
  hmm::HmmModel<int> model = RandomModel(52, 3, 8);
  DiversifiedEmOptions opts;
  opts.alpha = 1.0;
  opts.max_iters = 250;
  opts.tol = 0.0;
  FitDiversifiedHmm(&model, data, opts);

  opts.max_iters = 20;
  opts.tol = 1e-6;
  DiversifiedFitResult r = FitDiversifiedHmm(&model, data, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3);
}

TEST(DiversifiedTrainerTest, ReportsFinalDiagnostics) {
  hmm::HmmModel<int> truth = RandomModel(18, 2, 5);
  prob::Rng rng(19);
  hmm::Dataset<int> data = hmm::SampleDataset(truth, 20, 6, rng);
  hmm::HmmModel<int> model = RandomModel(20, 2, 5);
  DiversifiedEmOptions opts;
  opts.alpha = 0.5;
  opts.max_iters = 5;
  DiversifiedFitResult r = FitDiversifiedHmm(&model, data, opts);
  EXPECT_EQ(static_cast<size_t>(r.iterations),
            r.map_objective_history.size());
  EXPECT_EQ(r.final_log_det, dpp::LogDetNormalizedKernel(model.a, opts.rho));
  EXPECT_TRUE(std::isfinite(r.final_map_objective));
}

// ------------------------------------------------- SupervisedDiversified ---

hmm::Dataset<int> LabeledData(uint64_t seed, size_t k, size_t v, size_t n,
                              size_t len) {
  hmm::HmmModel<int> truth = RandomModel(seed, k, v);
  prob::Rng rng(seed + 1);
  return hmm::SampleDataset(truth, n, len, rng);
}

std::unique_ptr<prob::EmissionModel<int>> UniformCategorical(size_t k,
                                                             size_t v) {
  return std::make_unique<prob::CategoricalEmission>(
      linalg::Matrix(k, v, 1.0 / static_cast<double>(v)), 0.1);
}

TEST(SupervisedDiversifiedTest, AlphaZeroKeepsCountEstimate) {
  hmm::Dataset<int> data = LabeledData(30, 3, 6, 50, 12);
  SupervisedDiversifiedOptions opts;
  opts.alpha = 0.0;
  SupervisedDiversifiedDiagnostics diag;
  hmm::HmmModel<int> m =
      FitSupervisedDiversified(data, 3, UniformCategorical(3, 6), opts, &diag);
  EXPECT_NEAR(std::sqrt(m.a.squared_distance(diag.a0)), 0.0, 1e-12);
}

TEST(SupervisedDiversifiedTest, DiversityImprovesOverCounts) {
  hmm::Dataset<int> data = LabeledData(31, 4, 6, 60, 12);
  SupervisedDiversifiedOptions opts;
  opts.alpha = 5.0;
  opts.tether_weight = 10.0;
  SupervisedDiversifiedDiagnostics diag;
  hmm::HmmModel<int> m =
      FitSupervisedDiversified(data, 4, UniformCategorical(4, 6), opts, &diag);
  EXPECT_GE(diag.log_det_a, diag.log_det_a0 - 1e-9);
  EXPECT_TRUE(m.a.IsRowStochastic(1e-8));
}

TEST(SupervisedDiversifiedTest, StrongTetherBoundsDrift) {
  hmm::Dataset<int> data = LabeledData(32, 3, 6, 50, 10);
  SupervisedDiversifiedOptions opts;
  opts.alpha = 10.0;
  opts.tether_weight = 1e5;  // the paper's OCR setting
  SupervisedDiversifiedDiagnostics diag;
  FitSupervisedDiversified(data, 3, UniformCategorical(3, 6), opts, &diag);
  EXPECT_LT(diag.drift, 0.05);
}

TEST(SupervisedDiversifiedTest, PreservesPiAndEmissionFromCounting) {
  hmm::Dataset<int> data = LabeledData(33, 3, 6, 40, 8);
  SupervisedDiversifiedOptions with_prior;
  with_prior.alpha = 5.0;
  with_prior.tether_weight = 100.0;
  hmm::HmmModel<int> m1 = FitSupervisedDiversified(
      data, 3, UniformCategorical(3, 6), with_prior);

  SupervisedDiversifiedOptions no_prior;
  no_prior.alpha = 0.0;
  hmm::HmmModel<int> m0 = FitSupervisedDiversified(
      data, 3, UniformCategorical(3, 6), no_prior);

  // Only the transition matrix is refined; pi must match.
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(m1.pi[i], m0.pi[i], 1e-12);
}

}  // namespace
}  // namespace dhmm::core

// The M-step workspace contract (the PR-3 counterpart of engine_test.cc):
//  - the second UpdateTransitions call at a fixed k performs zero heap
//    allocations (alloc_counter.h counts every operator new),
//  - the fused LogDetAndGrad entry point agrees with the separate
//    log-det / gradient entry points to 1e-12,
//  - workspace reuse across state counts never changes results,
//  - BatchMStepDriver fan-outs (SelectStateCount, crossval folds) are
//    bitwise identical for every thread count.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/batch_mstep.h"
#include "core/state_selection.h"
#include "core/transition_update.h"
#include "dpp/logdet.h"
#include "eval/crossval.h"
#include "hmm/sampler.h"
#include "optim/simplex_projection.h"
#include "prob/categorical_emission.h"
#include "prob/rng.h"

namespace dhmm {
namespace {

linalg::Matrix RandomCounts(size_t k, uint64_t seed) {
  prob::Rng rng(seed);
  linalg::Matrix counts(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) counts(i, j) = 1.0 + 20.0 * rng.Uniform();
  }
  return counts;
}

// ------------------------------------------------------- allocation-free ---

TEST(MStepWorkspaceTest, SecondUpdateAtFixedKAllocatesNothing) {
  const size_t k = 12;
  prob::Rng rng(1);
  linalg::Matrix counts = RandomCounts(k, 2);
  linalg::Matrix init = rng.RandomStochasticMatrix(k, k, 2.0);
  core::TransitionUpdateOptions opts;
  opts.alpha = 2.0;

  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult result;
  // First call grows every buffer to its steady-state size.
  core::UpdateTransitions(init, counts, opts, &ws, &result);

  const long before = alloc_counter::Count();
  core::UpdateTransitions(init, counts, opts, &ws, &result);
  const long after = alloc_counter::Count();
  EXPECT_EQ(after - before, 0)
      << "steady-state M-step made " << (after - before)
      << " heap allocations";
  EXPECT_TRUE(result.a.IsRowStochastic(1e-8));
}

TEST(MStepWorkspaceTest, TetheredUpdateIsAlsoAllocationFree) {
  const size_t k = 8;
  prob::Rng rng(3);
  linalg::Matrix counts = RandomCounts(k, 4);
  linalg::Matrix a0 = rng.RandomStochasticMatrix(k, k, 2.0);
  core::TransitionUpdateOptions opts;
  opts.alpha = 5.0;
  opts.tether = &a0;
  opts.tether_weight = 10.0;

  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult result;
  core::UpdateTransitions(a0, counts, opts, &ws, &result);

  const long before = alloc_counter::Count();
  core::UpdateTransitions(a0, counts, opts, &ws, &result);
  const long after = alloc_counter::Count();
  EXPECT_EQ(after - before, 0);
}

// ------------------------------------------------------ fused equivalence ---

TEST(FusedLogDetTest, MatchesSeparateEntryPoints) {
  for (size_t k : {3u, 8u, 20u}) {
    for (double rho : {0.5, 0.7}) {
      prob::Rng rng(10 + k);
      linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 2.0);

      double ld_separate = dpp::LogDetNormalizedKernel(a, rho);
      linalg::Matrix grad_separate;
      ASSERT_TRUE(dpp::GradLogDetNormalizedKernel(a, rho, &grad_separate));

      dpp::KernelWorkspace ws;
      double ld_fused = 0.0;
      linalg::Matrix grad_fused;
      ASSERT_TRUE(dpp::LogDetAndGrad(a, rho, &ws, &ld_fused, &grad_fused));

      EXPECT_EQ(ld_fused, ld_separate) << "k=" << k << " rho=" << rho;
      EXPECT_EQ(grad_fused, grad_separate) << "k=" << k << " rho=" << rho;
    }
  }
}

TEST(FusedLogDetTest, WorkspaceLogDetMatchesAllocatingOverload) {
  for (size_t k : {2u, 6u, 15u}) {
    prob::Rng rng(20 + k);
    linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
    dpp::KernelWorkspace ws;
    double plain = dpp::LogDetNormalizedKernel(a, 0.5);
    double with_ws = dpp::LogDetNormalizedKernel(a, 0.5, &ws);
    EXPECT_EQ(with_ws, plain) << "k=" << k;
  }
}

TEST(FusedLogDetTest, SingularKernelReportedByBothPaths) {
  linalg::Matrix collapsed(3, 3, 1.0 / 3.0);  // identical rows
  dpp::KernelWorkspace ws;
  EXPECT_TRUE(std::isinf(dpp::LogDetNormalizedKernel(collapsed, 0.5, &ws)));
  double ld = 0.0;
  linalg::Matrix grad;
  EXPECT_FALSE(dpp::LogDetAndGrad(collapsed, 0.5, &ws, &ld, &grad));
  EXPECT_TRUE(std::isinf(ld));
}

// --------------------------------------------------------- workspace reuse ---

TEST(MStepWorkspaceTest, DirtyWorkspaceGivesIdenticalResults) {
  core::TransitionUpdateOptions opts;
  opts.alpha = 1.5;

  prob::Rng rng(30);
  linalg::Matrix counts5 = RandomCounts(5, 31);
  linalg::Matrix init5 = rng.RandomStochasticMatrix(5, 5, 2.0);
  linalg::Matrix counts9 = RandomCounts(9, 32);
  linalg::Matrix init9 = rng.RandomStochasticMatrix(9, 9, 2.0);

  core::TransitionUpdateResult fresh;
  {
    core::TransitionUpdateWorkspace ws;
    core::UpdateTransitions(init5, counts5, opts, &ws, &fresh);
  }

  // Same k=5 update through a workspace that has visited k=9 in between.
  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult reused;
  core::UpdateTransitions(init5, counts5, opts, &ws, &reused);
  core::UpdateTransitions(init9, counts9, opts, &ws, &reused);
  core::UpdateTransitions(init5, counts5, opts, &ws, &reused);

  EXPECT_TRUE(reused.a == fresh.a);
  EXPECT_EQ(reused.objective, fresh.objective);
  EXPECT_EQ(reused.log_det, fresh.log_det);
  EXPECT_EQ(reused.iterations, fresh.iterations);
}

TEST(MStepWorkspaceTest, ConvenienceOverloadMatchesWorkspacePath) {
  prob::Rng rng(40);
  linalg::Matrix counts = RandomCounts(6, 41);
  linalg::Matrix init = rng.RandomStochasticMatrix(6, 6, 2.0);
  core::TransitionUpdateOptions opts;
  opts.alpha = 3.0;

  core::TransitionUpdateResult legacy =
      core::UpdateTransitions(init, counts, opts);
  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult with_ws;
  core::UpdateTransitions(init, counts, opts, &ws, &with_ws);
  EXPECT_TRUE(legacy.a == with_ws.a);
  EXPECT_EQ(legacy.objective, with_ws.objective);
}

// --------------------------------------------- simplex-projection overloads --

TEST(ProjectedGradientWorkspaceTest, ScratchSimplexProjectionIsBitwise) {
  prob::Rng rng(60);
  linalg::Matrix m(4, 7);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 7; ++j) m(i, j) = 2.0 * rng.Uniform() - 0.5;
  }
  linalg::Matrix plain = m;
  optim::ProjectRowsToSimplex(&plain);
  linalg::Matrix scratched = m;
  linalg::Vector scratch;
  optim::ProjectRowsToSimplex(&scratched, &scratch);
  EXPECT_TRUE(plain == scratched);
}

// ------------------------------------------------------ driver determinism ---

TEST(BatchMStepDriverTest, UnitResultsAreThreadCountInvariant) {
  const size_t num_units = 10;
  core::TransitionUpdateOptions opts;
  opts.alpha = 1.0;

  auto run = [&](int num_threads) {
    std::vector<double> objectives(num_units);
    core::BatchMStepDriver driver(core::BatchMStepOptions{num_threads});
    driver.Run(num_units, [&](core::TransitionUpdateWorkspace& ws,
                              size_t unit) {
      const size_t k = 4 + unit % 3;  // exercise workspace regrowth
      prob::Rng rng(100 + unit);
      linalg::Matrix counts = RandomCounts(k, 200 + unit);
      linalg::Matrix init = rng.RandomStochasticMatrix(k, k, 2.0);
      core::TransitionUpdateResult r;
      core::UpdateTransitions(init, counts, opts, &ws, &r);
      objectives[unit] = r.objective;
    });
    return objectives;
  };

  std::vector<double> one = run(1);
  for (int threads : {2, 4}) {
    std::vector<double> many = run(threads);
    ASSERT_EQ(many.size(), one.size());
    for (size_t u = 0; u < num_units; ++u) {
      EXPECT_EQ(many[u], one[u]) << "unit " << u << " with " << threads
                                 << " threads";
    }
  }
}

TEST(BatchMStepDriverTest, ReduceRunsInAscendingUnitOrder) {
  core::BatchMStepDriver driver(core::BatchMStepOptions{4});
  std::vector<size_t> reduce_order;
  driver.Run(
      8, [](core::TransitionUpdateWorkspace&, size_t) {},
      [&](size_t unit) { reduce_order.push_back(unit); });
  ASSERT_EQ(reduce_order.size(), 8u);
  for (size_t u = 0; u < reduce_order.size(); ++u) {
    EXPECT_EQ(reduce_order[u], u);
  }
}

hmm::Dataset<int> SmallCategoricalData(uint64_t seed) {
  prob::Rng rng(seed);
  hmm::HmmModel<int> truth(
      rng.DirichletSymmetric(3, 2.0), rng.RandomStochasticMatrix(3, 3, 0.8),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(3, 6, rng)));
  prob::Rng data_rng(seed + 1);
  return hmm::SampleDataset(truth, 20, 8, data_rng);
}

TEST(StateSelectionParallelTest, SweepIsBitwiseIdenticalAcrossThreadCounts) {
  hmm::Dataset<int> data = SmallCategoricalData(300);
  core::ModelFactory<int> factory = [](size_t k, prob::Rng& rng) {
    return hmm::HmmModel<int>(
        rng.DirichletSymmetric(k, 2.0),
        rng.RandomStochasticMatrix(k, k, 2.0),
        std::make_unique<prob::CategoricalEmission>(
            prob::CategoricalEmission::RandomInit(k, 6, rng)));
  };

  auto run = [&](int num_threads) {
    core::StateSelectionOptions opts;
    opts.min_states = 2;
    opts.max_states = 4;
    opts.alpha = 1.0;  // exercise the diversified fit path
    opts.em_iters = 4;
    opts.restarts = 2;
    opts.num_threads = num_threads;
    return core::SelectStateCount(data, factory, 6.0, opts);
  };

  core::StateSelectionResult one = run(1);
  for (int threads : {2, 4}) {
    core::StateSelectionResult many = run(threads);
    EXPECT_EQ(many.best_k, one.best_k);
    ASSERT_EQ(many.candidates.size(), one.candidates.size());
    for (size_t c = 0; c < one.candidates.size(); ++c) {
      EXPECT_EQ(many.candidates[c].log_likelihood,
                one.candidates[c].log_likelihood)
          << "k=" << one.candidates[c].k << " threads=" << threads;
      EXPECT_EQ(many.candidates[c].score, one.candidates[c].score);
    }
  }
}

TEST(EvaluateFoldsTest, FoldScoresAreThreadCountInvariant) {
  auto run = [&](int num_threads) {
    core::BatchMStepDriver driver(core::BatchMStepOptions{num_threads});
    return eval::EvaluateFolds(
        &driver, 7, [](size_t fold, core::TransitionUpdateWorkspace& ws) {
          // Real M-step work per fold so worker workspaces matter.
          const size_t k = 3 + fold % 2;
          prob::Rng rng(500 + fold);
          linalg::Matrix counts(k, k);
          for (size_t i = 0; i < k; ++i) {
            for (size_t j = 0; j < k; ++j) {
              counts(i, j) = 1.0 + 5.0 * rng.Uniform();
            }
          }
          core::TransitionUpdateOptions opts;
          opts.alpha = 2.0;
          core::TransitionUpdateResult r;
          core::UpdateTransitions(rng.RandomStochasticMatrix(k, k, 2.0),
                                  counts, opts, &ws, &r);
          return r.log_det;
        });
  };

  std::vector<double> one = run(1);
  ASSERT_EQ(one.size(), 7u);
  for (int threads : {2, 4}) {
    std::vector<double> many = run(threads);
    ASSERT_EQ(many.size(), one.size());
    for (size_t f = 0; f < one.size(); ++f) {
      EXPECT_EQ(many[f], one[f]) << "fold " << f;
    }
  }
}

}  // namespace
}  // namespace dhmm

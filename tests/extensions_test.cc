// Tests for the extension modules: Dirichlet-MAP transition priors,
// posterior decoding, and state-count selection.
#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "checked_inference.h"
#include "core/dirichlet_prior.h"
#include "core/state_selection.h"
#include "data/toy.h"
#include "eval/metrics.h"
#include "hmm/posterior_decoding.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"

namespace dhmm {
namespace {

// --------------------------------------------------------- DirichletPrior ---

TEST(DirichletPriorTest, BetaOneIsMaximumLikelihood) {
  linalg::Matrix counts{{6.0, 2.0}, {1.0, 3.0}};
  linalg::Matrix a = core::DirichletMapTransitions(counts, 1.0);
  EXPECT_NEAR(a(0, 0), 0.75, 1e-12);
  EXPECT_NEAR(a(1, 1), 0.75, 1e-12);
}

TEST(DirichletPriorTest, LargeBetaSmoothsTowardUniform) {
  linalg::Matrix counts{{6.0, 2.0}};
  linalg::Matrix mild = core::DirichletMapTransitions(counts, 2.0);
  linalg::Matrix heavy = core::DirichletMapTransitions(counts, 100.0);
  // Heavier smoothing moves the dominant entry closer to 0.5.
  EXPECT_LT(heavy(0, 0), mild(0, 0));
  EXPECT_LT(mild(0, 0), 0.75);
  EXPECT_NEAR(heavy(0, 0), 0.5, 0.05);
}

TEST(DirichletPriorTest, SparseBetaZeroesSmallCounts) {
  linalg::Matrix counts{{5.0, 0.3, 0.2}};
  linalg::Matrix a = core::DirichletMapTransitions(counts, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
}

TEST(DirichletPriorTest, AllClippedRowFallsBackToMl) {
  linalg::Matrix counts{{0.1, 0.2}};
  linalg::Matrix a = core::DirichletMapTransitions(counts, 0.5);
  EXPECT_NEAR(a(0, 0), 0.1 / 0.3, 1e-12);
  EXPECT_NEAR(a(0, 1), 0.2 / 0.3, 1e-12);
}

TEST(DirichletPriorTest, OutputAlwaysRowStochastic) {
  prob::Rng rng(1);
  for (double beta : {0.3, 0.9, 1.0, 3.0, 30.0}) {
    linalg::Matrix counts(4, 4);
    for (size_t i = 0; i < 4; ++i)
      for (size_t j = 0; j < 4; ++j) counts(i, j) = 3.0 * rng.Uniform();
    linalg::Matrix a = core::DirichletMapTransitions(counts, beta);
    EXPECT_TRUE(a.IsRowStochastic(1e-9)) << "beta " << beta;
  }
}

TEST(DirichletPriorTest, MStepCallbackPluggedIntoEm) {
  prob::Rng rng(2);
  hmm::HmmModel<int> truth(
      rng.DirichletSymmetric(3, 2.0), rng.RandomStochasticMatrix(3, 3, 0.5),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(3, 6, rng)));
  hmm::Dataset<int> data = hmm::SampleDataset(truth, 40, 10, rng);
  hmm::HmmModel<int> model(
      rng.DirichletSymmetric(3, 2.0), rng.RandomStochasticMatrix(3, 3, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(3, 6, rng)));
  hmm::EmOptions em;
  em.max_iters = 10;
  em.transition_m_step = core::MakeDirichletMStep(5.0);
  hmm::FitEm(&model, data, em);
  EXPECT_TRUE(model.a.IsRowStochastic(1e-8));
  // Smoothing keeps every transition strictly positive.
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j) EXPECT_GT(model.a(i, j), 0.0);
}

// ------------------------------------------------------ PosteriorDecoding ---

TEST(PosteriorDecodingTest, MatchesGammaArgmax) {
  prob::Rng rng(3);
  linalg::Vector pi = rng.DirichletSymmetric(3, 1.5);
  linalg::Matrix a = rng.RandomStochasticMatrix(3, 3, 1.5);
  linalg::Matrix log_b(10, 3);
  for (size_t t = 0; t < 10; ++t)
    for (size_t i = 0; i < 3; ++i) log_b(t, i) = -3.0 * rng.Uniform();
  std::vector<int> path = checked::PosteriorDecode(pi, a, log_b);
  hmm::ForwardBackwardResult fb = checked::ForwardBackward(pi, a, log_b);
  for (size_t t = 0; t < 10; ++t) {
    const double* g = fb.gamma.row_data(t);
    EXPECT_EQ(path[t], static_cast<int>(std::max_element(g, g + 3) - g));
  }
}

TEST(PosteriorDecodingTest, AgreesWithViterbiOnEasyChains) {
  // Near-deterministic emissions: both decoders recover the truth.
  linalg::Matrix b{{0.98, 0.01, 0.01}, {0.01, 0.98, 0.01}, {0.01, 0.01, 0.98}};
  prob::Rng rng(4);
  hmm::HmmModel<int> m(linalg::Vector(3, 1.0 / 3),
                       rng.RandomStochasticMatrix(3, 3, 5.0),
                       std::make_unique<prob::CategoricalEmission>(b));
  hmm::Dataset<int> data = hmm::SampleDataset(m, 20, 12, rng);
  auto posterior = hmm::PosteriorDecodeDataset(m, data);
  auto viterbi = hmm::DecodeDataset(m, data);
  size_t agree = 0, total = 0;
  for (size_t s = 0; s < data.size(); ++s) {
    for (size_t t = 0; t < data[s].length(); ++t) {
      agree += posterior[s][t] == viterbi[s][t];
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.95);
}

TEST(PosteriorDecodingTest, OptimizesFrameAccuracyOnAverage) {
  // On ambiguous chains posterior decoding's expected frame accuracy >=
  // Viterbi's (it is the Bayes decoder for that loss). Check across seeds.
  double post_total = 0.0, vit_total = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    prob::Rng rng(100 + seed);
    hmm::HmmModel<int> m(
        rng.DirichletSymmetric(3, 1.0), rng.RandomStochasticMatrix(3, 3, 0.7),
        std::make_unique<prob::CategoricalEmission>(
            prob::CategoricalEmission::RandomInit(3, 4, rng)));
    hmm::Dataset<int> data = hmm::SampleDataset(m, 60, 15, rng);
    eval::LabelSequences gold;
    for (const auto& s : data) gold.push_back(s.labels);
    post_total +=
        eval::FrameAccuracy(hmm::PosteriorDecodeDataset(m, data), gold);
    vit_total += eval::FrameAccuracy(hmm::DecodeDataset(m, data), gold);
  }
  EXPECT_GE(post_total, vit_total - 0.01);
}

// -------------------------------------------------------- StateSelection ---

TEST(StateSelectionTest, FreeParameterCount) {
  // k=3, 2 emission params/state: 2 + 6 + 6 = 14.
  EXPECT_DOUBLE_EQ(core::FreeParameterCount(3, 2.0), 14.0);
  EXPECT_DOUBLE_EQ(core::FreeParameterCount(2, 1.0), 1.0 + 2.0 + 2.0);
}

TEST(StateSelectionTest, RecoversTrueStateCount) {
  prob::Rng data_rng(5);
  // Well-separated 3-state Gaussian HMM.
  hmm::HmmModel<double> truth(
      linalg::Vector{0.3, 0.4, 0.3},
      linalg::Matrix{{0.7, 0.2, 0.1}, {0.1, 0.7, 0.2}, {0.2, 0.1, 0.7}},
      std::make_unique<prob::GaussianEmission>(
          linalg::Vector{0.0, 5.0, 10.0}, linalg::Vector{0.5, 0.5, 0.5}));
  hmm::Dataset<double> data = hmm::SampleDataset(truth, 80, 12, data_rng);

  core::ModelFactory<double> factory = [](size_t k, prob::Rng& rng) {
    return hmm::HmmModel<double>(
        rng.DirichletSymmetric(k, 3.0), rng.RandomStochasticMatrix(k, k, 3.0),
        std::make_unique<prob::GaussianEmission>(
            prob::GaussianEmission::RandomInit(k, rng, 5.0, 4.0)));
  };
  core::StateSelectionOptions opts;
  opts.min_states = 2;
  opts.max_states = 5;
  opts.em_iters = 30;
  opts.restarts = 2;
  core::StateSelectionResult result =
      core::SelectStateCount(data, factory, 2.0, opts);
  EXPECT_EQ(result.best_k, 3u);
  ASSERT_EQ(result.candidates.size(), 4u);
  // Log-likelihood is monotone non-decreasing in k (up to local optima).
  EXPECT_GT(result.candidates[1].log_likelihood,
            result.candidates[0].log_likelihood);
}

TEST(StateSelectionTest, AicAndBicDifferOnlyInPenalty) {
  prob::Rng data_rng(6);
  hmm::HmmModel<double> truth(
      linalg::Vector{0.5, 0.5}, linalg::Matrix{{0.8, 0.2}, {0.3, 0.7}},
      std::make_unique<prob::GaussianEmission>(linalg::Vector{0.0, 4.0},
                                               linalg::Vector{0.5, 0.5}));
  hmm::Dataset<double> data = hmm::SampleDataset(truth, 40, 10, data_rng);
  core::ModelFactory<double> factory = [](size_t k, prob::Rng& rng) {
    return hmm::HmmModel<double>(
        rng.DirichletSymmetric(k, 3.0), rng.RandomStochasticMatrix(k, k, 3.0),
        std::make_unique<prob::GaussianEmission>(
            prob::GaussianEmission::RandomInit(k, rng, 2.0, 2.0)));
  };
  core::StateSelectionOptions opts;
  opts.min_states = 2;
  opts.max_states = 3;
  opts.em_iters = 20;
  opts.restarts = 1;
  opts.criterion = core::SelectionCriterion::kBic;
  auto bic = core::SelectStateCount(data, factory, 2.0, opts);
  opts.criterion = core::SelectionCriterion::kAic;
  auto aic = core::SelectStateCount(data, factory, 2.0, opts);
  // Same fits (same seeds), different penalties.
  for (size_t i = 0; i < bic.candidates.size(); ++i) {
    EXPECT_NEAR(bic.candidates[i].log_likelihood,
                aic.candidates[i].log_likelihood, 1e-9);
    double n = static_cast<double>(hmm::TotalFrames(data));
    double expected_gap = bic.candidates[i].num_parameters * std::log(n) -
                          2.0 * bic.candidates[i].num_parameters;
    EXPECT_NEAR(bic.candidates[i].score - aic.candidates[i].score,
                expected_gap, 1e-9);
  }
}

}  // namespace
}  // namespace dhmm

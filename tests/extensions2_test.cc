// Tests for the second extension wave: chain diagnostics and the
// Gaussian-mixture emission family.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "hmm/diagnostics.h"
#include "hmm/model.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"
#include "prob/gmm_emission.h"
#include "prob/rng.h"

namespace dhmm {
namespace {

// ------------------------------------------------------------ Diagnostics ---

TEST(DiagnosticsTest, StationaryOfSymmetricChainIsUniform) {
  linalg::Matrix a{{0.5, 0.3, 0.2}, {0.2, 0.5, 0.3}, {0.3, 0.2, 0.5}};
  // Doubly stochastic: stationary distribution is uniform.
  auto r = hmm::StationaryDistribution(a);
  ASSERT_TRUE(r.ok());
  const linalg::Vector& pi = r.value();
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(pi[i], 1.0 / 3.0, 1e-8);
}

TEST(DiagnosticsTest, StationarySatisfiesFixedPoint) {
  prob::Rng rng(8);
  linalg::Matrix a = rng.RandomStochasticMatrix(6, 6, 1.2);
  auto r = hmm::StationaryDistribution(a);
  ASSERT_TRUE(r.ok());
  const linalg::Vector& pi = r.value();
  // pi A = pi.
  for (size_t j = 0; j < 6; ++j) {
    double s = 0.0;
    for (size_t i = 0; i < 6; ++i) s += pi[i] * a(i, j);
    EXPECT_NEAR(s, pi[j], 1e-6);
  }
}

TEST(DiagnosticsTest, StationaryMatchesEmpiricalVisitFrequencies) {
  prob::Rng rng(9);
  linalg::Matrix a{{0.9, 0.1}, {0.3, 0.7}};
  auto r = hmm::StationaryDistribution(a);
  ASSERT_TRUE(r.ok());
  const linalg::Vector& pi = r.value();
  // Analytic: pi = (0.75, 0.25); the damping term biases by O(damping).
  EXPECT_NEAR(pi[0], 0.75, 1e-7);
  EXPECT_NEAR(pi[1], 0.25, 1e-7);
}

TEST(DiagnosticsTest, EntropyBasics) {
  EXPECT_NEAR(hmm::Entropy(linalg::Vector{1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(hmm::Entropy(linalg::Vector{0.5, 0.5}), std::log(2.0), 1e-12);
}

TEST(DiagnosticsTest, EntropyRateBounds) {
  prob::Rng rng(10);
  linalg::Matrix a = rng.RandomStochasticMatrix(4, 4, 1.0);
  auto h = hmm::EntropyRate(a);
  ASSERT_TRUE(h.ok());
  EXPECT_GE(h.value(), 0.0);
  EXPECT_LE(h.value(), std::log(4.0) + 1e-12);
  // Deterministic cycle has zero entropy rate.
  linalg::Matrix cycle{{0.0, 1.0}, {1.0, 0.0}};
  auto hc = hmm::EntropyRate(cycle);
  ASSERT_TRUE(hc.ok());
  EXPECT_NEAR(hc.value(), 0.0, 1e-6);
}

TEST(DiagnosticsTest, CollapseGapZeroForStaticMixture) {
  // All rows identical -> gap 0 (the paper's degenerate case).
  linalg::Matrix collapsed(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    collapsed(i, 0) = 0.2;
    collapsed(i, 1) = 0.5;
    collapsed(i, 2) = 0.3;
  }
  auto gap = hmm::MixtureCollapseGap(collapsed);
  ASSERT_TRUE(gap.ok());
  EXPECT_NEAR(gap.value(), 0.0, 1e-6);
  // A strongly state-dependent chain has a large gap.
  linalg::Matrix peaked{{0.98, 0.01, 0.01},
                        {0.01, 0.98, 0.01},
                        {0.01, 0.01, 0.98}};
  auto peaked_gap = hmm::MixtureCollapseGap(peaked);
  ASSERT_TRUE(peaked_gap.ok());
  EXPECT_GT(peaked_gap.value(), 0.5);
}

// ------------------------------------------------------------ GmmEmission ---

TEST(GmmEmissionTest, SingleComponentMatchesGaussian) {
  prob::GmmEmission gmm(linalg::Matrix(1, 1, 1.0), linalg::Matrix{{2.0}},
                        linalg::Matrix{{0.5}});
  // Compare against the closed-form normal density.
  double z = (3.0 - 2.0) / 0.5;
  double expected = -0.5 * z * z - std::log(0.5) -
                    0.5 * std::log(2.0 * M_PI);
  double row = 0.0;
  gmm.LogProbRow(3.0, &row);
  EXPECT_NEAR(row, expected, 1e-12);
}

TEST(GmmEmissionTest, MixtureDensityIsWeightedSum) {
  prob::GmmEmission gmm(linalg::Matrix{{0.3, 0.7}},
                        linalg::Matrix{{0.0, 4.0}},
                        linalg::Matrix{{1.0, 1.0}});
  double d0 = std::exp(-0.5 * 1.0) / std::sqrt(2.0 * M_PI);   // N(1;0,1)
  double d1 = std::exp(-0.5 * 9.0) / std::sqrt(2.0 * M_PI);   // N(1;4,1)
  double row = 0.0;
  gmm.LogProbRow(1.0, &row);
  EXPECT_NEAR(std::exp(row), 0.3 * d0 + 0.7 * d1, 1e-12);
}

TEST(GmmEmissionTest, EmSeparatesBimodalData) {
  // One state, two components; data from a clear 0/10 bimodal mixture.
  prob::GmmEmission gmm(linalg::Matrix(1, 2, 0.5),
                        linalg::Matrix{{2.0, 7.0}},
                        linalg::Matrix{{2.0, 2.0}});
  prob::Rng rng(11);
  for (int iter = 0; iter < 30; ++iter) {
    prob::Rng data_rng(100);  // same data each sweep
    gmm.BeginAccumulate();
    for (int n = 0; n < 2000; ++n) {
      double y = data_rng.Bernoulli(0.4) ? data_rng.Gaussian(0.0, 0.5)
                                         : data_rng.Gaussian(10.0, 0.5);
      gmm.Accumulate(y, linalg::Vector{1.0});
    }
    gmm.FinishAccumulate();
  }
  (void)rng;
  double lo = std::min(gmm.mu()(0, 0), gmm.mu()(0, 1));
  double hi = std::max(gmm.mu()(0, 0), gmm.mu()(0, 1));
  EXPECT_NEAR(lo, 0.0, 0.2);
  EXPECT_NEAR(hi, 10.0, 0.2);
  // Weight of the low component ~0.4.
  double w_lo = gmm.mu()(0, 0) < gmm.mu()(0, 1) ? gmm.weights()(0, 0)
                                                : gmm.weights()(0, 1);
  EXPECT_NEAR(w_lo, 0.4, 0.05);
}

TEST(GmmEmissionTest, SampleMomentsMatch) {
  prob::GmmEmission gmm(linalg::Matrix{{0.5, 0.5}},
                        linalg::Matrix{{-2.0, 2.0}},
                        linalg::Matrix{{0.5, 0.5}});
  prob::Rng rng(12);
  double sum = 0.0, sumsq = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    double y = gmm.Sample(0, rng);
    sum += y;
    sumsq += y * y;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  // Var = E[y^2] = 0.25 + 4 = 4.25.
  EXPECT_NEAR(sumsq / n, 4.25, 0.1);
}

TEST(GmmEmissionTest, WorksInsideHmmEm) {
  // Full-stack: HMM whose states have bimodal emissions; EM with the GMM
  // family must improve the likelihood and run to convergence.
  prob::Rng rng(13);
  hmm::HmmModel<double> truth(
      linalg::Vector{0.5, 0.5}, linalg::Matrix{{0.85, 0.15}, {0.2, 0.8}},
      std::make_unique<prob::GmmEmission>(
          linalg::Matrix{{0.5, 0.5}, {0.5, 0.5}},
          linalg::Matrix{{0.0, 3.0}, {8.0, 11.0}},
          linalg::Matrix{{0.4, 0.4}, {0.4, 0.4}}));
  hmm::Dataset<double> data = hmm::SampleDataset(truth, 120, 15, rng);

  // GMM-inside-HMM EM is init-sensitive; use a few restarts and keep the
  // best, as any practical pipeline would.
  double best_ll = -std::numeric_limits<double>::infinity();
  double best_gain = -std::numeric_limits<double>::infinity();
  for (uint64_t seed = 14; seed < 18; ++seed) {
    prob::Rng init_rng(seed);
    hmm::HmmModel<double> model(
        init_rng.DirichletSymmetric(2, 3.0),
        init_rng.RandomStochasticMatrix(2, 2, 3.0),
        std::make_unique<prob::GmmEmission>(
            prob::GmmEmission::RandomInit(2, 2, init_rng, 0.0, 11.0)));
    double before = hmm::DatasetLogLikelihood(model, data);
    hmm::EmOptions em;
    em.max_iters = 40;
    hmm::EmResult r = hmm::FitEm(&model, data, em);
    best_ll = std::max(best_ll, r.final_loglik);
    best_gain = std::max(best_gain, r.final_loglik - before);
  }
  EXPECT_GT(best_gain, 0.0);
  // The best restart's likelihood should approach the truth's.
  double truth_ll = hmm::DatasetLogLikelihood(truth, data);
  EXPECT_GT(best_ll, truth_ll - 0.05 * std::fabs(truth_ll));
}

}  // namespace
}  // namespace dhmm

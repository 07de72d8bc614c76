// Fidelity tests tying the implementation to the paper's equations, one by
// one. Each test names the equation or claim it certifies.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "checked_inference.h"
#include "core/transition_update.h"
#include "dpp/esp.h"
#include "dpp/logdet.h"
#include "dpp/product_kernel.h"
#include "hmm/inference.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"

namespace dhmm {
namespace {

// §1 intro claim: if all rows of A equal a vector a, the joint factorizes as
// P(X,Y) = P(x1|pi) prod_t P(x_t|a) P(y_t|x_t) — i.e. the HMM is a static
// mixture. Consequence: the marginal P(Y) equals a product of per-frame
// mixture densities with weights a (after the first frame, pi for the first).
TEST(PaperEquationsTest, IntroStaticMixtureFactorization) {
  prob::Rng rng(1);
  const size_t k = 3, v = 5, t_len = 6;
  linalg::Vector pi = rng.DirichletSymmetric(k, 1.5);
  linalg::Vector a_row = rng.DirichletSymmetric(k, 1.5);
  linalg::Matrix a(k, k);
  for (size_t i = 0; i < k; ++i) a.SetRow(i, a_row);
  prob::CategoricalEmission emission =
      prob::CategoricalEmission::RandomInit(k, v, rng);

  std::vector<int> obs;
  for (size_t t = 0; t < t_len; ++t) {
    obs.push_back(static_cast<int>(rng.UniformInt(v)));
  }
  linalg::Matrix log_b = checked::LogProbTable(emission, obs);
  double chain_ll = checked::LogLikelihood(pi, a, log_b);

  // Product of independent mixture densities.
  double product_ll = 0.0;
  for (size_t t = 0; t < t_len; ++t) {
    const linalg::Vector& weights = t == 0 ? pi : a_row;
    double frame = 0.0;
    for (size_t i = 0; i < k; ++i) {
      frame += weights[i] * std::exp(log_b(t, i));
    }
    product_ll += std::log(frame);
  }
  EXPECT_NEAR(chain_ll, product_ll, 1e-10);
}

// Eq. 5: the normalized correlation kernel entry for two explicit rows.
TEST(PaperEquationsTest, Eq5KernelEntryByHand) {
  linalg::Matrix a{{0.2, 0.3, 0.5}, {0.6, 0.1, 0.3}};
  const double rho = 0.5;
  double k01 = std::pow(0.2 * 0.6, rho) + std::pow(0.3 * 0.1, rho) +
               std::pow(0.5 * 0.3, rho);
  double k00 = std::pow(0.2 * 0.2, rho) + std::pow(0.3 * 0.3, rho) +
               std::pow(0.5 * 0.5, rho);
  double k11 = std::pow(0.6 * 0.6, rho) + std::pow(0.1 * 0.1, rho) +
               std::pow(0.3 * 0.3, rho);
  linalg::Matrix kernel = dpp::NormalizedKernel(a, rho);
  EXPECT_NEAR(kernel(0, 1), k01 / std::sqrt(k00 * k11), 1e-12);
  EXPECT_DOUBLE_EQ(kernel(0, 0), 1.0);
}

// Eq. 1: k-DPP normalization is the k-th elementary symmetric polynomial of
// the kernel eigenvalues (checked via the determinant expansion identity
// on 2x2 where e_2 = det and e_1 = trace).
TEST(PaperEquationsTest, Eq1KDppNormalizer) {
  linalg::Vector lambda{2.0, 3.0};
  linalg::Vector e = dpp::ElementarySymmetric(lambda, 2);
  EXPECT_DOUBLE_EQ(e[1], 5.0);  // trace
  EXPECT_DOUBLE_EQ(e[2], 6.0);  // determinant
}

// Paper's pi M-step: pi_i = sum_n q(X_n1 = i) / N. Verified by running one
// EM iteration and comparing against hand-accumulated posteriors.
TEST(PaperEquationsTest, PiUpdateIsAveragedFirstFramePosterior) {
  prob::Rng rng(2);
  const size_t k = 3;
  hmm::HmmModel<int> model(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(k, 6, rng)));
  hmm::Dataset<int> data = hmm::SampleDataset(model, 15, 7, rng);

  // Hand-accumulate gamma(0, .) under the *initial* parameters.
  linalg::Vector expected(k);
  for (const auto& seq : data) {
    auto fb = checked::ForwardBackward(
        model.pi, model.a, checked::LogProbTable(*model.emission, seq.obs));
    for (size_t i = 0; i < k; ++i) expected[i] += fb.gamma(0, i);
  }
  expected.NormalizeToSimplex();

  hmm::EmOptions em;
  em.max_iters = 1;
  hmm::FitEm(&model, data, em);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(model.pi[i], expected[i], 1e-12);
  }
}

// Eqs. 11-12: the Gaussian emission updates are the posterior-weighted mean
// and variance.
TEST(PaperEquationsTest, Eq11Eq12GaussianUpdates) {
  prob::GaussianEmission e(linalg::Vector{0.0}, linalg::Vector{1.0});
  // Frames y with weights q (all for the single state).
  std::vector<std::pair<double, double>> frames = {
      {1.0, 0.5}, {2.0, 1.5}, {4.0, 1.0}};
  e.BeginAccumulate();
  double wsum = 0.0, ysum = 0.0;
  for (auto [y, q] : frames) {
    e.Accumulate(y, linalg::Vector{q});
    wsum += q;
    ysum += q * y;
  }
  e.FinishAccumulate();
  double mu = ysum / wsum;  // Eq. 11
  double var = 0.0;         // Eq. 12
  for (auto [y, q] : frames) var += q * (y - mu) * (y - mu);
  var /= wsum;
  EXPECT_NEAR(e.mu()[0], mu, 1e-12);
  EXPECT_NEAR(e.sigma()[0], std::sqrt(var), 1e-12);
}

// Eq. 14/16 (alpha = 0): the transition M-step reduces to normalized
// expected counts A_ij = xi_ij / sum_j xi_ij.
TEST(PaperEquationsTest, Eq16TransitionMlUpdate) {
  prob::Rng rng(3);
  const size_t k = 3;
  hmm::HmmModel<int> model(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(k, 6, rng)));
  hmm::Dataset<int> data = hmm::SampleDataset(model, 12, 9, rng);

  linalg::Matrix xi(k, k);
  for (const auto& seq : data) {
    auto fb = checked::ForwardBackward(
        model.pi, model.a, checked::LogProbTable(*model.emission, seq.obs));
    xi += fb.xi_sum;
  }
  linalg::Matrix expected = xi;
  expected.NormalizeRows();

  hmm::EmOptions em;
  em.max_iters = 1;
  hmm::FitEm(&model, data, em);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(model.a(i, j), expected(i, j), 1e-12);
    }
  }
}

// Eq. 15's diversity gradient direction: at an interior point with two rows
// nearly identical, the gradient must push the off-diagonal overlap down —
// i.e. ascent increases log det (already tested) AND the paper formula and
// the exact formula agree after per-row centering (projection equivalence).
TEST(PaperEquationsTest, Eq15DirectionMatchesExactAfterCentering) {
  prob::Rng rng(4);
  linalg::Matrix a = rng.RandomStochasticMatrix(4, 4, 2.5);
  linalg::Matrix exact, paper;
  ASSERT_TRUE(dpp::GradLogDetNormalizedKernel(a, 0.5, &exact));
  ASSERT_TRUE(dpp::PaperGradLogDet(a, &paper));
  for (size_t i = 0; i < 4; ++i) {
    // Center each row of both gradients; centered directions must be
    // positively proportional (factor 2).
    double mean_e = 0.0, mean_p = 0.0;
    for (size_t j = 0; j < 4; ++j) {
      mean_e += exact(i, j) / 4.0;
      mean_p += paper(i, j) / 4.0;
    }
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(exact(i, j) - mean_e, 2.0 * (paper(i, j) - mean_p),
                  1e-9 * (1.0 + std::fabs(exact(i, j))));
    }
  }
}

// Eq. 18: the supervised gradient's tether term is -2 alpha_A (A - A0),
// verified through the objective's finite differences.
TEST(PaperEquationsTest, Eq18TetherGradient) {
  prob::Rng rng(5);
  linalg::Matrix a0 = rng.RandomStochasticMatrix(3, 3, 2.0);
  linalg::Matrix a = rng.RandomStochasticMatrix(3, 3, 2.0);
  linalg::Matrix counts(3, 3, 1.0);

  core::TransitionUpdateOptions opts;
  opts.alpha = 0.0;  // isolate the tether term plus counts
  opts.tether = &a0;
  opts.tether_weight = 7.0;

  dpp::KernelWorkspace ws;
  const double h = 1e-6;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      linalg::Matrix ap = a, am = a;
      ap(i, j) += h;
      am(i, j) -= h;
      double fd = (core::TransitionObjective(ap, counts, opts, &ws) -
                   core::TransitionObjective(am, counts, opts, &ws)) /
                  (2.0 * h);
      double analytic =
          counts(i, j) / a(i, j) - 2.0 * 7.0 * (a(i, j) - a0(i, j));
      EXPECT_NEAR(fd, analytic, 1e-4 * (1.0 + std::fabs(analytic)));
    }
  }
}

// §3.5.3 convergence claim: the MAP objective sequence produced by the
// diversified EM is monotonically non-decreasing (already covered for the
// trainer; here we assert the inner Algorithm-1 objective never decreases
// relative to its own start across a spread of alphas).
TEST(PaperEquationsTest, Algorithm1NeverDecreasesObjective) {
  prob::Rng rng(6);
  for (double alpha : {0.1, 1.0, 10.0, 100.0}) {
    linalg::Matrix counts(4, 4);
    for (size_t i = 0; i < 4; ++i)
      for (size_t j = 0; j < 4; ++j) counts(i, j) = 1.0 + 20.0 * rng.Uniform();
    linalg::Matrix init = rng.RandomStochasticMatrix(4, 4, 2.0);
    core::TransitionUpdateOptions opts;
    opts.alpha = alpha;
    dpp::KernelWorkspace ws;
    double before = core::TransitionObjective(init, counts, opts, &ws);
    core::TransitionUpdateResult r =
        core::UpdateTransitions(init, counts, opts);
    EXPECT_GE(r.objective, before - 1e-9) << "alpha " << alpha;
  }
}

}  // namespace
}  // namespace dhmm

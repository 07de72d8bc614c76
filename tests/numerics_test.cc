// Numerical stress and invariance properties across the math substrates —
// the edge cases that distinguish production numerics from demo code.
#include <cmath>

#include <gtest/gtest.h>

#include "checked_inference.h"
#include "dpp/logdet.h"
#include "dpp/product_kernel.h"
#include "hmm/inference.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "optim/simplex_projection.h"
#include "prob/logsumexp.h"
#include "prob/rng.h"

namespace dhmm {
namespace {

// ------------------------------------------------------- Cholesky stress ---

linalg::Matrix Hilbert(size_t n) {
  linalg::Matrix h(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      h(i, j) = 1.0 / static_cast<double>(i + j + 1);
  return h;
}

TEST(NumericsTest, CholeskySolvesIllConditionedHilbert) {
  // Hilbert(8) is symmetric positive definite with condition number ~1e10;
  // residual should still be small even if the error is not.
  const size_t n = 8;
  linalg::Matrix h = Hilbert(n);
  linalg::Matrix b = h.MatMul(linalg::Matrix(n, 1, 1.0));  // x_true = 1
  linalg::CholeskyDecomposition chol(h);
  ASSERT_TRUE(chol.ok());
  linalg::Matrix x;
  chol.SolveInto(b, &x);
  EXPECT_LT(std::sqrt(h.MatMul(x).squared_distance(b)), 1e-10);
}

TEST(NumericsTest, CholeskyLogDetOfScaledIdentityNoOverflow) {
  // det(1e-3 * I_100) = 1e-300 underflows; LogDeterminant must not.
  linalg::Matrix m = linalg::Matrix::Identity(100) * 1e-3;
  linalg::CholeskyDecomposition chol(m);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol.LogDeterminant(), 100.0 * std::log(1e-3), 1e-9);
}

TEST(NumericsTest, CholeskyOnNearSingularSpd) {
  // Gram matrix of nearly parallel vectors: SPD but tiny smallest eigenvalue.
  linalg::Matrix g{{1.0, 1.0 - 1e-8}, {1.0 - 1e-8, 1.0}};
  linalg::CholeskyDecomposition chol(g);
  ASSERT_TRUE(chol.ok());
  EXPECT_LT(chol.LogDeterminant(), std::log(1e-7));
}

TEST(NumericsTest, JacobiEigenOnLargerMatrix) {
  prob::Rng rng(1);
  const size_t n = 20;
  linalg::Matrix g(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) g(i, j) = rng.Gaussian();
  linalg::Matrix s = g + g.Transposed();
  linalg::SymmetricEigen eig(s);
  ASSERT_TRUE(eig.converged());
  // trace preserved
  double trace = 0.0, sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    trace += s(i, i);
    sum += eig.eigenvalues()[i];
  }
  EXPECT_NEAR(trace, sum, 1e-8);
  // ascending order
  for (size_t i = 1; i < n; ++i) {
    EXPECT_LE(eig.eigenvalues()[i - 1], eig.eigenvalues()[i] + 1e-12);
  }
}

// ------------------------------------------------------ LogSumExp extremes ---

TEST(NumericsTest, LogSumExpNoOverflowAt709) {
  // exp(710) overflows a double; the shifted form must not.
  linalg::Vector v{710.0, 709.0, 708.0};
  double r = prob::LogSumExp(v);
  EXPECT_TRUE(std::isfinite(r));
  EXPECT_NEAR(r, 710.0 + std::log(1.0 + std::exp(-1.0) + std::exp(-2.0)),
              1e-12);
}

TEST(NumericsTest, LogSumExpSingleElement) {
  linalg::Vector v{-3.5};
  EXPECT_DOUBLE_EQ(prob::LogSumExp(v), -3.5);
}

// ---------------------------------------------------- Simplex projections ---

TEST(NumericsTest, SimplexProjectionHugeMagnitudes) {
  linalg::Vector v{1e12, 1e12 - 1.0, -1e12};
  linalg::Vector p = optim::ProjectToSimplex(v);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
  EXPECT_GT(p[0], p[1]);
}

TEST(NumericsTest, SimplexProjectionSingleCoordinate) {
  linalg::Vector v{-5.0};
  linalg::Vector p = optim::ProjectToSimplex(v);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
}

// -------------------------------------------------------- Kernel extremes ---

TEST(NumericsTest, KernelWithFlooredEntriesStaysFinite) {
  // Rows with exact zeros: the kernel floors them and must stay PSD/finite.
  linalg::Matrix a{{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  linalg::Matrix k = dpp::NormalizedKernel(a);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_TRUE(std::isfinite(k(i, j)));
    }
  }
  EXPECT_TRUE(std::isfinite(dpp::LogDetNormalizedKernel(a)));
}

TEST(NumericsTest, LogDetMonotoneInRowSeparation) {
  // Moving two rows from identical to disjoint monotonically raises log det.
  double prev = -std::numeric_limits<double>::infinity();
  for (double w : {0.999, 0.9, 0.7, 0.5, 0.3, 0.1, 0.001}) {
    linalg::Matrix a{{0.5, 0.5, 0.0, 0.0},
                     {0.5 * w, 0.5 * w, 0.5 * (1 - w), 0.5 * (1 - w)}};
    double ld = dpp::LogDetNormalizedKernel(a);
    EXPECT_GT(ld, prev) << "w = " << w;
    prev = ld;
  }
}

TEST(NumericsTest, GradLogDetFiniteNearBoundary) {
  linalg::Matrix a{{1.0 - 2e-9, 1e-9, 1e-9}, {0.1, 0.8, 0.1},
                   {0.3, 0.1, 0.6}};
  linalg::Matrix grad;
  ASSERT_TRUE(dpp::GradLogDetNormalizedKernel(a, 0.5, &grad));
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_TRUE(std::isfinite(grad(i, j))) << i << "," << j;
    }
  }
}

// ----------------------------------------------- Forward-backward algebra ---

TEST(NumericsTest, LikelihoodShiftsExactlyWithEmissionShift) {
  // Adding a constant c to every entry of log B multiplies the likelihood by
  // exp(T c): loglik' = loglik + T*c. Posteriors must be unchanged.
  prob::Rng rng(5);
  linalg::Vector pi = rng.DirichletSymmetric(4, 1.5);
  linalg::Matrix a = rng.RandomStochasticMatrix(4, 4, 1.5);
  linalg::Matrix log_b(12, 4);
  for (size_t t = 0; t < 12; ++t)
    for (size_t i = 0; i < 4; ++i) log_b(t, i) = -4.0 * rng.Uniform();
  hmm::ForwardBackwardResult base = checked::ForwardBackward(pi, a, log_b);

  const double c = -123.456;
  linalg::Matrix shifted = log_b;
  for (size_t t = 0; t < 12; ++t)
    for (size_t i = 0; i < 4; ++i) shifted(t, i) += c;
  hmm::ForwardBackwardResult moved = checked::ForwardBackward(pi, a, shifted);

  EXPECT_NEAR(moved.log_likelihood, base.log_likelihood + 12.0 * c, 1e-8);
  for (size_t t = 0; t < 12; ++t) {
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(moved.gamma(t, i), base.gamma(t, i), 1e-10);
    }
  }
}

TEST(NumericsTest, ViterbiPathInvariantToEmissionShift) {
  prob::Rng rng(6);
  linalg::Vector pi = rng.DirichletSymmetric(3, 1.5);
  linalg::Matrix a = rng.RandomStochasticMatrix(3, 3, 1.5);
  linalg::Matrix log_b(15, 3);
  for (size_t t = 0; t < 15; ++t)
    for (size_t i = 0; i < 3; ++i) log_b(t, i) = -6.0 * rng.Uniform();
  auto base = checked::Viterbi(pi, a, log_b);
  linalg::Matrix shifted = log_b;
  for (size_t t = 0; t < 15; ++t)
    for (size_t i = 0; i < 3; ++i) shifted(t, i) += 77.0;
  auto moved = checked::Viterbi(pi, a, shifted);
  EXPECT_EQ(base.path, moved.path);
  EXPECT_NEAR(moved.log_joint, base.log_joint + 15.0 * 77.0, 1e-8);
}

TEST(NumericsTest, ForwardBackwardPermutationEquivariance) {
  // Relabeling states (permuting pi, A, logB consistently) must permute the
  // posteriors identically.
  prob::Rng rng(7);
  const size_t k = 4, t_len = 9;
  linalg::Vector pi = rng.DirichletSymmetric(k, 1.5);
  linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
  linalg::Matrix log_b(t_len, k);
  for (size_t t = 0; t < t_len; ++t)
    for (size_t i = 0; i < k; ++i) log_b(t, i) = -4.0 * rng.Uniform();

  std::vector<size_t> perm = {2, 0, 3, 1};  // new index -> old index
  linalg::Vector pi_p(k);
  linalg::Matrix a_p(k, k), log_b_p(t_len, k);
  for (size_t i = 0; i < k; ++i) {
    pi_p[i] = pi[perm[i]];
    for (size_t j = 0; j < k; ++j) a_p(i, j) = a(perm[i], perm[j]);
    for (size_t t = 0; t < t_len; ++t) log_b_p(t, i) = log_b(t, perm[i]);
  }
  auto base = checked::ForwardBackward(pi, a, log_b);
  auto permuted = checked::ForwardBackward(pi_p, a_p, log_b_p);
  EXPECT_NEAR(base.log_likelihood, permuted.log_likelihood, 1e-10);
  for (size_t t = 0; t < t_len; ++t) {
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(permuted.gamma(t, i), base.gamma(t, perm[i]), 1e-10);
    }
  }
}

// --------------------------------------------------------------- Sampling ---

TEST(NumericsTest, GammaSamplerTinyShape) {
  // shape = 0.05 stresses the boost branch; samples must be positive finite
  // with roughly the right mean.
  prob::Rng rng(8);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gamma(0.05);
    ASSERT_TRUE(std::isfinite(g));
    ASSERT_GT(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum / n, 0.05, 0.01);
}

TEST(NumericsTest, CategoricalExtremeWeightRatios) {
  prob::Rng rng(9);
  linalg::Vector w{1e-12, 1.0, 1e-12};
  for (int i = 0; i < 1000; ++i) {
    size_t s = rng.Categorical(w);
    EXPECT_EQ(s, 1u);
  }
}

}  // namespace
}  // namespace dhmm

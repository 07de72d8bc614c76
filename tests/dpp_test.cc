#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "dpp/esp.h"
#include "dpp/logdet.h"
#include "dpp/product_kernel.h"
#include "dpp/sampling.h"
#include "linalg/eigen_sym.h"
#include "prob/rng.h"

namespace dhmm::dpp {
namespace {

linalg::Matrix RandomStochastic(size_t k, size_t d, uint64_t seed,
                                double conc = 2.0) {
  prob::Rng rng(seed);
  return rng.RandomStochasticMatrix(k, d, conc);
}

// Test-local determinant oracle: cofactor expansion along the first row,
// for the small (at most 4 x 4) matrices these tests build.
double Det(const linalg::Matrix& m) {
  const size_t n = m.rows();
  if (n == 1) return m(0, 0);
  double det = 0.0;
  for (size_t c = 0; c < n; ++c) {
    linalg::Matrix minor(n - 1, n - 1);
    for (size_t i = 1; i < n; ++i) {
      for (size_t j = 0, mj = 0; j < n; ++j) {
        if (j != c) minor(i - 1, mj++) = m(i, j);
      }
    }
    det += (c % 2 == 0 ? 1.0 : -1.0) * m(0, c) * Det(minor);
  }
  return det;
}

// ---------------------------------------------------------- ProductKernel ---

TEST(ProductKernelTest, DiagonalOfNormalizedKernelIsOne) {
  linalg::Matrix a = RandomStochastic(5, 5, 1);
  linalg::Matrix k = NormalizedKernel(a);
  for (size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(k(i, i), 1.0);
}

TEST(ProductKernelTest, SymmetricAndBounded) {
  linalg::Matrix a = RandomStochastic(6, 8, 2);
  linalg::Matrix k = NormalizedKernel(a);
  EXPECT_EQ(k, k.Transposed());
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_GE(k(i, j), 0.0);
      EXPECT_LE(k(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(ProductKernelTest, RhoHalfIsBhattacharyyaCoefficient) {
  linalg::Matrix a{{0.5, 0.5}, {0.1, 0.9}};
  linalg::Matrix k = NormalizedKernel(a, 0.5);
  double bc = std::sqrt(0.5 * 0.1) + std::sqrt(0.5 * 0.9);
  EXPECT_NEAR(k(0, 1), bc, 1e-12);
}

TEST(ProductKernelTest, IdenticalRowsGiveUnitOffDiagonal) {
  linalg::Matrix a{{0.3, 0.7}, {0.3, 0.7}};
  linalg::Matrix k = NormalizedKernel(a);
  EXPECT_NEAR(k(0, 1), 1.0, 1e-12);
  // And the determinant of the kernel vanishes.
  EXPECT_NEAR(Det(k), 0.0, 1e-12);
}

TEST(ProductKernelTest, OrthogonalRowsGiveIdentityKernel) {
  linalg::Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  linalg::Matrix k = NormalizedKernel(a);
  // Disjoint supports: off-diagonal is (numerically) the floor -> ~0.
  EXPECT_LT(k(0, 1), 1e-5);
  EXPECT_NEAR(Det(k), 1.0, 1e-4);
}

TEST(ProductKernelTest, PositiveSemidefinite) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    linalg::Matrix a = RandomStochastic(5, 7, seed);
    linalg::SymmetricEigen eig(NormalizedKernel(a));
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_GE(eig.eigenvalues()[i], -1e-9) << "seed " << seed;
    }
  }
}

TEST(ProductKernelTest, ScaleInvarianceOfNormalizedKernel) {
  // The normalized kernel must not change when a row is rescaled.
  linalg::Matrix a{{0.2, 0.8}, {0.6, 0.4}};
  linalg::Matrix b = a;
  for (size_t j = 0; j < 2; ++j) b(0, j) *= 3.7;
  linalg::Matrix ka = NormalizedKernel(a);
  linalg::Matrix kb = NormalizedKernel(b);
  EXPECT_NEAR(ka(0, 1), kb(0, 1), 1e-12);
}

TEST(ProductKernelTest, UnnormalizedDiagonalIsRowPowerSum) {
  linalg::Matrix a{{0.25, 0.75}};
  KernelWorkspace ws;
  ProductKernel(a, 0.5, &ws);
  EXPECT_NEAR(ws.kernel(0, 0), 0.25 + 0.75, 1e-12);  // rho=0.5: entry sum
  ProductKernel(a, 1.0, &ws);
  EXPECT_NEAR(ws.kernel(0, 0), 0.25 * 0.25 + 0.75 * 0.75, 1e-12);
}

// ----------------------------------------------------------------- LogDet ---

TEST(LogDetTest, MaximalForDisjointSupports) {
  linalg::Matrix diverse{{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  // Identity kernel -> log det 0, the maximum for a correlation kernel.
  EXPECT_NEAR(LogDetNormalizedKernel(diverse), 0.0, 1e-4);
}

TEST(LogDetTest, NegInfForIdenticalRows) {
  linalg::Matrix collapsed{{0.5, 0.5}, {0.5, 0.5}};
  EXPECT_TRUE(std::isinf(LogDetNormalizedKernel(collapsed)));
}

TEST(LogDetTest, MoreDiverseRowsScoreHigher) {
  linalg::Matrix spread{{0.9, 0.05, 0.05}, {0.05, 0.9, 0.05},
                        {0.05, 0.05, 0.9}};
  linalg::Matrix bunched{{0.4, 0.3, 0.3}, {0.3, 0.4, 0.3}, {0.3, 0.3, 0.4}};
  EXPECT_GT(LogDetNormalizedKernel(spread), LogDetNormalizedKernel(bunched));
}

TEST(LogDetTest, AlwaysNonPositiveForCorrelationKernel) {
  // det of a correlation (unit-diagonal PSD) matrix is in [0, 1].
  for (uint64_t seed = 0; seed < 10; ++seed) {
    linalg::Matrix a = RandomStochastic(4, 6, seed + 40);
    double ld = LogDetNormalizedKernel(a);
    EXPECT_LE(ld, 1e-10) << "seed " << seed;
  }
}

// The critical correctness test: analytic gradient vs central finite
// differences, at generic (off-simplex-interior) points.
class GradLogDetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GradLogDetTest, MatchesFiniteDifferences) {
  const uint64_t seed = GetParam();
  const double rho = (seed % 2 == 0) ? 0.5 : 0.8;
  linalg::Matrix a = RandomStochastic(4, 5, seed, 3.0);
  // Move slightly off the simplex to exercise the normalization terms.
  prob::Rng rng(seed + 1000);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      a(i, j) *= 1.0 + 0.2 * rng.Uniform();
    }
  }
  linalg::Matrix grad;
  ASSERT_TRUE(GradLogDetNormalizedKernel(a, rho, &grad));
  const double h = 1e-6;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      linalg::Matrix ap = a, am = a;
      ap(i, j) += h;
      am(i, j) -= h;
      double fd = (LogDetNormalizedKernel(ap, rho) -
                   LogDetNormalizedKernel(am, rho)) /
                  (2.0 * h);
      EXPECT_NEAR(grad(i, j), fd, 1e-4 * (1.0 + std::fabs(fd)))
          << "entry (" << i << "," << j << "), rho " << rho;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradLogDetTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GradLogDetTest, FlooredEntriesGetZeroGradient) {
  linalg::Matrix a{{1.0 - 1e-13, 1e-13}, {0.3, 0.7}};
  linalg::Matrix grad;
  ASSERT_TRUE(GradLogDetNormalizedKernel(a, 0.5, &grad));
  EXPECT_DOUBLE_EQ(grad(0, 1), 0.0);
}

TEST(GradLogDetTest, FailsGracefullyOnSingularKernel) {
  linalg::Matrix a{{0.5, 0.5}, {0.5, 0.5}};
  linalg::Matrix grad;
  EXPECT_FALSE(GradLogDetNormalizedKernel(a, 0.5, &grad));
}

TEST(GradLogDetTest, PaperFormulaParallelToExactOnSimplexAfterCentering) {
  // On the simplex, the paper's Eq. 15 direction differs from the exact
  // gradient by a positive scale (2x) and a per-entry constant; Euclidean
  // simplex projection is invariant to uniform row shifts, so the projected
  // ascent directions coincide. Verify: exact = 2 * paper - 1 elementwise.
  linalg::Matrix a = RandomStochastic(4, 4, 77, 3.0);
  linalg::Matrix exact, paper;
  ASSERT_TRUE(GradLogDetNormalizedKernel(a, 0.5, &exact));
  ASSERT_TRUE(PaperGradLogDet(a, &paper));
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(exact(i, j), 2.0 * paper(i, j) - 1.0,
                  1e-8 * (1.0 + std::fabs(exact(i, j))));
    }
  }
}

TEST(GradLogDetTest, GradientPushesRowsApart) {
  // Two nearly identical rows: ascent along the gradient must increase the
  // diversity objective.
  linalg::Matrix a{{0.52, 0.48}, {0.48, 0.52}};
  linalg::Matrix grad;
  ASSERT_TRUE(GradLogDetNormalizedKernel(a, 0.5, &grad));
  double before = LogDetNormalizedKernel(a);
  linalg::Matrix stepped = a + grad * 1e-4;
  EXPECT_GT(LogDetNormalizedKernel(stepped), before);
}

// -------------------------------------------------------------------- ESP ---

TEST(EspTest, KnownSmallCases) {
  linalg::Vector v{1.0, 2.0, 3.0};
  linalg::Vector e = ElementarySymmetric(v, 3);
  EXPECT_DOUBLE_EQ(e[0], 1.0);
  EXPECT_DOUBLE_EQ(e[1], 6.0);    // 1+2+3
  EXPECT_DOUBLE_EQ(e[2], 11.0);   // 2+3+6
  EXPECT_DOUBLE_EQ(e[3], 6.0);    // 1*2*3
}

TEST(EspTest, TopCoefficientIsProduct) {
  linalg::Vector v{0.5, 1.5, 2.0, 4.0};
  linalg::Vector e = ElementarySymmetric(v, 4);
  EXPECT_NEAR(e[4], 0.5 * 1.5 * 2.0 * 4.0, 1e-12);
}

TEST(EspTest, MatchesDeterminantIdentity) {
  // det(I + L) = sum_k e_k(lambda).
  prob::Rng rng(30);
  linalg::Matrix g(4, 4);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 4; ++j) g(i, j) = rng.Gaussian();
  linalg::Matrix l = g.MatMul(g.Transposed());
  linalg::SymmetricEigen eig(l);
  linalg::Vector lam = eig.eigenvalues();
  for (size_t i = 0; i < 4; ++i) lam[i] = std::max(lam[i], 0.0);
  linalg::Vector e = ElementarySymmetric(lam, 4);
  double sum = 0.0;
  for (size_t k = 0; k <= 4; ++k) sum += e[k];
  EXPECT_NEAR(sum, Det(l + linalg::Matrix::Identity(4)), 1e-6 * (1.0 + sum));
}

TEST(EspTest, TableLastColumnMatchesVectorVersion) {
  linalg::Vector v{0.3, 1.2, 0.7, 2.2, 0.9};
  linalg::Matrix table = ElementarySymmetricTable(v, 3);
  linalg::Vector e = ElementarySymmetric(v, 3);
  for (size_t k = 0; k <= 3; ++k) {
    EXPECT_NEAR(table(k, 5), e[k], 1e-12);
  }
  // Prefix property: E(1, n) = sum of first n values.
  EXPECT_NEAR(table(1, 2), 1.5, 1e-12);
}

// --------------------------------------------------------------- Sampling ---

TEST(DppSamplingTest, KDppHasExactCardinality) {
  prob::Rng rng(31);
  linalg::Matrix g(6, 6);
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 6; ++j) g(i, j) = rng.Gaussian();
  linalg::Matrix l = g.MatMul(g.Transposed());
  for (size_t k = 1; k <= 4; ++k) {
    for (int trial = 0; trial < 10; ++trial) {
      auto subset = SampleKDpp(l, k, rng);
      EXPECT_EQ(subset.size(), k);
      // Distinct, sorted items.
      for (size_t i = 1; i < subset.size(); ++i) {
        EXPECT_LT(subset[i - 1], subset[i]);
      }
    }
  }
}

TEST(DppSamplingTest, RepulsionBeatsIndependentSampling) {
  // Two highly similar items (0,1) and one dissimilar (2): a 2-DPP should
  // pick {0,2} or {1,2} far more often than {0,1}.
  linalg::Matrix l{{1.0, 0.98, 0.05}, {0.98, 1.0, 0.05}, {0.05, 0.05, 1.0}};
  prob::Rng rng(34);
  std::map<std::pair<size_t, size_t>, int> counts;
  for (int t = 0; t < 2000; ++t) {
    auto s = SampleKDpp(l, 2, rng);
    ++counts[{s[0], s[1]}];
  }
  int similar_pair = counts[{0, 1}];
  int diverse_pairs = counts[{0, 2}] + counts[{1, 2}];
  EXPECT_GT(diverse_pairs, 20 * similar_pair);
}

TEST(DppSamplingTest, KDppSampleFrequenciesMatchDensity) {
  // Exhaustive check on a 4-item ground set with k=2: KDppLogProb is
  // log det(L_Y) - log e_2, and empirical frequencies track it.
  prob::Rng rng(35);
  linalg::Matrix g(4, 3);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 3; ++j) g(i, j) = rng.Gaussian();
  linalg::Matrix l = g.MatMul(g.Transposed());
  for (size_t i = 0; i < 4; ++i) l(i, i) += 0.3;
  auto minor = [&](size_t i, size_t j) {
    return Det(linalg::Matrix{{l(i, i), l(i, j)}, {l(j, i), l(j, j)}});
  };
  // e_2 of L's eigenvalues is the sum of its 2 x 2 principal minors.
  double e2 = 0.0;
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = i + 1; j < 4; ++j) e2 += minor(i, j);

  std::map<std::pair<size_t, size_t>, int> counts;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    auto s = SampleKDpp(l, 2, rng);
    ++counts[{s[0], s[1]}];
  }
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = i + 1; j < 4; ++j) {
      const double log_prob = KDppLogProb(l, {i, j});
      EXPECT_NEAR(log_prob, std::log(minor(i, j)) - std::log(e2), 1e-10)
          << "pair (" << i << "," << j << ")";
      double observed = counts[{i, j}] / static_cast<double>(trials);
      EXPECT_NEAR(observed, std::exp(log_prob), 0.02)
          << "pair (" << i << "," << j << ")";
    }
  }
  // A repeated item makes L_Y singular: probability zero.
  const double neg_inf = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(KDppLogProb(l, {i, i}), neg_inf);
}

TEST(DppSamplingTest, KDppLogProbsNormalize) {
  prob::Rng rng(36);
  linalg::Matrix g(5, 4);
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = 0; j < 4; ++j) g(i, j) = rng.Gaussian();
  linalg::Matrix l = g.MatMul(g.Transposed());
  for (size_t i = 0; i < 5; ++i) l(i, i) += 0.2;
  double total = 0.0;
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = i + 1; j < 5; ++j)
      total += std::exp(KDppLogProb(l, {i, j}));
  EXPECT_NEAR(total, 1.0, 1e-6);
}

}  // namespace
}  // namespace dhmm::dpp

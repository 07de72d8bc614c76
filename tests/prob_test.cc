#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hmm/model.h"
#include "hmm/supervised.h"
#include "prob/bernoulli_emission.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/gmm_emission.h"
#include "prob/logsumexp.h"
#include "prob/rng.h"
#include "store/model_codec.h"

namespace dhmm::prob {
namespace {

// One emission row, log p(y | X = i) for every state i.
template <typename Obs>
std::vector<double> Row(const EmissionModel<Obs>& e, const Obs& y) {
  std::vector<double> row(e.num_states());
  e.LogProbRow(y, row.data());
  return row;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  double mean = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  mean /= 10000.0;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(6);
  std::vector<int> hist(7, 0);
  for (int i = 0; i < 7000; ++i) {
    uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    ++hist[v];
  }
  for (int h : hist) EXPECT_GT(h, 700);  // ~1000 each
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(9);
  for (double shape : {0.5, 1.0, 2.0, 5.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      double g = rng.Gamma(shape);
      ASSERT_GT(g, 0.0);
      sum += g;
    }
    EXPECT_NEAR(sum / n, shape, 0.1 * shape + 0.02);
  }
}

TEST(RngTest, DirichletOnSimplex) {
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    linalg::Vector d = rng.DirichletSymmetric(5, 0.7);
    double s = 0.0;
    for (size_t i = 0; i < d.size(); ++i) {
      ASSERT_GE(d[i], 0.0);
      s += d[i];
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(RngTest, DirichletConcentrationControlsSpread) {
  Rng rng(11);
  // Very high concentration -> near uniform; very low -> near corner.
  linalg::Vector flat = rng.Dirichlet(linalg::Vector(4, 500.0));
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(flat[i], 0.25, 0.1);
  double max_sharp = 0.0;
  for (int t = 0; t < 10; ++t) {
    linalg::Vector sharp = rng.Dirichlet(linalg::Vector(4, 0.05));
    const double* s = sharp.data();
    max_sharp = std::max(max_sharp, *std::max_element(s, s + 4));
  }
  EXPECT_GT(max_sharp, 0.9);
}

TEST(RngTest, CategoricalFrequenciesMatchWeights) {
  Rng rng(12);
  linalg::Vector w{1.0, 2.0, 7.0};
  std::vector<int> hist(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++hist[rng.Categorical(w)];
  EXPECT_NEAR(hist[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(hist[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(hist[2] / static_cast<double>(n), 0.7, 0.02);
}

TEST(RngTest, CategoricalIgnoresZeroWeights) {
  Rng rng(13);
  linalg::Vector w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(w), 1u);
}

TEST(RngTest, CategoricalDrawsFromAMatrixRowInPlace) {
  // The samplers draw straight from a matrix row: same draws as the
  // row-copying Vector form, pinned to values that form produced.
  Rng init(2024);
  const linalg::Matrix w = init.RandomStochasticMatrix(4, 37, 0.5);
  const size_t row_draws[] = {2, 9, 29, 18, 36, 20, 29, 14, 36, 2};
  Rng in_place(7), copied(7);
  for (size_t want : row_draws) {
    EXPECT_EQ(in_place.Categorical(w.row_data(2), w.cols()), want);
    EXPECT_EQ(copied.Categorical(w.Row(2)), want);
  }
  const CategoricalEmission em(w);
  const int emission_draws[] = {32, 24, 36, 30, 3, 19, 6, 1, 31, 7};
  Rng rng(11);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(em.Sample(i % 4, rng), emission_draws[i]) << "draw " << i;
  }
  // GmmEmission::Sample draws its component from the weight row in place.
  // Components sit 10 apart with sigma 0.01, so each draw names its
  // component; pinned to the row-copying draw's sequence.
  const linalg::Matrix mix = init.RandomStochasticMatrix(3, 6, 0.5);
  linalg::Matrix mu(3, 6), sigma(3, 6, 0.01);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t m = 0; m < 6; ++m) mu(i, m) = 10.0 * static_cast<double>(m);
  }
  const GmmEmission gmm(mix, mu, sigma);
  const long gmm_draws[] = {0, 5, 4, 1, 4, 5, 2, 1, 1, 3, 2, 5};
  Rng gmm_rng(13);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(std::lround(gmm.Sample(i % 3, gmm_rng) / 10.0), gmm_draws[i])
        << "draw " << i;
  }
}

// Weight rows for the checkpointed-draw grid, each with positive mass for
// every n >= 1.
std::vector<std::vector<double>> CheckpointGridRows(size_t n, Rng& rng) {
  const size_t stride = Rng::kCategoricalStride;
  std::vector<std::vector<double>> rows;
  const auto add = [&](auto weight) {
    std::vector<double> w(n);
    for (size_t i = 0; i < n; ++i) w[i] = weight(i);
    rows.push_back(std::move(w));
  };
  const linalg::Vector dirichlet = rng.DirichletSymmetric(n, 0.5);
  add([&](size_t i) { return dirichlet[i]; });
  // Every odd block is all zero: consecutive checkpoints are equal.
  add([&](size_t i) { return (i / stride) % 2 == 1 ? 0.0 : 1.0 + i % 3; });
  // Leading and trailing zeros.
  add([&](size_t i) { return i < n / 3 || i >= n - n / 3 ? 0.0 : 0.5; });
  // One non-zero weight: first, on either side of a block boundary, last.
  for (size_t at : {size_t{0}, stride - 1, stride, n - 1}) {
    const size_t hot = std::min(at, n - 1);
    add([&](size_t i) { return i == hot ? 0.25 : 0.0; });
  }
  // Subnormal weights, odd blocks zero. Their sums are exact multiples of
  // the smallest subnormal, and so is u: u often lands exactly on a
  // checkpoint, where the draw must skip the zero block after it.
  add([&](size_t i) {
    return (i / stride) % 2 == 1
               ? 0.0
               : std::numeric_limits<double>::denorm_min() * (1.0 + i % 7);
  });
  // Weights from 1e-300 to 1, interleaved: most vanish in the running sum.
  add([&](size_t i) {
    return std::pow(10.0, -static_cast<double>(i * 37 % 301));
  });
  return rows;
}

TEST(RngTest, CheckpointedCategoricalMatchesScanOnEveryLength) {
  Rng weights_rng(404);
  for (size_t n = 1; n <= 200; ++n) {
    const std::vector<std::vector<double>> rows =
        CheckpointGridRows(n, weights_rng);
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::vector<double>& w = rows[r];
      std::vector<double> sums(Rng::CategoricalCheckpointCount(n));
      Rng::BuildCategoricalCheckpoints(w.data(), n, sums.data());
      Rng scan(n * 31 + r), indexed(n * 31 + r);
      for (int draw = 0; draw < 100; ++draw) {
        ASSERT_EQ(indexed.Categorical(w.data(), n, sums.data()),
                  scan.Categorical(w.data(), n))
            << "n = " << n << ", row " << r << ", draw " << draw;
      }
      EXPECT_EQ(indexed.NextU64(), scan.NextU64())
          << "n = " << n << ", row " << r;
    }
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(14);
  auto p = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (size_t v : p) {
    ASSERT_LT(v, 50u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, RandomStochasticMatrixRowsOnSimplex) {
  Rng rng(15);
  linalg::Matrix m = rng.RandomStochasticMatrix(6, 9, 2.0);
  EXPECT_TRUE(m.IsRowStochastic(1e-9));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(16);
  int on = 0;
  for (int i = 0; i < 10000; ++i) on += rng.Bernoulli(0.3);
  EXPECT_NEAR(on / 10000.0, 0.3, 0.02);
}

// ------------------------------------------------------------- LogSumExp ---

TEST(LogSumExpTest, MatchesDirectComputation) {
  linalg::Vector v{0.0, 1.0, 2.0};
  double direct = std::log(std::exp(0.0) + std::exp(1.0) + std::exp(2.0));
  EXPECT_NEAR(LogSumExp(v), direct, 1e-12);
}

TEST(LogSumExpTest, StableForLargeMagnitudes) {
  linalg::Vector v{-1000.0, -1000.0};
  EXPECT_NEAR(LogSumExp(v), -1000.0 + std::log(2.0), 1e-9);
  linalg::Vector w{1000.0, 999.0};
  EXPECT_NEAR(LogSumExp(w), 1000.0 + std::log1p(std::exp(-1.0)), 1e-9);
}

TEST(LogSumExpTest, HandlesNegInf) {
  EXPECT_EQ(LogAdd(kNegInf, kNegInf), kNegInf);
  EXPECT_DOUBLE_EQ(LogAdd(kNegInf, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(LogAdd(3.0, kNegInf), 3.0);
  linalg::Vector v{kNegInf, kNegInf};
  EXPECT_EQ(LogSumExp(v), kNegInf);
}

TEST(LogSumExpTest, EmptyInputIsLogZero) {
  EXPECT_EQ(LogSumExp(linalg::Vector()), kNegInf);
  EXPECT_EQ(LogSumExp(nullptr, 0), kNegInf);
}

// Contract: NaN in -> NaN out. The -inf short-circuits and the max scans
// must not swallow a NaN operand (NaN compares false against everything,
// so an unguarded max would treat it as "smaller than -inf").
TEST(LogSumExpTest, NanPropagatesThroughLogAdd) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(LogAdd(nan, 1.0)));
  EXPECT_TRUE(std::isnan(LogAdd(1.0, nan)));
  EXPECT_TRUE(std::isnan(LogAdd(nan, kNegInf)));
  EXPECT_TRUE(std::isnan(LogAdd(kNegInf, nan)));
  EXPECT_TRUE(std::isnan(LogAdd(nan, nan)));
}

TEST(LogSumExpTest, NanPropagatesThroughLogSumExp) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // The all--inf-plus-NaN case is the one the seed implementation got
  // wrong: the max scan skipped the NaN and returned -inf.
  EXPECT_TRUE(std::isnan(LogSumExp(linalg::Vector{kNegInf, nan, kNegInf})));
  EXPECT_TRUE(std::isnan(LogSumExp(linalg::Vector{nan})));
  EXPECT_TRUE(std::isnan(LogSumExp(linalg::Vector{0.0, nan, 2.0})));
  linalg::Vector v{1.0, nan};
  EXPECT_TRUE(std::isnan(LogSumExp(v.data(), v.size())));
}

// ------------------------------------------------------ GaussianEmission ---

TEST(GaussianEmissionTest, LogProbMatchesDensity) {
  GaussianEmission e(linalg::Vector{0.0, 2.0}, linalg::Vector{1.0, 0.5});
  double lp = Row(e, 0.0)[0];
  EXPECT_NEAR(lp, -0.5 * std::log(2.0 * M_PI), 1e-12);
  double lp2 = Row(e, 2.5)[1];
  double z = 0.5 / 0.5;
  EXPECT_NEAR(lp2, -0.5 * z * z - std::log(0.5) - 0.5 * std::log(2.0 * M_PI),
              1e-12);
}

TEST(GaussianEmissionTest, EmFitRecoversWeightedStats) {
  GaussianEmission e(linalg::Vector{0.0, 0.0}, linalg::Vector{1.0, 1.0});
  e.BeginAccumulate();
  // State 0 sees {1, 3} with unit weight; state 1 sees {10} only.
  e.Accumulate(1.0, linalg::Vector{1.0, 0.0});
  e.Accumulate(3.0, linalg::Vector{1.0, 0.0});
  e.Accumulate(10.0, linalg::Vector{0.0, 1.0});
  e.FinishAccumulate();
  EXPECT_NEAR(e.mu()[0], 2.0, 1e-12);
  EXPECT_NEAR(e.mu()[1], 10.0, 1e-12);
  // Variance of {1,3} is 1 -> sigma 1.
  EXPECT_NEAR(e.sigma()[0], 1.0, 1e-12);
}

TEST(GaussianEmissionTest, SigmaFloorPreventsSingularity) {
  GaussianEmission e(linalg::Vector{0.0}, linalg::Vector{1.0},
                     /*sigma_floor=*/0.01);
  e.BeginAccumulate();
  e.Accumulate(5.0, linalg::Vector{1.0});  // single point -> zero variance
  e.FinishAccumulate();
  EXPECT_GE(e.sigma()[0], 0.01);
  EXPECT_TRUE(std::isfinite(Row(e, 5.0)[0]));
}

TEST(GaussianEmissionTest, UnusedStateKeepsParameters) {
  GaussianEmission e(linalg::Vector{1.0, -7.0}, linalg::Vector{0.5, 0.25});
  e.BeginAccumulate();
  e.Accumulate(1.5, linalg::Vector{1.0, 0.0});
  e.FinishAccumulate();
  EXPECT_NEAR(e.mu()[1], -7.0, 1e-12);
  EXPECT_NEAR(e.sigma()[1], 0.25, 1e-12);
}

TEST(GaussianEmissionTest, SampleMomentsMatchParameters) {
  GaussianEmission e(linalg::Vector{4.0}, linalg::Vector{0.5});
  Rng rng(20);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += e.Sample(0, rng);
  EXPECT_NEAR(sum / n, 4.0, 0.02);
}

// --------------------------------------------------- CategoricalEmission ---

TEST(CategoricalEmissionTest, LogProbMatchesTable) {
  CategoricalEmission e(linalg::Matrix{{0.5, 0.5, 0.0}, {0.1, 0.2, 0.7}});
  EXPECT_NEAR(Row(e, 0)[0], std::log(0.5), 1e-12);
  EXPECT_NEAR(Row(e, 2)[1], std::log(0.7), 1e-12);
  EXPECT_EQ(Row(e, 2)[0], kNegInf);
  EXPECT_EQ(e.vocab_size(), 3u);
}

TEST(CategoricalEmissionTest, EmFitNormalizesCounts) {
  CategoricalEmission e(linalg::Matrix{{0.5, 0.5}, {0.5, 0.5}});
  e.BeginAccumulate();
  e.Accumulate(0, linalg::Vector{1.0, 0.0});
  e.Accumulate(0, linalg::Vector{1.0, 0.0});
  e.Accumulate(1, linalg::Vector{1.0, 0.0});
  e.Accumulate(1, linalg::Vector{0.0, 1.0});
  e.FinishAccumulate();
  EXPECT_NEAR(e.b()(0, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(e.b()(0, 1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(e.b()(1, 1), 1.0, 1e-12);
}

TEST(CategoricalEmissionTest, PseudoCountSmoothsUnseenSymbols) {
  CategoricalEmission e(linalg::Matrix{{0.5, 0.5}}, /*pseudo_count=*/0.5);
  e.BeginAccumulate();
  e.Accumulate(0, linalg::Vector{1.0});
  e.FinishAccumulate();
  EXPECT_GT(e.b()(0, 1), 0.0);
  EXPECT_TRUE(std::isfinite(Row(e, 1)[0]));
}

TEST(CategoricalEmissionTest, OutOfVocabularyTrainingSymbolAborts) {
  // A supervised fit hands dataset symbols to Accumulate with no forward
  // pass in front: a symbol outside [0, V) must stop the fit with a
  // message, not write outside the expected-count table.
  const auto fit = [](int symbol) {
    hmm::Dataset<int> data(1);
    data[0].obs = {0, symbol, 4};
    data[0].labels = {0, 1, 2};
    hmm::FitSupervised<int>(
        data, 3,
        std::make_unique<CategoricalEmission>(linalg::Matrix(3, 5, 0.2)));
  };
  EXPECT_DEATH(fit(7), "symbol 7 outside the vocabulary of V = 5");
  EXPECT_DEATH(fit(-1), "symbol -1 outside the vocabulary of V = 5");
}

TEST(CategoricalEmissionTest, SampleFrequencies) {
  CategoricalEmission e(linalg::Matrix{{0.8, 0.2}});
  Rng rng(21);
  int zeros = 0;
  for (int i = 0; i < 10000; ++i) zeros += e.Sample(0, rng) == 0;
  EXPECT_NEAR(zeros / 10000.0, 0.8, 0.02);
}

// CategoricalEmission::Sample against the scan over each row of b(), from
// equal seeds.
void ExpectSampleMatchesScan(const CategoricalEmission& e, uint64_t seed) {
  Rng indexed(seed), scan(seed);
  for (int draw = 0; draw < 600; ++draw) {
    const size_t state = static_cast<size_t>(draw) % e.num_states();
    ASSERT_EQ(static_cast<size_t>(e.Sample(state, indexed)),
              scan.Categorical(e.b().row_data(state), e.vocab_size()))
        << "draw " << draw;
  }
  EXPECT_EQ(indexed.NextU64(), scan.NextU64());
}

TEST(CategoricalEmissionTest, SampleMatchesScanAfterEveryRebuild) {
  Rng rng(23);
  CategoricalEmission e =
      CategoricalEmission::RandomInit(3, 150, rng, /*concentration=*/0.3);
  ExpectSampleMatchesScan(e, 1);
  // After an M-step the draws follow the new rows.
  e.BeginAccumulate();
  for (int y = 0; y < 150; y += 7) {
    e.Accumulate(y, linalg::Vector{0.5, 0.3 * (y % 2), 0.2 + y / 300.0});
  }
  e.FinishAccumulate();
  ExpectSampleMatchesScan(e, 2);
  // A store round trip rebuilds them from the stored rows.
  hmm::HmmModel<int> model(linalg::Vector{0.2, 0.3, 0.5},
                           rng.RandomStochasticMatrix(3, 3, 1.0),
                           e.Clone());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dhmm_prob_test_" + std::to_string(::getpid()) + ".dhmms"))
          .string();
  ASSERT_TRUE(store::WriteModel(model, 1, path).ok());
  auto loaded = store::ReadModelFromFile<int>(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto* read =
      dynamic_cast<const CategoricalEmission*>(loaded.value().emission.get());
  ASSERT_NE(read, nullptr);
  ExpectSampleMatchesScan(*read, 3);
}

TEST(CategoricalEmissionTest, RandomInitIsStochastic) {
  Rng rng(22);
  CategoricalEmission e = CategoricalEmission::RandomInit(4, 30, rng);
  EXPECT_TRUE(e.b().IsRowStochastic(1e-9));
}

// ----------------------------------------------------- BernoulliEmission ---

TEST(BernoulliEmissionTest, LogProbMatchesProduct) {
  BernoulliEmission e(linalg::Matrix{{0.9, 0.1}});
  BinaryObs obs{1, 0};
  EXPECT_NEAR(Row(e, obs)[0], std::log(0.9) + std::log(0.9), 1e-12);
  BinaryObs obs2{0, 1};
  EXPECT_NEAR(Row(e, obs2)[0], std::log(0.1) + std::log(0.1), 1e-12);
}

TEST(BernoulliEmissionTest, ClampKeepsLogProbFinite) {
  BernoulliEmission e(linalg::Matrix{{1.0, 0.0}}, /*p_floor=*/1e-3);
  BinaryObs contradicting{0, 1};
  EXPECT_TRUE(std::isfinite(Row(e, contradicting)[0]));
}

TEST(BernoulliEmissionTest, EmFitMatchesWeightedFrequencies) {
  BernoulliEmission e(linalg::Matrix(1, 2, 0.5));
  e.BeginAccumulate();
  e.Accumulate(BinaryObs{1, 0}, linalg::Vector{1.0});
  e.Accumulate(BinaryObs{1, 1}, linalg::Vector{1.0});
  e.Accumulate(BinaryObs{0, 0}, linalg::Vector{2.0});  // weighted frame
  e.FinishAccumulate();
  EXPECT_NEAR(e.p()(0, 0), 0.5, 1e-12);   // 2 on / 4 weight
  EXPECT_NEAR(e.p()(0, 1), 0.25, 1e-12);  // 1 on / 4 weight
}

TEST(BernoulliEmissionTest, SampleMatchesProbabilities) {
  BernoulliEmission e(linalg::Matrix{{0.8, 0.2}});
  Rng rng(23);
  int on0 = 0, on1 = 0;
  for (int i = 0; i < 10000; ++i) {
    BinaryObs o = e.Sample(0, rng);
    on0 += o[0];
    on1 += o[1];
  }
  EXPECT_NEAR(on0 / 10000.0, 0.8, 0.02);
  EXPECT_NEAR(on1 / 10000.0, 0.2, 0.02);
}

TEST(BernoulliEmissionTest, CloneIsDeep) {
  BernoulliEmission e(linalg::Matrix{{0.7, 0.3}});
  auto clone = e.Clone();
  e.BeginAccumulate();
  e.Accumulate(BinaryObs{0, 1}, linalg::Vector{1.0});
  e.FinishAccumulate();
  // The clone still has the original parameters.
  BinaryObs obs{1, 0};
  EXPECT_NEAR(Row(*clone, obs)[0], std::log(0.7) + std::log(0.7), 1e-12);
}

// LogProbTable row t is the LogProbRow of frame t.
TEST(EmissionTableTest, LogProbTableMatchesPointwise) {
  Rng rng(24);
  CategoricalEmission e = CategoricalEmission::RandomInit(3, 5, rng);
  std::vector<int> seq = {0, 4, 2, 2, 1};
  linalg::Matrix table = e.LogProbTable(seq);
  ASSERT_EQ(table.rows(), 5u);
  ASSERT_EQ(table.cols(), 3u);
  for (size_t t = 0; t < seq.size(); ++t) {
    const std::vector<double> want(table.row_data(t), table.row_data(t) + 3);
    EXPECT_TRUE(SameBits(Row(e, seq[t]), want)) << "frame " << t;
  }
}

// ------------------------------------------------------- emission rows ---
//
// Each family's row is pinned bit for bit against the per-entry expression
// it replaced, written out below, before and after an M-step (which must
// refresh the family's per-state constants).

constexpr double kLogSqrt2Pi = 0.9189385332046727;

double GaussianEntry(double y, double mu, double sigma) {
  double z = (y - mu) / sigma;
  return -0.5 * z * z - std::log(sigma) - kLogSqrt2Pi;
}

TEST(EmissionRowPinTest, GaussianRowMatchesPerEntryForm) {
  // State 0's sigma sits at the floor.
  GaussianEmission e(linalg::Vector{0.0, 1.5, -2.0},
                     linalg::Vector{1e-6, 0.7, 3.0}, /*sigma_floor=*/1e-4);
  ASSERT_EQ(e.sigma()[0], 1e-4);
  auto check = [](const GaussianEmission& g) {
    for (double y : {0.0, 0.25, -3.5, 1e300, -1e300, std::nan("")}) {
      std::vector<double> want(g.num_states());
      for (size_t i = 0; i < want.size(); ++i) {
        want[i] = GaussianEntry(y, g.mu()[i], g.sigma()[i]);
      }
      EXPECT_TRUE(SameBits(Row(g, y), want)) << "y = " << y;
    }
  };
  check(e);
  e.BeginAccumulate();
  e.Accumulate(0.3, linalg::Vector{0.5, 0.5, 0.0});
  e.Accumulate(1.1, linalg::Vector{0.2, 0.8, 0.0});
  e.Accumulate(2.0, linalg::Vector{0.1, 0.9, 0.0});
  e.FinishAccumulate();
  check(e);
}

TEST(EmissionRowPinTest, GmmRowMatchesPerEntryForm) {
  // State 1's first component has zero weight.
  GmmEmission e(linalg::Matrix{{0.2, 0.5, 0.3}, {0.0, 0.6, 0.4}},
                linalg::Matrix{{0.0, 2.0, -1.0}, {5.0, 1.0, 3.0}},
                linalg::Matrix{{1.0, 0.5, 2.0}, {0.3, 0.9, 0.8}});
  auto check = [](const GmmEmission& g) {
    const size_t m_count = g.num_components();
    for (double y : {0.0, 1.7, -4.0, 1e300, std::nan("")}) {
      std::vector<double> want(g.num_states());
      linalg::Vector comp(m_count);
      for (size_t i = 0; i < want.size(); ++i) {
        for (size_t m = 0; m < m_count; ++m) {
          const double w = g.weights()(i, m);
          comp[m] = w > 0.0 ? std::log(w) + GaussianEntry(y, g.mu()(i, m),
                                                          g.sigma()(i, m))
                            : kNegInf;
        }
        want[i] = LogSumExp(comp);
      }
      EXPECT_TRUE(SameBits(Row(g, y), want)) << "y = " << y;
    }
  };
  check(e);
  e.BeginAccumulate();
  for (double y : {-0.5, 0.4, 2.2, 3.1, 5.5, 0.9}) {
    e.Accumulate(y, linalg::Vector{0.7, 0.3});
  }
  e.FinishAccumulate();
  ASSERT_EQ(e.weights()(1, 0), 0.0);  // the dead component stays dead
  check(e);
}

TEST(EmissionRowPinTest, CategoricalRowMatchesPerEntryForm) {
  // Symbol 2 has probability zero under state 0.
  const linalg::Matrix b{{0.5, 0.5, 0.0}, {0.1, 0.2, 0.7}};
  CategoricalEmission e(b);
  auto check = [](const CategoricalEmission& c) {
    for (int y = 0; y < static_cast<int>(c.vocab_size()); ++y) {
      std::vector<double> want(c.num_states());
      for (size_t i = 0; i < want.size(); ++i) {
        const double p = c.b()(i, static_cast<size_t>(y));
        want[i] = p > 0.0 ? std::log(p) : kNegInf;
      }
      EXPECT_TRUE(SameBits(Row(c, y), want)) << "y = " << y;
    }
  };
  check(e);
  // The M-step over symbol-major counts yields the bits of the state-major
  // reference: counts added per frame, each state normalized by
  // NormalizeRows. Symbol 2 is never seen by state 0.
  const std::vector<std::pair<int, linalg::Vector>> frames = {
      {0, linalg::Vector{0.6, 0.4}}, {2, linalg::Vector{0.0, 1.0}},
      {1, linalg::Vector{0.3, 0.7}}, {0, linalg::Vector{0.9, 0.1}},
      {1, linalg::Vector{0.25, 0.75}}};
  linalg::Matrix counts(2, 3);
  e.BeginAccumulate();
  for (const auto& [y, q] : frames) {
    e.Accumulate(y, q);
    for (size_t i = 0; i < 2; ++i) counts(i, static_cast<size_t>(y)) += q[i];
  }
  e.FinishAccumulate();
  counts.NormalizeRows();
  EXPECT_EQ(std::memcmp(e.b().data(), counts.data(), 6 * sizeof(double)), 0);
  EXPECT_EQ(e.b()(0, 2), 0.0);
  check(e);
}

TEST(EmissionRowPinTest, CategoricalOutOfVocabularyRowIsImpossible) {
  CategoricalEmission e(linalg::Matrix{{0.5, 0.5, 0.0}, {0.1, 0.2, 0.7}});
  const std::vector<double> none(2, kNegInf);
  for (int y : {-1, 3, INT_MAX, INT_MIN}) {
    EXPECT_TRUE(SameBits(Row(e, y), none)) << "y = " << y;
  }
}

TEST(EmissionRowPinTest, BernoulliRowMatchesPerEntryForm) {
  Rng rng(25);
  const size_t dims = 13;
  BernoulliEmission e = BernoulliEmission::RandomInit(4, dims, rng);
  auto check = [&](const BernoulliEmission& ber) {
    for (int draw = 0; draw < 8; ++draw) {
      BinaryObs y(dims);
      for (size_t d = 0; d < dims; ++d) y[d] = rng.Bernoulli(0.5) ? 1 : 0;
      std::vector<double> want(ber.num_states());
      for (size_t i = 0; i < want.size(); ++i) {
        double s = 0.0;
        for (size_t d = 0; d < dims; ++d) {
          s += y[d] ? std::log(ber.p()(i, d)) : std::log(1.0 - ber.p()(i, d));
        }
        want[i] = s;
      }
      EXPECT_TRUE(SameBits(Row(ber, y), want)) << "draw " << draw;
    }
  };
  check(e);
  e.BeginAccumulate();
  for (int n = 0; n < 6; ++n) {
    BinaryObs y(dims);
    for (size_t d = 0; d < dims; ++d) y[d] = (d + n) % 3 == 0 ? 1 : 0;
    e.Accumulate(y, linalg::Vector{0.4, 0.3, 0.2, 0.1});
  }
  e.FinishAccumulate();
  check(e);
  // A vector of the wrong length is impossible under every state.
  const std::vector<double> none(4, kNegInf);
  EXPECT_TRUE(SameBits(Row(e, BinaryObs(dims + 1, 1)), none));
  EXPECT_TRUE(SameBits(Row(e, BinaryObs{}), none));
}

}  // namespace
}  // namespace dhmm::prob

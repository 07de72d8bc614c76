#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "checked_inference.h"
#include "hmm/diagnostics.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/sampler.h"
#include "hmm/sequence.h"
#include "hmm/supervised.h"
#include "hmm/trainer.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/logsumexp.h"

namespace dhmm::hmm {
namespace {

// Brute-force reference: enumerate all k^T state paths.
struct BruteForce {
  double log_likelihood;
  linalg::Matrix gamma;    // T x k
  linalg::Matrix xi_sum;   // k x k
  std::vector<int> viterbi_path;
  double viterbi_log_joint;
};

BruteForce Enumerate(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b) {
  const size_t k = pi.size();
  const size_t big_t = log_b.rows();
  size_t total = 1;
  for (size_t t = 0; t < big_t; ++t) total *= k;

  BruteForce out;
  out.gamma = linalg::Matrix(big_t, k);
  out.xi_sum = linalg::Matrix(k, k);
  out.viterbi_log_joint = prob::kNegInf;
  double z = 0.0;  // sum over paths of exp(logp - shift); two-pass for shift
  std::vector<double> logps(total);
  std::vector<std::vector<int>> paths(total);
  for (size_t code = 0; code < total; ++code) {
    std::vector<int> path(big_t);
    size_t c = code;
    for (size_t t = 0; t < big_t; ++t) {
      path[t] = static_cast<int>(c % k);
      c /= k;
    }
    double lp = std::log(pi[static_cast<size_t>(path[0])]) + log_b(0, path[0]);
    for (size_t t = 1; t < big_t; ++t) {
      lp += std::log(a(static_cast<size_t>(path[t - 1]),
                       static_cast<size_t>(path[t]))) +
            log_b(t, path[t]);
    }
    logps[code] = lp;
    paths[code] = path;
    if (lp > out.viterbi_log_joint) {
      out.viterbi_log_joint = lp;
      out.viterbi_path = path;
    }
  }
  double shift = out.viterbi_log_joint;
  for (size_t code = 0; code < total; ++code) {
    z += std::exp(logps[code] - shift);
  }
  out.log_likelihood = shift + std::log(z);
  for (size_t code = 0; code < total; ++code) {
    double w = std::exp(logps[code] - out.log_likelihood);
    const auto& path = paths[code];
    for (size_t t = 0; t < big_t; ++t) {
      out.gamma(t, static_cast<size_t>(path[t])) += w;
    }
    for (size_t t = 1; t < big_t; ++t) {
      out.xi_sum(static_cast<size_t>(path[t - 1]),
                 static_cast<size_t>(path[t])) += w;
    }
  }
  return out;
}

// Random test fixture pieces.
struct RandomCase {
  linalg::Vector pi;
  linalg::Matrix a;
  linalg::Matrix log_b;
};

RandomCase MakeRandomCase(size_t k, size_t big_t, uint64_t seed,
                          double emission_scale = 2.0) {
  prob::Rng rng(seed);
  RandomCase c;
  c.pi = rng.DirichletSymmetric(k, 1.5);
  c.a = rng.RandomStochasticMatrix(k, k, 1.5);
  c.log_b = linalg::Matrix(big_t, k);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) {
      c.log_b(t, i) = -emission_scale * rng.Uniform();
    }
  }
  return c;
}

// ----------------------------------------------------- ForwardBackward ---

class ForwardBackwardBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(ForwardBackwardBruteForceTest, MatchesEnumeration) {
  const int param = GetParam();
  size_t k = 2 + static_cast<size_t>(param) % 3;       // 2..4 states
  size_t big_t = 2 + static_cast<size_t>(param) % 5;   // 2..6 frames
  RandomCase c = MakeRandomCase(k, big_t, static_cast<uint64_t>(param) + 1);
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  BruteForce ref = Enumerate(c.pi, c.a, c.log_b);

  EXPECT_NEAR(fb.log_likelihood, ref.log_likelihood, 1e-9);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(fb.gamma(t, i), ref.gamma(t, i), 1e-9)
          << "gamma(" << t << "," << i << ")";
    }
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(fb.xi_sum(i, j), ref.xi_sum(i, j), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallChains, ForwardBackwardBruteForceTest,
                         ::testing::Range(0, 20));

TEST(ForwardBackwardTest, GammaRowsSumToOne) {
  RandomCase c = MakeRandomCase(5, 30, 99);
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  for (size_t t = 0; t < 30; ++t) {
    double s = 0.0;
    for (size_t i = 0; i < 5; ++i) s += fb.gamma(t, i);
    EXPECT_NEAR(s, 1.0, 1e-10);
  }
}

TEST(ForwardBackwardTest, XiSumTotalIsTMinusOne) {
  RandomCase c = MakeRandomCase(4, 25, 100);
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_NEAR(fb.xi_sum.sum(), 24.0, 1e-9);
}

TEST(ForwardBackwardTest, XiMarginalsMatchGamma) {
  // sum_j xi_t(i, j) aggregated over t equals sum_{t<T} gamma_t(i).
  RandomCase c = MakeRandomCase(3, 12, 101);
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  for (size_t i = 0; i < 3; ++i) {
    double xi_row = 0.0;
    for (size_t j = 0; j < 3; ++j) xi_row += fb.xi_sum(i, j);
    double gamma_sum = 0.0;
    for (size_t t = 0; t + 1 < 12; ++t) gamma_sum += fb.gamma(t, i);
    EXPECT_NEAR(xi_row, gamma_sum, 1e-9);
  }
}

TEST(ForwardBackwardTest, StableUnderExtremeLogProbs) {
  // 128-pixel-Bernoulli-scale log-probs (~ -90) must not underflow.
  RandomCase c = MakeRandomCase(4, 50, 102, /*emission_scale=*/0.0);
  for (size_t t = 0; t < 50; ++t) {
    for (size_t i = 0; i < 4; ++i) {
      c.log_b(t, i) = -90.0 - 10.0 * static_cast<double>(i);
    }
  }
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_TRUE(std::isfinite(fb.log_likelihood));
  EXPECT_LT(fb.log_likelihood, -4000.0);
}

TEST(ForwardBackwardTest, SingleFrameSequence) {
  RandomCase c = MakeRandomCase(3, 1, 103);
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  // gamma_0 proportional to pi * b.
  linalg::Vector expected(3);
  double z = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    expected[i] = c.pi[i] * std::exp(c.log_b(0, i));
    z += expected[i];
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(fb.gamma(0, i), expected[i] / z, 1e-12);
  }
  EXPECT_NEAR(fb.log_likelihood, std::log(z), 1e-12);
  EXPECT_NEAR(fb.xi_sum.sum(), 0.0, 1e-15);
}

TEST(ForwardBackwardTest, SingleStateDegenerateChain) {
  // k=1 exercises the kernel layer's shortest rows: gamma must be
  // identically 1 and the likelihood the plain sum of emission rows.
  linalg::Vector pi{1.0};
  linalg::Matrix a{{1.0}};
  linalg::Matrix log_b(5, 1);
  double expected = 0.0;
  for (size_t t = 0; t < 5; ++t) {
    log_b(t, 0) = -0.3 * static_cast<double>(t + 1);
    expected += log_b(t, 0);
  }
  ForwardBackwardResult fb = checked::ForwardBackward(pi, a, log_b);
  EXPECT_NEAR(fb.log_likelihood, expected, 1e-12);
  for (size_t t = 0; t < 5; ++t) EXPECT_DOUBLE_EQ(fb.gamma(t, 0), 1.0);
  EXPECT_DOUBLE_EQ(fb.xi_sum(0, 0), 4.0);
}

TEST(ViterbiTest, SingleFrameDecodesArgmaxOfPiTimesB) {
  RandomCase c = MakeRandomCase(4, 1, 105);
  ViterbiResult v = checked::Viterbi(c.pi, c.a, c.log_b);
  size_t best = 0;
  double best_v = prob::kNegInf;
  for (size_t i = 0; i < 4; ++i) {
    double s = std::log(c.pi[i]) + c.log_b(0, i);
    if (s > best_v) {
      best_v = s;
      best = i;
    }
  }
  ASSERT_EQ(v.path.size(), 1u);
  EXPECT_EQ(v.path[0], static_cast<int>(best));
  EXPECT_NEAR(v.log_joint, best_v, 1e-12);
}

TEST(LogLikelihoodTest, AgreesWithForwardBackward) {
  RandomCase c = MakeRandomCase(4, 17, 104);
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_NEAR(checked::LogLikelihood(c.pi, c.a, c.log_b), fb.log_likelihood,
              1e-10);
}

// ----------------------------------------------------------------- Viterbi ---

class ViterbiBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(ViterbiBruteForceTest, MatchesEnumeration) {
  const int param = GetParam();
  size_t k = 2 + static_cast<size_t>(param) % 3;
  size_t big_t = 2 + static_cast<size_t>(param) % 5;
  RandomCase c = MakeRandomCase(k, big_t, static_cast<uint64_t>(param) + 500);
  ViterbiResult v = checked::Viterbi(c.pi, c.a, c.log_b);
  BruteForce ref = Enumerate(c.pi, c.a, c.log_b);
  EXPECT_NEAR(v.log_joint, ref.viterbi_log_joint, 1e-10);
  // Paths can tie; verify our path achieves the optimal score.
  double lp = std::log(c.pi[static_cast<size_t>(v.path[0])]) +
              c.log_b(0, v.path[0]);
  for (size_t t = 1; t < big_t; ++t) {
    lp += std::log(c.a(static_cast<size_t>(v.path[t - 1]),
                       static_cast<size_t>(v.path[t]))) +
          c.log_b(t, v.path[t]);
  }
  EXPECT_NEAR(lp, ref.viterbi_log_joint, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(SmallChains, ViterbiBruteForceTest,
                         ::testing::Range(0, 20));

TEST(ViterbiTest, RespectsZeroTransitions) {
  // A forbids 0 -> 0; with emissions favoring state 0 everywhere, the path
  // must alternate.
  linalg::Vector pi{1.0, 0.0};
  linalg::Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  linalg::Matrix log_b(4, 2);
  for (size_t t = 0; t < 4; ++t) {
    log_b(t, 0) = 0.0;
    log_b(t, 1) = -1.0;
  }
  ViterbiResult v = checked::Viterbi(pi, a, log_b);
  EXPECT_EQ(v.path, (std::vector<int>{0, 1, 0, 1}));
}

TEST(ViterbiTest, LogJointNeverExceedsLogLikelihood) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomCase c = MakeRandomCase(3, 8, seed + 700);
    ViterbiResult v = checked::Viterbi(c.pi, c.a, c.log_b);
    double ll = checked::LogLikelihood(c.pi, c.a, c.log_b);
    EXPECT_LE(v.log_joint, ll + 1e-10);
  }
}

// ------------------------------------------------------------------- Model ---

hmm::HmmModel<int> MakeCategoricalModel(uint64_t seed, size_t k = 3,
                                        size_t v = 6) {
  prob::Rng rng(seed);
  return hmm::HmmModel<int>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(k, v, rng)));
}

TEST(ModelTest, CopyIsDeep) {
  HmmModel<int> m = MakeCategoricalModel(1);
  HmmModel<int> copy = m;
  copy.a(0, 0) += 0.1;
  EXPECT_NE(m.a(0, 0), copy.a(0, 0));
  EXPECT_NE(m.emission.get(), copy.emission.get());
}

TEST(ModelTest, ValidateAcceptsWellFormed) {
  HmmModel<int> m = MakeCategoricalModel(2);
  m.Validate();  // must not abort
  EXPECT_EQ(m.num_states(), 3u);
}

// ----------------------------------------------------------------- Sampler ---

TEST(SamplerTest, SequenceShapesAndLabelRanges) {
  HmmModel<int> m = MakeCategoricalModel(3);
  prob::Rng rng(9);
  Sequence<int> seq = SampleSequence(m, 25, rng);
  EXPECT_EQ(seq.length(), 25u);
  ASSERT_TRUE(seq.labeled());
  for (int l : seq.labels) EXPECT_TRUE(l >= 0 && l < 3);
  for (int o : seq.obs) EXPECT_TRUE(o >= 0 && o < 6);
}

TEST(SamplerTest, LabelTransitionFrequenciesTrackA) {
  // Deterministic-ish A: strong self-transitions.
  linalg::Matrix a{{0.9, 0.1}, {0.2, 0.8}};
  prob::Rng init_rng(4);
  HmmModel<int> m(linalg::Vector{0.5, 0.5}, a,
                  std::make_unique<prob::CategoricalEmission>(
                      prob::CategoricalEmission::RandomInit(2, 4, init_rng)));
  prob::Rng rng(10);
  linalg::Matrix counts(2, 2);
  for (int n = 0; n < 200; ++n) {
    Sequence<int> seq = SampleSequence(m, 50, rng);
    for (size_t t = 1; t < seq.length(); ++t) {
      counts(static_cast<size_t>(seq.labels[t - 1]),
             static_cast<size_t>(seq.labels[t])) += 1.0;
    }
  }
  counts.NormalizeRows();
  EXPECT_NEAR(counts(0, 0), 0.9, 0.03);
  EXPECT_NEAR(counts(1, 1), 0.8, 0.03);
}

TEST(SamplerTest, DatasetHasRequestedShape) {
  HmmModel<int> m = MakeCategoricalModel(5);
  prob::Rng rng(11);
  Dataset<int> data = SampleDataset(m, 7, 4, rng);
  EXPECT_EQ(data.size(), 7u);
  EXPECT_EQ(TotalFrames(data), 28u);
}

// --------------------------------------------------------------------- EM ---

TEST(EmTest, LogLikelihoodMonotone) {
  HmmModel<int> truth = MakeCategoricalModel(20, 3, 8);
  prob::Rng rng(21);
  Dataset<int> data = SampleDataset(truth, 60, 12, rng);
  HmmModel<int> model = MakeCategoricalModel(22, 3, 8);
  EmOptions opts;
  opts.max_iters = 25;
  opts.tol = 0.0;  // run all iterations
  EmResult r = FitEm(&model, data, opts);
  ASSERT_GE(r.loglik_history.size(), 2u);
  for (size_t i = 1; i < r.loglik_history.size(); ++i) {
    EXPECT_GE(r.loglik_history[i], r.loglik_history[i - 1] - 1e-7)
        << "EM iteration " << i << " decreased the likelihood";
  }
}

TEST(EmTest, ImprovesOverInitialModel) {
  HmmModel<int> truth = MakeCategoricalModel(23, 3, 8);
  prob::Rng rng(24);
  Dataset<int> data = SampleDataset(truth, 40, 10, rng);
  HmmModel<int> model = MakeCategoricalModel(25, 3, 8);
  double before = DatasetLogLikelihood(model, data);
  FitEm(&model, data, {.max_iters = 15});
  double after = DatasetLogLikelihood(model, data);
  EXPECT_GT(after, before);
}

TEST(EmTest, ConvergenceFlagSetOnEasyProblem) {
  HmmModel<int> truth = MakeCategoricalModel(26, 2, 4);
  prob::Rng rng(27);
  Dataset<int> data = SampleDataset(truth, 30, 8, rng);
  HmmModel<int> model = truth;  // start at the truth: fast convergence
  EmOptions opts;
  opts.max_iters = 200;
  opts.tol = 1e-5;
  EmResult r = FitEm(&model, data, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 200);
}

TEST(EmTest, FrozenPartsStayFrozen) {
  HmmModel<int> model = MakeCategoricalModel(28, 3, 6);
  linalg::Vector pi0 = model.pi;
  linalg::Matrix a0 = model.a;
  prob::Rng rng(29);
  Dataset<int> data = SampleDataset(model, 20, 6, rng);
  EmOptions opts;
  opts.max_iters = 3;
  opts.update_pi = false;
  opts.update_transitions = false;
  FitEm(&model, data, opts);
  for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(model.pi[i], pi0[i]);
  EXPECT_TRUE(model.a == a0);
}

TEST(EmTest, CustomTransitionMStepIsUsed) {
  HmmModel<int> model = MakeCategoricalModel(30, 3, 6);
  prob::Rng rng(31);
  Dataset<int> data = SampleDataset(model, 20, 6, rng);
  int calls = 0;
  EmOptions opts;
  opts.max_iters = 4;
  opts.tol = 0.0;
  opts.transition_m_step = [&](const linalg::Matrix& counts,
                               linalg::Matrix* a) {
    ++calls;
    *a = counts;
    a->NormalizeRows();
    return 0.0;
  };
  FitEm(&model, data, opts);
  EXPECT_EQ(calls, 4);
}

TEST(EmTest, RecoversParametersFromAbundantData) {
  // Well-separated Gaussian emissions: EM should find parameters whose
  // likelihood matches the generating model's.
  linalg::Vector pi{0.6, 0.4};
  linalg::Matrix a{{0.8, 0.2}, {0.3, 0.7}};
  HmmModel<double> truth(pi, a,
                         std::make_unique<prob::GaussianEmission>(
                             linalg::Vector{0.0, 5.0},
                             linalg::Vector{0.5, 0.5}));
  prob::Rng rng(32);
  Dataset<double> data = SampleDataset(truth, 150, 20, rng);

  prob::Rng init_rng(33);
  HmmModel<double> model(
      init_rng.DirichletSymmetric(2, 3.0),
      init_rng.RandomStochasticMatrix(2, 2, 3.0),
      std::make_unique<prob::GaussianEmission>(
          prob::GaussianEmission::RandomInit(2, init_rng, 2.5, 2.0)));
  FitEm(&model, data, {.max_iters = 60});

  double ll_truth = DatasetLogLikelihood(truth, data);
  double ll_model = DatasetLogLikelihood(model, data);
  EXPECT_GT(ll_model, ll_truth - 0.01 * std::fabs(ll_truth));

  // Emission means recovered up to state permutation.
  auto* em = dynamic_cast<prob::GaussianEmission*>(model.emission.get());
  ASSERT_NE(em, nullptr);
  double lo = std::min(em->mu()[0], em->mu()[1]);
  double hi = std::max(em->mu()[0], em->mu()[1]);
  EXPECT_NEAR(lo, 0.0, 0.15);
  EXPECT_NEAR(hi, 5.0, 0.15);
}

// -------------------------------------------------------------- Supervised ---

TEST(SupervisedTest, CountsMatchHandComputation) {
  Dataset<int> data;
  // Two labeled sequences over 2 states, 3 symbols.
  Sequence<int> s1;
  s1.obs = {0, 1, 2};
  s1.labels = {0, 0, 1};
  Sequence<int> s2;
  s2.obs = {2, 1};
  s2.labels = {1, 0};
  data = {s1, s2};

  std::unique_ptr<prob::EmissionModel<int>> emission =
      std::make_unique<prob::CategoricalEmission>(linalg::Matrix(
          {{1.0 / 3, 1.0 / 3, 1.0 / 3}, {1.0 / 3, 1.0 / 3, 1.0 / 3}}));
  HmmModel<int> m = FitSupervised(data, 2, std::move(emission));

  // pi: starts = {0, 1} -> (0.5, 0.5).
  EXPECT_NEAR(m.pi[0], 0.5, 1e-12);
  EXPECT_NEAR(m.pi[1], 0.5, 1e-12);
  // Transitions: 0->0 once, 0->1 once, 1->0 once.
  EXPECT_NEAR(m.a(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(m.a(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(m.a(1, 0), 1.0, 1e-12);
  // Emissions: state 0 saw {0, 1, 1}; state 1 saw {2, 2}.
  auto* em = dynamic_cast<prob::CategoricalEmission*>(m.emission.get());
  ASSERT_NE(em, nullptr);
  EXPECT_NEAR(em->b()(0, 1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(em->b()(1, 2), 1.0, 1e-12);
}

TEST(SupervisedTest, PseudoCountsSmoothUnseenTransitions) {
  Dataset<int> data;
  Sequence<int> s;
  s.obs = {0, 0};
  s.labels = {0, 0};
  data = {s};
  std::unique_ptr<prob::EmissionModel<int>> emission =
      std::make_unique<prob::CategoricalEmission>(
          linalg::Matrix({{0.5, 0.5}, {0.5, 0.5}}), 0.5);
  SupervisedOptions opts;
  opts.transition_pseudo_count = 1.0;
  opts.initial_pseudo_count = 1.0;
  HmmModel<int> m = FitSupervised(data, 2, std::move(emission), opts);
  EXPECT_GT(m.a(1, 0), 0.0);  // unseen state still has a smoothed row
  EXPECT_GT(m.pi[1], 0.0);
}

TEST(SupervisedTest, RecoversGeneratingParameters) {
  HmmModel<int> truth = MakeCategoricalModel(40, 3, 5);
  prob::Rng rng(41);
  Dataset<int> data = SampleDataset(truth, 400, 30, rng);
  std::unique_ptr<prob::EmissionModel<int>> emission =
      std::make_unique<prob::CategoricalEmission>(
          linalg::Matrix(3, 5, 0.2));
  HmmModel<int> m = FitSupervised(data, 3, std::move(emission));
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(m.a(i, j), truth.a(i, j), 0.02);
    }
  }
}

// --------------------------------------------------------- DecodeDataset ---

TEST(DecodeDatasetTest, PathsHaveMatchingLengths) {
  HmmModel<int> m = MakeCategoricalModel(60);
  prob::Rng rng(61);
  Dataset<int> data = SampleDataset(m, 6, 9, rng);
  auto paths = DecodeDataset(m, data);
  ASSERT_EQ(paths.size(), 6u);
  for (const auto& p : paths) EXPECT_EQ(p.size(), 9u);
}

TEST(DecodeDatasetTest, EasyEmissionsDecodePerfectly) {
  // Nearly deterministic emissions: symbol == state.
  linalg::Matrix b{{0.98, 0.01, 0.01}, {0.01, 0.98, 0.01},
                   {0.01, 0.01, 0.98}};
  prob::Rng rng(62);
  HmmModel<int> m(linalg::Vector(3, 1.0 / 3),
                  rng.RandomStochasticMatrix(3, 3, 5.0),
                  std::make_unique<prob::CategoricalEmission>(b));
  Dataset<int> data = SampleDataset(m, 30, 15, rng);
  auto paths = DecodeDataset(m, data);
  size_t correct = 0, total = 0;
  for (size_t s = 0; s < data.size(); ++s) {
    for (size_t t = 0; t < data[s].length(); ++t) {
      correct += paths[s][t] == data[s].labels[t];
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

// --------------------------------------- Diagnostics on periodic chains ---

TEST(DiagnosticsPeriodicTest, PermutationChainConvergesWithoutDamping) {
  // A 3-cycle is periodic; the naive pi <- pi A iteration oscillates at
  // damping = 0, but the lazy-chain iteration converges to the true
  // (uniform) stationary distribution.
  linalg::Matrix cycle{{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}};
  auto r = StationaryDistribution(cycle, /*max_iters=*/10000, /*tol=*/1e-12,
                                  /*damping=*/0.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(r.value()[i], 1.0 / 3.0, 1e-9);
}

TEST(DiagnosticsPeriodicTest, BipartiteChainExactStationaryWithoutDamping) {
  // Period-2 chain over classes {0} and {1, 2}; stationary distribution is
  // (1/2, 1/4, 1/4). The pre-fix iteration bounced between (2/3, 1/6, 1/6)
  // and uniform forever and silently returned whichever came last.
  linalg::Matrix a{{0.0, 0.5, 0.5}, {1.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  auto r = StationaryDistribution(a, /*max_iters=*/10000, /*tol=*/1e-12,
                                  /*damping=*/0.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r.value()[0], 0.5, 1e-9);
  EXPECT_NEAR(r.value()[1], 0.25, 1e-9);
  EXPECT_NEAR(r.value()[2], 0.25, 1e-9);
}

TEST(DiagnosticsPeriodicTest, NonConvergenceIsSurfacedNotSilent) {
  // A slow-mixing chain under a tiny iteration budget: the iterate is far
  // from stationary, and the old code would have returned it anyway.
  linalg::Matrix slow{{1.0 - 1e-9, 1e-9}, {2e-9, 1.0 - 2e-9}};
  auto r = StationaryDistribution(slow, /*max_iters=*/50);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotConverged);
}

TEST(DiagnosticsPeriodicTest, EntropyRateOnPeriodicChain) {
  // pi = (1/2, 1/4, 1/4); only state 0's row has entropy (log 2).
  linalg::Matrix a{{0.0, 0.5, 0.5}, {1.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  auto h = EntropyRate(a);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_NEAR(h.value(), 0.5 * std::log(2.0), 1e-8);
}

TEST(DiagnosticsPeriodicTest, MixtureCollapseGapOnPeriodicChain) {
  // 2-cycle: pi = (1/2, 1/2); each row is TV distance 1/2 from pi.
  linalg::Matrix cycle{{0.0, 1.0}, {1.0, 0.0}};
  auto gap = MixtureCollapseGap(cycle);
  ASSERT_TRUE(gap.ok()) << gap.status().ToString();
  EXPECT_NEAR(gap.value(), 0.5, 1e-8);
}

TEST(DiagnosticsPeriodicTest, DerivedDiagnosticsPropagateNonConvergence) {
  // This chain mixes far too slowly for the default iteration budget, so
  // the derived diagnostics must report the failure instead of computing
  // off a wrong iterate.
  linalg::Matrix slow{{1.0 - 1e-9, 1e-9}, {2e-9, 1.0 - 2e-9}};
  EXPECT_EQ(EntropyRate(slow).status().code(), StatusCode::kNotConverged);
  EXPECT_EQ(MixtureCollapseGap(slow).status().code(),
            StatusCode::kNotConverged);
}

}  // namespace
}  // namespace dhmm::hmm

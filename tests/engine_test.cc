// The batched inference engine: workspace kernels must reproduce the
// allocating kernels bitwise, pinned pre-refactor values must survive the
// cached-shifted-emissions and flat-backpointer rewrites, every batched
// reduction must be invariant to the thread count, and MAP-EM through the
// one EM loop must equal a loop with a separate likelihood pass bitwise.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "checked_inference.h"
#include "core/dhmm_trainer.h"
#include "core/transition_update.h"
#include "data/toy.h"
#include "dpp/logdet.h"
#include "hmm/engine.h"
#include "hmm/inference.h"
#include "hmm/posterior_decoding.h"
#include "hmm/trainer.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"

namespace dhmm::hmm {
namespace {

// Fixed 3-state, 4-frame chain used by the pinned regression tests.
struct PinnedChain {
  linalg::Vector pi{0.5, 0.3, 0.2};
  linalg::Matrix a{{0.6, 0.3, 0.1}, {0.2, 0.5, 0.3}, {0.3, 0.3, 0.4}};
  linalg::Matrix log_b{{-0.1, -1.2, -2.3},
                       {-1.0, -0.2, -0.7},
                       {-2.0, -0.3, -0.4},
                       {-0.5, -0.9, -0.1}};
};

// Values computed by the seed implementation (which called ShiftedEmissions
// up to three times per frame and used nested-vector backpointers) before
// the workspace refactor. The rewrite must reproduce them to 1e-12.
TEST(EngineRegressionTest, ForwardBackwardPinnedValues) {
  PinnedChain c;
  ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_NEAR(fb.log_likelihood, -2.3606710163800129, 1e-12);

  const double gamma[4][3] = {
      {0.75266503919421801, 0.2086403271407247, 0.038694633665057244},
      {0.25799299104274015, 0.60056175305671933, 0.1414452559005405},
      {0.089128556159183928, 0.56674813017857262, 0.34412331366224341},
      {0.26565712157670701, 0.27519040703209308, 0.45915247139119991}};
  const double xi[3][3] = {
      {0.34716877050779182, 0.60757366383055422, 0.14504415205779636},
      {0.15642284133557552, 0.6965333159862771, 0.52299405305416402},
      {0.10918705693526387, 0.13839331045055389, 0.27668283584202347}};
  for (size_t t = 0; t < 4; ++t) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(fb.gamma(t, i), gamma[t][i], 1e-12) << "t=" << t;
    }
  }
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(fb.xi_sum(i, j), xi[i][j], 1e-12) << "i=" << i;
    }
  }
}

TEST(EngineRegressionTest, ViterbiAndLogLikelihoodPinnedValues) {
  PinnedChain c;
  ViterbiResult vit = checked::Viterbi(c.pi, c.a, c.log_b);
  EXPECT_NEAR(vit.log_joint, -4.4942399697717628, 1e-12);
  EXPECT_EQ(vit.path, (std::vector<int>{0, 1, 1, 2}));
  EXPECT_NEAR(checked::LogLikelihood(c.pi, c.a, c.log_b), -2.3606710163800129,
              1e-12);
}

// Equal delta scores must resolve to the lowest state index, so storage
// rewrites of the backpointer table cannot silently change decoded paths.
TEST(ViterbiTest, TieBreaksToLowestStateIndex) {
  const size_t k = 3, big_t = 5;
  linalg::Vector pi(k, 1.0 / 3.0);
  linalg::Matrix a(k, k, 1.0 / 3.0);
  linalg::Matrix log_b(big_t, k, -1.25);  // every state ties at every frame
  ViterbiResult vit = checked::Viterbi(pi, a, log_b);
  for (size_t t = 0; t < big_t; ++t) {
    EXPECT_EQ(vit.path[t], 0) << "t=" << t;
  }
}

TEST(ViterbiTest, TieBreakWithPartialTies) {
  // States 1 and 2 tie as predecessors of every state; state 0 is worse.
  linalg::Vector pi{0.0, 0.5, 0.5};
  linalg::Matrix a{{0.8, 0.1, 0.1}, {0.25, 0.5, 0.25}, {0.25, 0.25, 0.5}};
  linalg::Matrix log_b(3, 3, -0.5);
  ViterbiResult vit = checked::Viterbi(pi, a, log_b);
  // pi ties states 1 and 2; both rows give the same transition scores into
  // their best successors, so the backtrack must consistently pick the
  // lower-numbered option.
  EXPECT_EQ(vit.path[0], 1);
}

TEST(ViterbiTest, NonFiniteScoreRejectedNotReturnedOk) {
  // A NaN observation makes a NaN emission row, so every delta from that
  // frame on is NaN. Viterbi must reject the sequence like the forward
  // paths do, never answer OK with a NaN log joint.
  linalg::Vector mu{0.0, 2.0};
  prob::GaussianEmission emission(mu, linalg::Vector(2, 1.0));
  const linalg::Vector pi{0.5, 0.5};
  const linalg::Matrix a{{0.9, 0.1}, {0.1, 0.9}};
  const linalg::Matrix log_b =
      checked::LogProbTable(emission, {0.1, std::nan(""), 1.9});
  InferenceWorkspace ws;
  ViterbiResult vit;
  const Status st = TryViterbi(pi, a, log_b, &ws, &vit);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
  ForwardBackwardResult fb;
  std::vector<int> path;
  EXPECT_EQ(TryPosteriorDecode(pi, a, log_b, &ws, &fb, &path).code(),
            StatusCode::kInvalidArgument);
  double ll = 0.0;
  EXPECT_EQ(
      TryLogLikelihoodRows(pi, a, MatrixLogBRows(log_b), &ws, &ll).code(),
      StatusCode::kInvalidArgument);
  // The same workspace still decodes a finite sequence.
  const linalg::Matrix good = checked::LogProbTable(emission, {0.1, 1.0, 1.9});
  ASSERT_TRUE(TryViterbi(pi, a, good, &ws, &vit).ok());
  EXPECT_TRUE(std::isfinite(vit.log_joint));
}

TEST(WorkspaceTest, MatchesAllocatingFormAcrossShapes) {
  prob::Rng rng(91);
  InferenceWorkspace ws;  // deliberately reused dirty across all shapes
  ForwardBackwardResult batched;
  ViterbiResult decoded;
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {5, 6}, {15, 24}, {26, 8}, {3, 250}, {15, 250}, {2, 1}};
  for (auto [k, big_t] : shapes) {
    linalg::Vector pi = rng.DirichletSymmetric(k, 1.5);
    linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
    linalg::Matrix log_b(big_t, k);
    for (size_t t = 0; t < big_t; ++t) {
      for (size_t i = 0; i < k; ++i) log_b(t, i) = -8.0 * rng.Uniform();
    }

    ForwardBackwardResult fresh = checked::ForwardBackward(pi, a, log_b);
    checked::Ok(hmm::TryForwardBackward(pi, a, log_b, &ws, &batched));
    EXPECT_DOUBLE_EQ(batched.log_likelihood, fresh.log_likelihood);
    ASSERT_EQ(batched.gamma.rows(), big_t);
    for (size_t t = 0; t < big_t; ++t) {
      for (size_t i = 0; i < k; ++i) {
        ASSERT_DOUBLE_EQ(batched.gamma(t, i), fresh.gamma(t, i));
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        ASSERT_DOUBLE_EQ(batched.xi_sum(i, j), fresh.xi_sum(i, j));
      }
    }

    EXPECT_DOUBLE_EQ(checked::LogLikelihood(pi, a, log_b, &ws),
                     checked::LogLikelihood(pi, a, log_b));

    ViterbiResult vit_fresh = checked::Viterbi(pi, a, log_b);
    checked::Ok(hmm::TryViterbi(pi, a, log_b, &ws, &decoded));
    EXPECT_DOUBLE_EQ(decoded.log_joint, vit_fresh.log_joint);
    EXPECT_EQ(decoded.path, vit_fresh.path);
  }
}

// ----------------------------------------------------------- BatchEStep ---

hmm::Dataset<double> MakeToyData(size_t num_sequences) {
  prob::Rng rng(1234);
  return data::GenerateToyDataset(/*sigma=*/0.4, num_sequences, /*length=*/6,
                                  rng);
}

TEST(BatchEStepTest, MatchesHandRolledSequentialEStep) {
  Dataset<double> data = MakeToyData(24);
  HmmModel<double> model = data::ToyGroundTruthModel(0.4);
  const size_t k = model.num_states();

  // Reference: the seed FitEm E-step, spelled out sequentially.
  linalg::Vector pi_acc(k);
  linalg::Matrix trans_acc(k, k);
  double loglik = 0.0;
  for (const auto& seq : data) {
    linalg::Matrix log_b = checked::LogProbTable(*model.emission, seq.obs);
    ForwardBackwardResult fb =
        checked::ForwardBackward(model.pi, model.a, log_b);
    loglik += fb.log_likelihood;
    for (size_t i = 0; i < k; ++i) pi_acc[i] += fb.gamma(0, i);
    trans_acc += fb.xi_sum;
  }

  for (int threads : {1, 2, 4}) {
    EStepStats stats =
        BatchEmEngine<double>(BatchOptions{threads}).EStep(model, data);
    EXPECT_DOUBLE_EQ(stats.log_likelihood, loglik) << threads;
    for (size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(stats.pi_acc[i], pi_acc[i]) << threads;
      for (size_t j = 0; j < k; ++j) {
        EXPECT_DOUBLE_EQ(stats.trans_acc(i, j), trans_acc(i, j)) << threads;
      }
    }
  }
}

TEST(BatchEStepTest, EngineReuseAcrossIterationsIsStable) {
  Dataset<double> data = MakeToyData(16);
  HmmModel<double> model = data::ToyGroundTruthModel(0.4);
  BatchEmEngine<double> engine(BatchOptions{2});
  EStepStats first = engine.EStep(model, data);
  for (int rep = 0; rep < 3; ++rep) {
    EStepStats again = engine.EStep(model, data);
    EXPECT_DOUBLE_EQ(again.log_likelihood, first.log_likelihood);
  }
  // Independent reference: one Try* call per sequence, log-likelihoods
  // summed in sequence order.
  InferenceWorkspace ws;
  double ll = 0.0;
  std::vector<std::vector<int>> paths;
  for (const auto& seq : data) {
    const linalg::Matrix log_b =
        checked::LogProbTable(*model.emission, seq.obs);
    double seq_ll = 0.0;
    ASSERT_TRUE(TryLogLikelihoodRows(model.pi, model.a, MatrixLogBRows(log_b),
                                     &ws, &seq_ll)
                    .ok());
    ll += seq_ll;
    ViterbiResult vit;
    ASSERT_TRUE(TryViterbi(model.pi, model.a, log_b, &ws, &vit).ok());
    paths.push_back(vit.path);
  }
  EXPECT_EQ(engine.LogLikelihood(model, data), ll);
  EXPECT_EQ(DatasetLogLikelihood(model, data), ll);
  EXPECT_EQ(engine.Decode(model, data), paths);
  EXPECT_EQ(DecodeDataset(model, data), paths);
}

// ------------------------------------------- thread-count determinism ---

TEST(EmDeterminismTest, FitEmLoglikHistoryBitwiseInvariantToThreads) {
  Dataset<double> data = MakeToyData(40);
  prob::Rng init_rng(77);
  HmmModel<double> init = data::ToyRandomInit(init_rng);

  EmOptions options;
  options.max_iters = 8;
  options.num_threads = 1;
  HmmModel<double> m1 = init;
  EmResult r1 = FitEm(&m1, data, options);
  ASSERT_EQ(r1.iterations, 8);

  for (int threads : {2, 4}) {
    options.num_threads = threads;
    HmmModel<double> mn = init;
    EmResult rn = FitEm(&mn, data, options);
    ASSERT_EQ(rn.loglik_history.size(), r1.loglik_history.size()) << threads;
    for (size_t i = 0; i < r1.loglik_history.size(); ++i) {
      // Bitwise: the engine reduces per-sequence statistics in sequence
      // order regardless of which worker produced them.
      EXPECT_EQ(rn.loglik_history[i], r1.loglik_history[i])
          << "threads=" << threads << " iter=" << i;
    }
    EXPECT_EQ(rn.final_loglik, r1.final_loglik) << threads;
    for (size_t i = 0; i < m1.pi.size(); ++i) {
      EXPECT_EQ(mn.pi[i], m1.pi[i]) << threads;
      for (size_t j = 0; j < m1.pi.size(); ++j) {
        EXPECT_EQ(mn.a(i, j), m1.a(i, j)) << threads;
      }
    }
  }
}

TEST(EmDeterminismTest, FitDiversifiedLoglikHistoryBitwiseInvariant) {
  Dataset<double> data = MakeToyData(24);
  prob::Rng init_rng(78);
  HmmModel<double> init = data::ToyRandomInit(init_rng);

  core::DiversifiedEmOptions options;
  options.alpha = 0.5;
  options.max_iters = 4;
  options.num_threads = 1;
  HmmModel<double> m1 = init;
  core::DiversifiedFitResult r1 = core::FitDiversifiedHmm(&m1, data, options);

  for (int threads : {2, 4}) {
    options.num_threads = threads;
    HmmModel<double> mn = init;
    core::DiversifiedFitResult rn =
        core::FitDiversifiedHmm(&mn, data, options);
    ASSERT_EQ(rn.loglik_history.size(), r1.loglik_history.size()) << threads;
    for (size_t i = 0; i < r1.loglik_history.size(); ++i) {
      EXPECT_EQ(rn.loglik_history[i], r1.loglik_history[i])
          << "threads=" << threads << " iter=" << i;
      EXPECT_EQ(rn.map_objective_history[i], r1.map_objective_history[i])
          << "threads=" << threads << " iter=" << i;
    }
    EXPECT_EQ(rn.final_map_objective, r1.final_map_objective) << threads;
  }
}

// ------------------------------------------------------- the one EM loop ---

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectSameBits(const std::vector<double>& x, const std::vector<double>& y,
                    const char* what) {
  ASSERT_EQ(x.size(), y.size()) << what;
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(SameBits(x[i], y[i])) << what << "[" << i << "]";
  }
}

void ExpectModelsSameBits(const HmmModel<double>& x, const HmmModel<double>& y,
                          const std::vector<double>& probe) {
  const size_t k = x.num_states();
  ASSERT_EQ(y.num_states(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(SameBits(x.pi[i], y.pi[i])) << "pi " << i;
    for (size_t j = 0; j < k; ++j) {
      EXPECT_TRUE(SameBits(x.a(i, j), y.a(i, j))) << "a " << i << j;
    }
  }
  const linalg::Matrix bx = checked::LogProbTable(*x.emission, probe);
  const linalg::Matrix by = checked::LogProbTable(*y.emission, probe);
  for (size_t t = 0; t < probe.size(); ++t) {
    for (size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(SameBits(bx(t, i), by(t, i))) << "log b " << t << i;
    }
  }
}

Dataset<double> LoopData() {
  prob::Rng rng(101);
  return data::GenerateToyDataset(/*sigma=*/0.4, /*num_sequences=*/30,
                                  /*length=*/12, rng);
}

HmmModel<double> LoopInit() {
  prob::Rng rng(201);
  return data::ToyRandomInit(rng);
}

// Reference MAP-EM with a separate likelihood pass per iteration: E-step,
// M-step, a full-data LogLikelihood of the updated parameters, then their
// log det. FitDiversifiedHmm takes the same objective from the next E-step.
core::DiversifiedFitResult SeparatePassMapEm(
    HmmModel<double>* model, const Dataset<double>& data,
    const core::DiversifiedEmOptions& o) {
  core::TransitionUpdateOptions update;
  update.alpha = o.alpha;
  update.rho = o.rho;
  update.ascent = o.ascent;
  update.row_floor = o.row_floor;
  core::TransitionUpdateWorkspace ws;
  core::TransitionUpdateResult m_result;
  BatchEmEngine<double> engine(
      BatchOptions{o.num_threads, o.checkpoint_threshold_frames});
  core::DiversifiedFitResult r;
  for (int iter = 0; iter < o.max_iters; ++iter) {
    EStepStats stats = engine.EStep(*model, data, model->emission.get());
    stats.pi_acc.NormalizeToSimplex();
    model->pi = stats.pi_acc;
    core::UpdateTransitions(model->a, stats.trans_acc, update, &ws,
                            &m_result);
    std::swap(model->a, m_result.a);
    model->emission->FinishAccumulate();
    const double ll = engine.LogLikelihood(*model, data);
    const double log_det =
        dpp::LogDetNormalizedKernel(model->a, o.rho, &ws.kernel);
    r.loglik_history.push_back(ll);
    r.map_objective_history.push_back(ll + o.alpha * log_det);
    ++r.iterations;
    if (iter > 0 && core::MapObjectiveConverged(
                        r.map_objective_history[iter - 1],
                        r.map_objective_history[iter], o.tol)) {
      r.converged = true;
      break;
    }
  }
  r.final_log_det = dpp::LogDetNormalizedKernel(model->a, o.rho, &ws.kernel);
  r.final_map_objective = r.map_objective_history.back();
  return r;
}

TEST(OneEmLoopTest, MapFitBitwiseEqualsSeparatePassReference) {
  const Dataset<double> data = LoopData();
  const HmmModel<double> init = LoopInit();
  int early_stops = 0;
  for (double alpha : {0.0, 0.5, 2.0}) {
    for (double tol : {0.0, 1e-4}) {
      for (size_t threshold : {size_t{0}, size_t{5}}) {
        for (int threads : {1, 3}) {
          SCOPED_TRACE(testing::Message()
                       << "alpha=" << alpha << " tol=" << tol
                       << " threshold=" << threshold
                       << " threads=" << threads);
          core::DiversifiedEmOptions o;
          o.alpha = alpha;
          o.tol = tol;
          o.max_iters = 40;
          o.checkpoint_threshold_frames = threshold;
          o.num_threads = threads;
          HmmModel<double> want_model = init;
          const core::DiversifiedFitResult want =
              SeparatePassMapEm(&want_model, data, o);
          HmmModel<double> got_model = init;
          const core::DiversifiedFitResult got =
              core::FitDiversifiedHmm(&got_model, data, o);
          ExpectSameBits(got.map_objective_history,
                         want.map_objective_history, "map_objective_history");
          ExpectSameBits(got.loglik_history, want.loglik_history,
                         "loglik_history");
          EXPECT_EQ(got.iterations, want.iterations);
          EXPECT_EQ(got.converged, want.converged);
          EXPECT_TRUE(SameBits(got.final_log_det, want.final_log_det));
          EXPECT_TRUE(
              SameBits(got.final_map_objective, want.final_map_objective));
          ExpectModelsSameBits(got_model, want_model, data[0].obs);
          if (got.converged && got.iterations < o.max_iters) ++early_stops;
        }
      }
    }
  }
  // The grid must reach the stop-before-the-M-step path, not only max_iters.
  EXPECT_GT(early_stops, 0);
}

TEST(OneEmLoopTest, EStepLogLikelihoodIsTheForwardPassBitwise) {
  const Dataset<double> data = LoopData();
  for (const HmmModel<double>& model :
       {LoopInit(), data::ToyGroundTruthModel(0.4)}) {
    for (size_t threshold : {size_t{0}, size_t{5}}) {
      for (int threads : {1, 3}) {
        BatchEmEngine<double> engine(BatchOptions{threads, threshold});
        const double estep = engine.EStep(model, data).log_likelihood;
        const double forward = engine.LogLikelihood(model, data);
        EXPECT_TRUE(SameBits(estep, forward))
            << "threshold=" << threshold << " threads=" << threads;
      }
    }
  }
}

TEST(OneEmLoopTest, MaximumLikelihoodFitStopsOnTheMeasuredParameters) {
  const Dataset<double> data = LoopData();
  HmmModel<double> model = LoopInit();
  int calls = 0;
  EmOptions options;
  options.max_iters = 200;
  options.tol = 1e-5;
  options.transition_m_step = [&](const linalg::Matrix& counts,
                                  linalg::Matrix* a) {
    ++calls;
    *a = counts;
    a->NormalizeRows();
    return 0.0;
  };
  const EmResult r = FitEm(&model, data, options);
  ASSERT_TRUE(r.converged);
  ASSERT_LT(r.iterations, options.max_iters);
  EXPECT_EQ(calls, r.iterations);

  // One objective per M-step, each measured by the E-step that follows it.
  const std::vector<double>& obj = r.objective_history;
  ASSERT_EQ(obj.size(), static_cast<size_t>(r.iterations));
  ASSERT_EQ(r.loglik_history.size(), obj.size());
  for (size_t i = 0; i + 1 < obj.size(); ++i) {
    EXPECT_TRUE(SameBits(obj[i], r.loglik_history[i + 1])) << i;
  }
  // The fit stops at the first pair that passes the rule.
  const size_t n = obj.size();
  ASSERT_GE(n, 2u);
  EXPECT_TRUE(core::MapObjectiveConverged(obj[n - 2], obj[n - 1], options.tol));
  for (size_t i = 1; i + 1 < n; ++i) {
    EXPECT_FALSE(core::MapObjectiveConverged(obj[i - 1], obj[i], options.tol))
        << i;
  }
  // It returns the parameters that last E-step measured.
  EXPECT_TRUE(SameBits(r.final_loglik, obj[n - 1]));
  EXPECT_TRUE(SameBits(r.final_loglik, DatasetLogLikelihood(model, data)));
}

// -------------------------------------------- checkpointed sweep bitwise ---

linalg::Matrix RandomLogB(size_t big_t, size_t k, prob::Rng& rng) {
  linalg::Matrix log_b(big_t, k);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) log_b(t, i) = -8.0 * rng.Uniform();
  }
  return log_b;
}

TEST(CheckpointedFbTest, BitwiseGridAgainstFullSweep) {
  prob::Rng rng(4242);
  InferenceWorkspace ws_full;
  InferenceWorkspace ws_cp;  // deliberately reused dirty across the grid
  ForwardBackwardResult full;
  ForwardBackwardResult cp;
  linalg::Matrix gamma_no_xi;
  for (size_t big_t : {size_t{1}, size_t{2}, size_t{1000}, size_t{1001},
                       size_t{4096}}) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
      linalg::Vector pi = rng.DirichletSymmetric(k, 1.5);
      linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
      linalg::Matrix log_b = RandomLogB(big_t, k, rng);
      ASSERT_TRUE(TryForwardBackward(pi, a, log_b, &ws_full, &full).ok());
      // panel 0 = auto ceil(sqrt(T)); the explicit sizes hit the extreme
      // panelings (every frame a checkpoint / one giant panel).
      for (size_t panel : {size_t{0}, size_t{1}, size_t{7}, big_t}) {
        CheckpointedGammaSinks sinks;
        sinks.gamma_out = &cp.gamma;
        ASSERT_TRUE(TryForwardBackwardCheckpointed(
                        pi, a, MatrixLogBRows(log_b), panel, &ws_cp, sinks,
                        &cp.xi_sum, &cp.log_likelihood)
                        .ok());
        // Bitwise, not approximate: the checkpointed sweep replays the
        // identical kernel calls on identical input bits.
        ASSERT_EQ(cp.log_likelihood, full.log_likelihood)
            << "T=" << big_t << " k=" << k << " panel=" << panel;
        EXPECT_EQ(std::memcmp(cp.gamma.data(), full.gamma.data(),
                              big_t * k * sizeof(double)),
                  0)
            << "T=" << big_t << " k=" << k << " panel=" << panel;
        EXPECT_EQ(std::memcmp(cp.xi_sum.data(), full.xi_sum.data(),
                              k * k * sizeof(double)),
                  0)
            << "T=" << big_t << " k=" << k << " panel=" << panel;

        // Without an xi sum the descent runs the beta-only step; its
        // gamma rows and log-likelihood are the xi run's bits.
        sinks.gamma_out = &gamma_no_xi;
        double ll_no_xi = 0.0;
        ASSERT_TRUE(TryForwardBackwardCheckpointed(
                        pi, a, MatrixLogBRows(log_b), panel, &ws_cp, sinks,
                        /*xi_sum=*/nullptr, &ll_no_xi)
                        .ok());
        EXPECT_TRUE(SameBits(ll_no_xi, cp.log_likelihood))
            << "T=" << big_t << " k=" << k << " panel=" << panel;
        EXPECT_EQ(std::memcmp(gamma_no_xi.data(), cp.gamma.data(),
                              big_t * k * sizeof(double)),
                  0)
            << "T=" << big_t << " k=" << k << " panel=" << panel;
      }
    }
  }
}

TEST(CheckpointedFbTest, RowsLogLikelihoodMatchesTableBitwise) {
  prob::Rng rng(4243);
  InferenceWorkspace ws;
  for (size_t big_t : {size_t{1}, size_t{37}, size_t{1000}}) {
    const size_t k = 6;
    linalg::Vector pi = rng.DirichletSymmetric(k, 1.5);
    linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
    linalg::Matrix log_b = RandomLogB(big_t, k, rng);
    // The forward-only pass and the full sweep over the table share
    // their forward frames, so they agree bit for bit.
    ForwardBackwardResult sweep;
    double from_rows = 0.0;
    ASSERT_TRUE(TryForwardBackward(pi, a, log_b, &ws, &sweep).ok());
    ASSERT_TRUE(
        TryLogLikelihoodRows(pi, a, MatrixLogBRows(log_b), &ws, &from_rows)
            .ok());
    EXPECT_EQ(from_rows, sweep.log_likelihood);
  }
}

TEST(CheckpointedFbTest, PosteriorDecodePathsBitwiseIdentical) {
  prob::Rng rng(4244);
  InferenceWorkspace ws;
  ForwardBackwardResult fb_full;
  ForwardBackwardResult fb_decode;
  std::vector<int> path_one_panel;
  std::vector<int> path_cp;
  for (size_t big_t : {size_t{1}, size_t{300}, size_t{1001}}) {
    const size_t k = 5;
    linalg::Vector pi = rng.DirichletSymmetric(k, 1.5);
    linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
    linalg::Matrix log_b = RandomLogB(big_t, k, rng);
    // The reference: the full xi-accumulating sweep, argmaxed per row.
    ASSERT_TRUE(TryForwardBackward(pi, a, log_b, &ws, &fb_full).ok());
    std::vector<int> path_full(big_t);
    for (size_t t = 0; t < big_t; ++t) {
      const double* g = fb_full.gamma.row_data(t);
      path_full[t] = static_cast<int>(std::max_element(g, g + k) - g);
    }
    ASSERT_TRUE(TryPosteriorDecode(pi, a, log_b, &ws, &fb_decode,
                                   &path_one_panel)
                    .ok());
    EXPECT_EQ(path_one_panel, path_full) << big_t;
    EXPECT_TRUE(SameBits(fb_decode.log_likelihood, fb_full.log_likelihood))
        << big_t;
    // panel_frames 0: ceil(sqrt(T)) panels, gamma argmaxed row by row.
    double log_lik_cp = 0.0;
    ASSERT_TRUE(TryPosteriorDecodeRows(pi, a, MatrixLogBRows(log_b),
                                       /*panel_frames=*/0, &ws, &log_lik_cp,
                                       &path_cp)
                    .ok());
    EXPECT_EQ(path_cp, path_full) << big_t;
    EXPECT_TRUE(SameBits(log_lik_cp, fb_full.log_likelihood)) << big_t;
  }
}

TEST(CheckpointedFbTest, FitEmBitwiseInvariantToCheckpointingAndThreads) {
  Dataset<double> data = MakeToyData(32);
  prob::Rng init_rng(79);
  HmmModel<double> init = data::ToyRandomInit(init_rng);

  EmOptions options;
  options.max_iters = 6;
  options.num_threads = 1;
  options.checkpoint_threshold_frames = 0;  // full path everywhere
  HmmModel<double> m_full = init;
  EmResult r_full = FitEm(&m_full, data, options);

  for (int threads : {1, 2, 4}) {
    options.num_threads = threads;
    options.checkpoint_threshold_frames = 1;  // checkpointed everywhere
    HmmModel<double> m_cp = init;
    EmResult r_cp = FitEm(&m_cp, data, options);
    ASSERT_EQ(r_cp.loglik_history.size(), r_full.loglik_history.size());
    for (size_t i = 0; i < r_full.loglik_history.size(); ++i) {
      EXPECT_EQ(r_cp.loglik_history[i], r_full.loglik_history[i])
          << "threads=" << threads << " iter=" << i;
    }
    for (size_t i = 0; i < m_full.pi.size(); ++i) {
      EXPECT_EQ(m_cp.pi[i], m_full.pi[i]) << threads;
      for (size_t j = 0; j < m_full.pi.size(); ++j) {
        EXPECT_EQ(m_cp.a(i, j), m_full.a(i, j)) << threads;
      }
    }
  }
}

TEST(CheckpointedFbTest, FitDiversifiedBitwiseInvariantToCheckpointing) {
  Dataset<double> data = MakeToyData(20);
  prob::Rng init_rng(80);
  HmmModel<double> init = data::ToyRandomInit(init_rng);

  core::DiversifiedEmOptions options;
  options.alpha = 0.5;
  options.max_iters = 3;
  options.num_threads = 2;
  options.checkpoint_threshold_frames = 0;
  HmmModel<double> m_full = init;
  core::DiversifiedFitResult r_full =
      core::FitDiversifiedHmm(&m_full, data, options);

  options.checkpoint_threshold_frames = 1;
  HmmModel<double> m_cp = init;
  core::DiversifiedFitResult r_cp =
      core::FitDiversifiedHmm(&m_cp, data, options);
  ASSERT_EQ(r_cp.loglik_history.size(), r_full.loglik_history.size());
  for (size_t i = 0; i < r_full.loglik_history.size(); ++i) {
    EXPECT_EQ(r_cp.loglik_history[i], r_full.loglik_history[i]) << i;
    EXPECT_EQ(r_cp.map_objective_history[i], r_full.map_objective_history[i])
        << i;
  }
  EXPECT_EQ(r_cp.final_map_objective, r_full.final_map_objective);
}

// The memory contract the whole tentpole exists for: an E-step over one
// million frames at k = 20 through the checkpointed sweep. The full path
// would materialize the T x k emission table plus a T x k gamma — 160 MB
// each; the checkpointed path allocates O(sqrt(T) * k) panels plus the
// O(T) scale vector and observation copies, tens of MB in total. The bound
// below fails loudly if anyone reintroduces a T x k buffer on this path.
TEST(CheckpointedMemoryTest, MillionFrameEStepStaysSubTableMemory) {
  const size_t k = 20;
  const size_t frames = 1000000;
  prob::Rng rng(81);
  HmmModel<double> model(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::GaussianEmission>(
          prob::GaussianEmission::RandomInit(k, rng)));
  Dataset<double> data(1);
  data[0].obs.resize(frames);
  for (size_t t = 0; t < frames; ++t) data[0].obs[t] = rng.Gaussian(3.0, 2.0);

  BatchEmEngine<double> engine(
      BatchOptions{/*num_threads=*/1, /*checkpoint_threshold_frames=*/4096});
  std::unique_ptr<prob::EmissionModel<double>> em_acc = model.emission->Clone();

  const long long before = alloc_counter::Bytes();
  const EStepStats stats = engine.EStep(model, data, em_acc.get());
  const long long delta = alloc_counter::Bytes() - before;

  EXPECT_EQ(stats.frames, frames);
  EXPECT_GT(stats.sequences, 0u);
  // One full T x k table alone is 160 MB; everything the checkpointed
  // E-step allocates together must stay far under that.
  EXPECT_LT(delta, 40ll << 20) << "checkpointed E-step allocated " << delta;
}

}  // namespace
}  // namespace dhmm::hmm

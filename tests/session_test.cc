// The train→serve-loop contract (the PR-7 counterpart of the serve-layer
// tests):
//  - incremental EM: one AccumulateBatch over the full dataset followed by
//    Step() reproduces one hmm::FitEm iteration bitwise — and tiling the
//    dataset into ordered mini-batches changes nothing — for the ML and
//    the DPP-diversified transition update, for every thread count,
//  - SessionManager full-lag decodes and running log-likelihoods are
//    bitwise equal to offline PosteriorDecode / LogLikelihood for every
//    pusher-thread count and stream length,
//  - a session's running log-likelihood is bitwise equal to offline
//    LogLikelihood after every push; fixed-lag labels arrive on time and
//    Finish flushes the rest; lag 0 is exact filtering,
//  - steady-state Push, a warm CreateSession / DestroySession cycle, and
//    ResetSession (also after a same-shape UpdateModel) make zero heap
//    allocations (instrumented operator new),
//  - an impossible observation poisons only its session until
//    ResetSession, and UpdateModel + ResetSession restarts the stream on
//    the new model,
//  - generation-stamped handles: a destroyed session's handle resolves
//    NotFound everywhere, and EvictIdle never touches a session whose
//    push is still in flight,
//  - the closed loop: live session posteriors feed the trainer, Step()
//    improves the dataset log-likelihood, and the snapshot hot-swaps into
//    the manager.
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "checked_inference.h"
#include "core/incremental_em.h"
#include "core/transition_update.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/posterior_decoding.h"
#include "hmm/sampler.h"
#include "hmm/sequence.h"
#include "hmm/trainer.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"
#include "serve/session_manager.h"

namespace dhmm {
namespace {

std::shared_ptr<const hmm::HmmModel<double>> MakeModel(size_t k,
                                                       uint64_t seed) {
  prob::Rng rng(seed);
  linalg::Vector mu(k);
  linalg::Vector sigma(k, 0.8);
  for (size_t i = 0; i < k; ++i) mu[i] = static_cast<double>(i);
  return std::make_shared<const hmm::HmmModel<double>>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::GaussianEmission>(mu, sigma));
}

hmm::Dataset<double> MakeData(const hmm::HmmModel<double>& model,
                              size_t count, size_t length, uint64_t seed) {
  prob::Rng rng(seed);
  return hmm::SampleDataset(model, count, length, rng);
}

void ExpectModelsBitwiseEqual(const hmm::HmmModel<double>& x,
                              const hmm::HmmModel<double>& y,
                              const std::vector<double>& probe) {
  ASSERT_EQ(x.num_states(), y.num_states());
  const size_t k = x.num_states();
  for (size_t i = 0; i < k; ++i) EXPECT_EQ(x.pi[i], y.pi[i]);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(x.a(i, j), y.a(i, j));
  }
  // Family-agnostic bitwise emission comparison: identical parameters
  // produce identical log-probability tables on any probe sequence.
  const linalg::Matrix bx = x.emission->LogProbTable(probe);
  const linalg::Matrix by = y.emission->LogProbTable(probe);
  for (size_t t = 0; t < probe.size(); ++t) {
    for (size_t i = 0; i < k; ++i) EXPECT_EQ(bx(t, i), by(t, i));
  }
}

// ---------------------------------------------------- incremental EM (ML) ---

TEST(IncrementalEmTest, MiniBatchRoundsReproduceFitEmBitwise) {
  auto init = MakeModel(4, 71);
  hmm::Dataset<double> data = MakeData(*init, 8, 19, 72);
  const std::vector<double>& probe = data[0].obs;
  constexpr int kRounds = 3;

  for (int threads : {1, 3}) {
    for (double alpha : {0.0, 0.5}) {
      // Reference: hmm::FitEm, with the paper's DPP transition update
      // injected through the persistent workspace when alpha > 0 (the
      // FitDiversifiedHmm wiring). tol = 0 disables early convergence so
      // exactly kRounds iterations run.
      core::IncrementalEmOptions io;
      io.alpha = alpha;
      io.num_threads = threads;
      core::TransitionUpdateOptions uo;
      uo.alpha = io.alpha;
      uo.rho = io.rho;
      uo.ascent = io.ascent;
      uo.row_floor = io.row_floor;
      core::TransitionUpdateWorkspace ws;
      core::TransitionUpdateResult res;
      hmm::EmOptions em;
      em.max_iters = kRounds;
      em.tol = 0.0;
      em.num_threads = threads;
      if (alpha > 0.0) {
        em.transition_m_step = [&](const linalg::Matrix& counts,
                                   linalg::Matrix* a) {
          core::UpdateTransitions(*a, counts, uo, &ws, &res);
          std::swap(*a, res.a);
          return 0.0;
        };
      }
      hmm::HmmModel<double> ref(*init);
      const hmm::EmResult ref_result = hmm::FitEm(&ref, data, em);
      ASSERT_EQ(ref_result.iterations, kRounds);

      // Trainer: the same rounds as ordered mini-batches. Tiling the
      // dataset across AccumulateBatch calls must leave the statistics —
      // and therefore the fit — bitwise unchanged.
      core::IncrementalEmTrainer<double> trainer(init, io);
      for (int round = 0; round < kRounds; ++round) {
        hmm::Dataset<double> tile_a(data.begin(), data.begin() + 3);
        hmm::Dataset<double> tile_b(data.begin() + 3, data.begin() + 5);
        hmm::Dataset<double> tile_c(data.begin() + 5, data.end());
        trainer.AccumulateBatch(tile_a);
        trainer.AccumulateBatch(tile_b);
        trainer.AccumulateBatch(tile_c);
        EXPECT_EQ(trainer.round_log_likelihood(),
                  ref_result.loglik_history[static_cast<size_t>(round)]);
        EXPECT_EQ(trainer.frames_accumulated(), 8u * 19u);
        trainer.Step();
      }
      EXPECT_EQ(trainer.steps(), static_cast<uint64_t>(kRounds));
      ExpectModelsBitwiseEqual(*trainer.snapshot(), ref, probe);
    }
  }
}

TEST(IncrementalEmTest, StepWithNothingAccumulatedIsANoOp) {
  auto init = MakeModel(3, 81);
  core::IncrementalEmTrainer<double> trainer(init);
  auto before = trainer.snapshot();
  EXPECT_EQ(trainer.Step().get(), before.get());  // same snapshot pointer
  EXPECT_EQ(trainer.steps(), 0u);
}

// ----------------------------------------------------- session decodes ------

TEST(SessionManagerTest, FullLagDecodesMatchOfflineBitwiseForEveryPusherCount) {
  auto model = MakeModel(4, 91);
  const size_t kLen = 14;
  hmm::Dataset<double> data = MakeData(*model, 8, kLen, 92);
  // The shortest streams: Finish flushes one frame, or two.
  for (size_t len : {1, 2}) {
    data.push_back(MakeData(*model, 1, len, 92 + len)[0]);
  }

  std::vector<std::vector<int>> want_paths;
  std::vector<double> want_loglik;
  for (const auto& seq : data) {
    const linalg::Matrix log_b = model->emission->LogProbTable(seq.obs);
    want_paths.push_back(checked::PosteriorDecode(model->pi, model->a, log_b));
    want_loglik.push_back(checked::LogLikelihood(model->pi, model->a, log_b));
  }

  for (int pushers : {1, 4}) {
    serve::SessionManagerOptions opts;
    opts.lag = kLen;  // full lag: everything flushes at Finish
    serve::SessionManager<double> mgr(model, opts);

    std::vector<serve::SessionHandle> handles(data.size());
    for (size_t s = 0; s < data.size(); ++s) {
      auto created = mgr.CreateSession();
      ASSERT_TRUE(created.ok());
      handles[s] = created.value();
    }
    EXPECT_EQ(mgr.live_sessions(), data.size());

    // One pusher owns each session end-to-end (the per-stream single-pusher
    // contract); distinct sessions push concurrently.
    std::vector<std::vector<int>> got_paths(data.size());
    std::vector<int> push_failures{0};
    std::mutex fail_mu;
    std::vector<std::thread> threads;
    for (int tid = 0; tid < pushers; ++tid) {
      threads.emplace_back([&, tid] {
        for (size_t s = static_cast<size_t>(tid); s < data.size();
             s += static_cast<size_t>(pushers)) {
          for (const double y : data[s].obs) {
            int label = -2;
            const Status st = mgr.Push(handles[s], y, &label);
            if (!st.ok() || label != -1) {  // full lag: no label until Finish
              std::lock_guard<std::mutex> lock(fail_mu);
              ++push_failures[0];
            }
          }
          const Status st = mgr.Finish(handles[s], &got_paths[s]);
          if (!st.ok()) {
            std::lock_guard<std::mutex> lock(fail_mu);
            ++push_failures[0];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(push_failures[0], 0);

    for (size_t s = 0; s < data.size(); ++s) {
      EXPECT_EQ(got_paths[s], want_paths[s]) << "sequence " << s;
      auto ll = mgr.LogLikelihood(handles[s]);
      ASSERT_TRUE(ll.ok());
      EXPECT_EQ(ll.value(), want_loglik[s]);  // bitwise
      auto frames = mgr.FramesPushed(handles[s]);
      ASSERT_TRUE(frames.ok());
      EXPECT_EQ(frames.value(), data[s].obs.size());
    }
  }
}

TEST(SessionManagerTest, ResetSessionRestartsAStreamInPlace) {
  auto model = MakeModel(3, 95);
  hmm::Dataset<double> data = MakeData(*model, 1, 9, 96);
  serve::SessionManagerOptions opts;
  opts.lag = data[0].obs.size();
  serve::SessionManager<double> mgr(model, opts);
  auto created = mgr.CreateSession();
  ASSERT_TRUE(created.ok());
  const serve::SessionHandle h = created.value();

  const linalg::Matrix log_b = model->emission->LogProbTable(data[0].obs);
  const std::vector<int> want =
      checked::PosteriorDecode(model->pi, model->a, log_b);

  for (int run = 0; run < 2; ++run) {
    int label;
    for (const double y : data[0].obs) ASSERT_TRUE(mgr.Push(h, y, &label).ok());
    std::vector<int> got;
    ASSERT_TRUE(mgr.Finish(h, &got).ok());
    EXPECT_EQ(got, want);
    // A finished stream rejects further pushes until the reset.
    EXPECT_EQ(mgr.Push(h, 0.0, &label).code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE(mgr.ResetSession(h).ok());
    auto frames = mgr.FramesPushed(h);
    ASSERT_TRUE(frames.ok());
    EXPECT_EQ(frames.value(), 0u);
  }
}

// Offline log P(y_0..y_{n-1}) of a stream prefix.
double PrefixLogLikelihood(const hmm::HmmModel<double>& model,
                           const std::vector<double>& obs, size_t n) {
  const std::vector<double> prefix(obs.begin(), obs.begin() + n);
  const linalg::Matrix log_b = model.emission->LogProbTable(prefix);
  hmm::InferenceWorkspace ws;
  double ll = 0.0;
  EXPECT_TRUE(hmm::TryLogLikelihoodRows(model.pi, model.a,
                                        hmm::MatrixLogBRows(log_b), &ws, &ll)
                  .ok());
  return ll;
}

TEST(SessionManagerTest, PrefixLogLikelihoodMatchesOfflineBitwise) {
  auto model = MakeModel(5, 71);
  hmm::Dataset<double> data = MakeData(*model, 1, 20, 72);
  const std::vector<double>& obs = data[0].obs;
  serve::SessionManagerOptions opts;
  opts.lag = 3;
  serve::SessionManager<double> mgr(model, opts);
  const serve::SessionHandle h = mgr.CreateSession().value();
  for (size_t t = 0; t < obs.size(); ++t) {
    int label;
    ASSERT_TRUE(mgr.Push(h, obs[t], &label).ok());
    EXPECT_EQ(mgr.LogLikelihood(h).value(),
              PrefixLogLikelihood(*model, obs, t + 1))
        << "prefix length " << t + 1;
  }
}

TEST(SessionManagerTest, FixedLagEmitsOnTimeAndFinishFlushesTheRest) {
  auto model = MakeModel(4, 91);
  hmm::Dataset<double> data = MakeData(*model, 1, 12, 92);
  const std::vector<double>& obs = data[0].obs;
  serve::SessionManagerOptions opts;
  opts.lag = 4;
  serve::SessionManager<double> mgr(model, opts);
  const serve::SessionHandle h = mgr.CreateSession().value();
  std::vector<int> labels;
  for (size_t t = 0; t < obs.size(); ++t) {
    int label;
    ASSERT_TRUE(mgr.Push(h, obs[t], &label).ok());
    // A label comes back from the (lag + 1)-th push on.
    EXPECT_EQ(label >= 0, t >= opts.lag) << "push " << t;
    if (label >= 0) labels.push_back(label);
  }
  EXPECT_EQ(labels.size(), obs.size() - opts.lag);
  ASSERT_TRUE(mgr.Finish(h, &labels).ok());
  ASSERT_EQ(labels.size(), obs.size());
  // The final `lag` frames are smoothed against the true end of the
  // sequence, so they agree exactly with offline posterior decoding.
  const linalg::Matrix log_b = model->emission->LogProbTable(obs);
  const std::vector<int> offline =
      checked::PosteriorDecode(model->pi, model->a, log_b);
  for (size_t t = obs.size() - opts.lag; t < obs.size(); ++t) {
    EXPECT_EQ(labels[t], offline[t]) << "frame " << t;
  }
  for (int label : labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(SessionManagerTest, ZeroLagIsFilteringAndEmitsImmediately) {
  // lag = 0 is the aliasing-prone shape (one live frame in the ring): the
  // forward recursion must still match offline bitwise at every prefix.
  auto model = MakeModel(3, 101);
  hmm::Dataset<double> data = MakeData(*model, 1, 6, 102);
  const std::vector<double>& obs = data[0].obs;
  serve::SessionManagerOptions opts;
  opts.lag = 0;
  serve::SessionManager<double> mgr(model, opts);
  const serve::SessionHandle h = mgr.CreateSession().value();
  int label = -1;
  for (size_t t = 0; t < obs.size(); ++t) {
    ASSERT_TRUE(mgr.Push(h, obs[t], &label).ok());
    EXPECT_GE(label, 0) << "push " << t;
    EXPECT_EQ(mgr.LogLikelihood(h).value(),
              PrefixLogLikelihood(*model, obs, t + 1))
        << "prefix length " << t + 1;
  }
  // The final filtered label coincides with offline posterior decoding's
  // final frame (beta = 1 there in both).
  const linalg::Matrix log_b = model->emission->LogProbTable(obs);
  EXPECT_EQ(label, checked::PosteriorDecode(model->pi, model->a, log_b).back());
}

TEST(SessionManagerTest, ImpossibleObservationPoisonsSessionNotProcess) {
  // A zero-probability frame is a session-level error, never a process
  // abort. The bad frame is not consumed, further pushes are refused, and
  // ResetSession recovers.
  auto model = std::make_shared<const hmm::HmmModel<int>>(
      linalg::Vector{0.5, 0.5}, linalg::Matrix{{0.5, 0.5}, {0.5, 0.5}},
      std::make_unique<prob::CategoricalEmission>(
          linalg::Matrix{{0.5, 0.5, 0.0}, {0.25, 0.75, 0.0}}));
  serve::SessionManagerOptions opts;
  opts.lag = 0;
  serve::SessionManager<int> mgr(model, opts);
  const serve::SessionHandle h = mgr.CreateSession().value();
  int label = -1;
  ASSERT_TRUE(mgr.Push(h, 0, &label).ok());
  EXPECT_GE(label, 0);

  const Status bad = mgr.Push(h, 2, &label);  // symbol 2: zero mass anywhere
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(),
            "zero emission probability in every state at frame 1");
  EXPECT_EQ(label, -1);
  EXPECT_EQ(mgr.FramesPushed(h).value(), 1u);  // not consumed
  EXPECT_EQ(mgr.Push(h, 1, &label).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr.SessionStatus(h).code(), StatusCode::kInvalidArgument);
  std::vector<int> tail;
  EXPECT_EQ(mgr.Finish(h, &tail).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(tail.empty());

  ASSERT_TRUE(mgr.ResetSession(h).ok());
  EXPECT_TRUE(mgr.SessionStatus(h).ok());
  ASSERT_TRUE(mgr.Push(h, 1, &label).ok());
  EXPECT_GE(label, 0);
}

TEST(SessionManagerTest, UpdateModelAndResetRestartTheStreamOnTheNewModel) {
  auto model_a = MakeModel(4, 121);
  auto model_b = MakeModel(4, 122);
  hmm::Dataset<double> data = MakeData(*model_a, 1, 10, 123);
  const std::vector<double>& obs = data[0].obs;
  serve::SessionManagerOptions opts;
  opts.lag = 2;
  serve::SessionManager<double> mgr(model_a, opts);
  const serve::SessionHandle h = mgr.CreateSession().value();
  int label;
  for (const double y : obs) ASSERT_TRUE(mgr.Push(h, y, &label).ok());

  mgr.UpdateModel(model_b);
  ASSERT_TRUE(mgr.ResetSession(h).ok());
  EXPECT_EQ(mgr.FramesPushed(h).value(), 0u);
  EXPECT_EQ(mgr.LogLikelihood(h).value(), 0.0);

  std::vector<int> labels;
  for (const double y : obs) {
    ASSERT_TRUE(mgr.Push(h, y, &label).ok());
    if (label >= 0) labels.push_back(label);
  }
  ASSERT_TRUE(mgr.Finish(h, &labels).ok());
  ASSERT_EQ(labels.size(), obs.size());
  EXPECT_EQ(mgr.LogLikelihood(h).value(),
            PrefixLogLikelihood(*model_b, obs, obs.size()));
  const linalg::Matrix log_b = model_b->emission->LogProbTable(obs);
  const std::vector<int> offline =
      checked::PosteriorDecode(model_b->pi, model_b->a, log_b);
  for (size_t t = obs.size() - opts.lag; t < obs.size(); ++t) {
    EXPECT_EQ(labels[t], offline[t]) << "frame " << t;
  }
}

// ------------------------------------------------------- allocation-free ----

TEST(SessionManagerTest, SteadyStatePushAndCreateDestroyAreAllocationFree) {
  auto model = MakeModel(4, 101);
  hmm::Dataset<double> data = MakeData(*model, 1, 64, 102);
  serve::SessionManagerOptions opts;
  opts.lag = 4;
  serve::SessionManager<double> mgr(model, opts);

  // Warm-up: reach the pool's and the arena's high-water marks, including
  // the recycled-slot free list, and run a few pushes so every grow-only
  // buffer has seen its working size.
  auto a = mgr.CreateSession();
  auto b = mgr.CreateSession();
  ASSERT_TRUE(a.ok() && b.ok());
  int label;
  for (size_t t = 0; t < 8; ++t) {
    ASSERT_TRUE(mgr.Push(a.value(), data[0].obs[t], &label).ok());
    ASSERT_TRUE(mgr.Push(b.value(), data[0].obs[t], &label).ok());
  }
  ASSERT_TRUE(mgr.DestroySession(b.value()).ok());  // seeds the free list

  const long before = alloc_counter::Count();

  // Steady-state pushes on a warm session.
  Status push_st = Status::OK();
  for (size_t t = 8; t < 40; ++t) {
    const Status st = mgr.Push(a.value(), data[0].obs[t], &label);
    if (!st.ok()) push_st = st;
  }
  // A full create / push / destroy cycle through the recycled slot.
  auto c = mgr.CreateSession();
  Status cycle_st = c.status();
  if (c.ok()) {
    for (size_t t = 0; t < 8; ++t) {
      const Status st = mgr.Push(c.value(), data[0].obs[t], &label);
      if (!st.ok()) cycle_st = st;
    }
    const Status st = mgr.DestroySession(c.value());
    if (!st.ok()) cycle_st = st;
  }

  const long after = alloc_counter::Count();
  EXPECT_TRUE(push_st.ok()) << push_st.message();
  EXPECT_TRUE(cycle_st.ok()) << cycle_st.message();
  EXPECT_EQ(after - before, 0) << "steady-state session traffic allocated";
}

TEST(SessionManagerTest, ResetSessionReusesWarmBuffersWithoutAllocating) {
  auto model_a = MakeModel(6, 115);
  auto model_b = MakeModel(6, 116);  // same state count: same ring shape
  hmm::Dataset<double> data = MakeData(*model_a, 1, 32, 117);
  serve::SessionManagerOptions opts;
  opts.lag = 8;
  serve::SessionManager<double> mgr(model_a, opts);
  const serve::SessionHandle h = mgr.CreateSession().value();
  int label;
  Status st = Status::OK();
  auto push16 = [&] {
    for (size_t t = 0; t < 16; ++t) {
      const Status push = mgr.Push(h, data[0].obs[t], &label);
      if (!push.ok()) st = push;
    }
  };
  push16();

  // Plain reset: restart the stream on the same model.
  long before = alloc_counter::Count();
  const Status reset_a = mgr.ResetSession(h);
  push16();
  long allocated = alloc_counter::Count() - before;

  // Hot swap: UpdateModel builds a new context (allocates, so it stays
  // outside the measured window); the reset rebinds the session to it
  // inside its warm ring block.
  mgr.UpdateModel(model_b);
  before = alloc_counter::Count();
  const Status reset_b = mgr.ResetSession(h);
  push16();
  allocated += alloc_counter::Count() - before;

  EXPECT_TRUE(reset_a.ok()) << reset_a.message();
  EXPECT_TRUE(reset_b.ok()) << reset_b.message();
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(allocated, 0) << "ResetSession or post-reset pushes allocated";
  EXPECT_EQ(mgr.FramesPushed(h).value(), 16u);
}

// ----------------------------------------------- handles, eviction, races ---

TEST(SessionManagerTest, StaleHandleResolvesNotFoundEverywhere) {
  auto model = MakeModel(3, 111);
  serve::SessionManager<double> mgr(model);
  auto created = mgr.CreateSession();
  ASSERT_TRUE(created.ok());
  const serve::SessionHandle h = created.value();
  ASSERT_TRUE(mgr.DestroySession(h).ok());

  int label;
  std::vector<int> tail;
  EXPECT_EQ(mgr.Push(h, 0.5, &label).code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.Finish(h, &tail).code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.ResetSession(h).code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.DestroySession(h).code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.LogLikelihood(h).code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.FramesPushed(h).code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.SessionStatus(h).code(), StatusCode::kNotFound);
  EXPECT_FALSE(mgr.IsLive(h));
  EXPECT_FALSE(mgr.IsLive(serve::kInvalidSessionHandle));

  // The recycled slot's new handle carries a fresh generation, so the old
  // handle stays dead even while the slot is live again.
  auto recreated = mgr.CreateSession();
  ASSERT_TRUE(recreated.ok());
  EXPECT_NE(recreated.value(), h);
  EXPECT_FALSE(mgr.IsLive(h));
  EXPECT_TRUE(mgr.IsLive(recreated.value()));
}

// Emission wrapper whose LogProbRow can be made to block: armed, the next
// row evaluation parks on a condition variable until the test releases
// it, which pins a Push in its in-flight window for as long as the test
// needs.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool armed = false;
  bool blocked = false;
  bool release = false;
};

class GateEmission : public prob::EmissionModel<double> {
 public:
  GateEmission(std::unique_ptr<prob::EmissionModel<double>> inner, Gate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  size_t num_states() const override { return inner_->num_states(); }

  void LogProbRow(const double& y, double* out) const override {
    MaybeBlock();
    inner_->LogProbRow(y, out);
  }

  double Sample(size_t state, prob::Rng& rng) const override {
    return inner_->Sample(state, rng);
  }

  void BeginAccumulate() override { inner_->BeginAccumulate(); }
  void Accumulate(const double& y, const linalg::Vector& q) override {
    inner_->Accumulate(y, q);
  }
  void FinishAccumulate() override { inner_->FinishAccumulate(); }

  std::unique_ptr<prob::EmissionModel<double>> Clone() const override {
    return std::make_unique<GateEmission>(inner_->Clone(), gate_);
  }

 private:
  void MaybeBlock() const {
    std::unique_lock<std::mutex> lock(gate_->m);
    if (!gate_->armed) return;
    gate_->armed = false;  // block exactly one evaluation
    gate_->blocked = true;
    gate_->cv.notify_all();
    gate_->cv.wait(lock, [&] { return gate_->release; });
  }

  std::unique_ptr<prob::EmissionModel<double>> inner_;
  Gate* gate_;
};

TEST(SessionManagerTest, EvictIdleSkipsSessionsWithAnInFlightPush) {
  const size_t k = 3;
  prob::Rng rng(121);
  linalg::Vector mu(k);
  linalg::Vector sigma(k, 0.8);
  for (size_t i = 0; i < k; ++i) mu[i] = static_cast<double>(i);
  Gate gate;
  auto model = std::make_shared<const hmm::HmmModel<double>>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<GateEmission>(
          std::make_unique<prob::GaussianEmission>(mu, sigma), &gate));

  serve::SessionManagerOptions opts;
  opts.lag = 2;
  serve::SessionManager<double> mgr(model, opts);
  auto a = mgr.CreateSession();
  auto b = mgr.CreateSession();
  ASSERT_TRUE(a.ok() && b.ok());

  int label;
  ASSERT_TRUE(mgr.Push(a.value(), 0.4, &label).ok());  // gate unarmed: passes

  // Arm the gate, then park a push on B inside its numeric body.
  {
    std::lock_guard<std::mutex> lock(gate.m);
    gate.armed = true;
  }
  Status b_push = Status::Internal("push never ran");
  std::thread pusher([&] {
    int blocked_label;
    b_push = mgr.Push(b.value(), 0.7, &blocked_label);
  });
  {
    std::unique_lock<std::mutex> lock(gate.m);
    gate.cv.wait(lock, [&] { return gate.blocked; });
  }

  // Both sessions are older than the cutoff, but B's push is in flight:
  // the sweep must evict A and leave B untouched.
  EXPECT_EQ(mgr.EvictIdle(mgr.tick() + 1), 1u);
  EXPECT_FALSE(mgr.IsLive(a.value()));
  EXPECT_TRUE(mgr.IsLive(b.value()));

  // And a destroy racing the in-flight push is refused with a typed error.
  EXPECT_EQ(mgr.DestroySession(b.value()).code(),
            StatusCode::kFailedPrecondition);

  {
    std::lock_guard<std::mutex> lock(gate.m);
    gate.release = true;
  }
  gate.cv.notify_all();
  pusher.join();
  EXPECT_TRUE(b_push.ok()) << b_push.message();

  // With the push drained, the same sweep reaps B.
  EXPECT_EQ(mgr.EvictIdle(mgr.tick() + 1), 1u);
  EXPECT_EQ(mgr.live_sessions(), 0u);
}

// -------------------------------------------------------- the closed loop ---

TEST(SessionManagerTest, LiveSessionPosteriorsDriveAnImprovingHotSwap) {
  // Ground truth with well-separated states; serving starts from a
  // perturbed initializer.
  const size_t k = 3;
  auto make = [&](std::vector<double> mus, double sig,
                  uint64_t seed) -> std::shared_ptr<const hmm::HmmModel<double>> {
    prob::Rng rng(seed);
    linalg::Vector mu(k);
    linalg::Vector sigma(k, sig);
    for (size_t i = 0; i < k; ++i) mu[i] = mus[i];
    return std::make_shared<const hmm::HmmModel<double>>(
        rng.DirichletSymmetric(k, 2.0),
        rng.RandomStochasticMatrix(k, k, 2.0),
        std::make_unique<prob::GaussianEmission>(mu, sigma));
  };
  auto truth = make({0.0, 4.0, 8.0}, 0.7, 131);
  auto init = make({0.5, 3.0, 9.0}, 1.2, 132);
  hmm::Dataset<double> data = MakeData(*truth, 6, 40, 133);

  core::IncrementalEmTrainer<double> trainer(init);
  serve::SessionManagerOptions opts;
  opts.lag = 6;  // labels (and posteriors) flow during Push
  serve::SessionManager<double> mgr(init, opts);
  mgr.AttachTrainer(&trainer);
  EXPECT_EQ(mgr.model_version(), 1u);

  for (const auto& seq : data) {
    auto created = mgr.CreateSession();
    ASSERT_TRUE(created.ok());
    int label;
    for (const double y : seq.obs) {
      ASSERT_TRUE(mgr.Push(created.value(), y, &label).ok());
    }
  }
  EXPECT_GT(trainer.frames_accumulated(), 0u);

  auto stepped = trainer.Step();
  ASSERT_NE(stepped, nullptr);
  EXPECT_GT(hmm::DatasetLogLikelihood(*stepped, data),
            hmm::DatasetLogLikelihood(*init, data));

  // RCU hot-swap: new sessions bind to the stepped snapshot.
  mgr.UpdateModel(stepped);
  EXPECT_EQ(mgr.model_version(), 2u);
  EXPECT_EQ(mgr.ModelSnapshot().get(), stepped.get());
  auto fresh = mgr.CreateSession();
  ASSERT_TRUE(fresh.ok());
  int label;
  EXPECT_TRUE(mgr.Push(fresh.value(), 4.0, &label).ok());
}

}  // namespace
}  // namespace dhmm

// The serve-layer contract (the PR-5 counterpart of engine/mstep/kernels
// tests):
//  - DecodeService results are bitwise-identical to the offline
//    single-threaded Viterbi / PosteriorDecode / LogLikelihood for every
//    worker count and batch size,
//  - RCU model hot-swap: in-flight batches finish on their snapshot, new
//    requests see the new model; ReloadModel round-trips store::WriteModel
//    checkpoints and keeps serving the old model on failure,
//  - impossible, unreachable, underflowed and non-finite (NaN) inputs
//    are per-request InvalidArgument errors that leave the service
//    serving,
//  - hmm::kDefaultCheckpointThresholdFrames only picks the posterior
//    sweep's panel width: lengths on both sides of it serve the offline
//    answers bitwise,
//  - every request completes through its CompletionHook, in slot order;
//    an expired deadline is answered at batch cut without decode work,
//    and destruction drains a paused service,
//  - steady-state requests at a fixed shape make zero heap allocations
//    (instrumented operator new).
// The stream front end's contracts live in session_test.cc.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "checked_inference.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/posterior_decoding.h"
#include "hmm/sampler.h"
#include "hmm/sequence.h"
#include "obs/metrics.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/gmm_emission.h"
#include "prob/rng.h"
#include "serve/decode_service.h"
#include "store/model_codec.h"

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

// Offline single-threaded reference for one sequence under one model.
struct OfflineRef {
  hmm::ViterbiResult viterbi;
  std::vector<int> posterior;
  double log_likelihood;
};

OfflineRef Offline(const hmm::HmmModel<double>& m,
                   const std::vector<double>& obs) {
  OfflineRef ref;
  linalg::Matrix log_b = checked::LogProbTable(*m.emission, obs);
  ref.viterbi = checked::Viterbi(m.pi, m.a, log_b);
  ref.posterior = checked::PosteriorDecode(m.pi, m.a, log_b);
  ref.log_likelihood = checked::LogLikelihood(m.pi, m.a, log_b);
  return ref;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// A process-wide counter's value; tests read its growth over a window.
uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->Value();
}

// ----------------------------------------------------------- DecodeService ---

TEST(DecodeServiceTest, BitwiseMatchesOfflineForEveryWorkerAndBatchSize) {
  auto model = MakeModel(4, 11);
  hmm::Dataset<double> data = MakeData(*model, 12, 17, 12);
  std::vector<OfflineRef> refs;
  for (const auto& seq : data) refs.push_back(Offline(*model, seq.obs));

  for (int threads : {1, 2, 4}) {
    for (size_t max_batch : {size_t{1}, size_t{3}, size_t{64}}) {
      serve::DecodeServiceOptions opts;
      opts.num_threads = threads;
      opts.max_batch = max_batch;
      serve::DecodeService<double> service(model, opts);
      const uint64_t requests_before = CounterValue("decode.requests");
      const uint64_t batches_before = CounterValue("decode.batches");
      // Held dispatch queues every request first, so the batch cap alone
      // decides how many batches run.
      service.PauseDispatch();
      std::vector<serve::DecodeFuture<double>> futures;
      for (const auto& seq : data) {
        futures.push_back(
            service.Submit(serve::DecodeKind::kViterbi, seq.obs));
        futures.push_back(
            service.Submit(serve::DecodeKind::kPosterior, seq.obs));
        futures.push_back(
            service.Submit(serve::DecodeKind::kLogLikelihood, seq.obs));
      }
      service.ResumeDispatch();
      for (size_t s = 0; s < data.size(); ++s) {
        const serve::DecodeResponse& vit = futures[3 * s].Wait();
        ASSERT_TRUE(vit.status.ok());
        EXPECT_EQ(vit.path, refs[s].viterbi.path);
        EXPECT_EQ(vit.value, refs[s].viterbi.log_joint);  // bitwise

        const serve::DecodeResponse& post = futures[3 * s + 1].Wait();
        ASSERT_TRUE(post.status.ok());
        EXPECT_EQ(post.path, refs[s].posterior);
        EXPECT_EQ(post.value, refs[s].log_likelihood);

        const serve::DecodeResponse& ll = futures[3 * s + 2].Wait();
        ASSERT_TRUE(ll.status.ok());
        EXPECT_TRUE(ll.path.empty());
        EXPECT_EQ(ll.value, refs[s].log_likelihood);
      }
      futures.clear();  // release slots before the service dies
      const uint64_t requests = 3 * data.size();
      EXPECT_EQ(CounterValue("decode.requests") - requests_before, requests);
      EXPECT_EQ(CounterValue("decode.batches") - batches_before,
                (requests + max_batch - 1) / max_batch);
    }
  }
}

TEST(DecodeServiceTest, BothPanelWidthsMatchOfflineBitwise) {
  // Requests shorter than the threshold run the posterior sweep with one
  // panel, the rest with ceil(sqrt(T))-frame panels; Viterbi builds the
  // table at every length. Every answer is the offline one, bit for bit.
  auto model = MakeModel(5, 17);
  hmm::Dataset<double> data;
  uint64_t seed = 18;
  const size_t threshold = hmm::kDefaultCheckpointThresholdFrames;
  for (size_t length :
       {size_t{1}, size_t{64}, threshold - 1, threshold, threshold + 1}) {
    for (auto& seq : MakeData(*model, 2, length, seed++)) data.push_back(seq);
  }
  std::vector<OfflineRef> refs;
  for (const auto& seq : data) refs.push_back(Offline(*model, seq.obs));

  for (int threads : {1, 3}) {
    serve::DecodeServiceOptions opts;
    opts.num_threads = threads;
    serve::DecodeService<double> service(model, opts);
    std::vector<serve::DecodeFuture<double>> futures;
    for (const auto& seq : data) {
      futures.push_back(service.Submit(serve::DecodeKind::kViterbi, seq.obs));
      futures.push_back(
          service.Submit(serve::DecodeKind::kPosterior, seq.obs));
      futures.push_back(
          service.Submit(serve::DecodeKind::kLogLikelihood, seq.obs));
    }
    for (size_t s = 0; s < data.size(); ++s) {
      const size_t length = data[s].length();
      const serve::DecodeResponse& vit = futures[3 * s].Wait();
      ASSERT_TRUE(vit.status.ok()) << vit.status.message();
      EXPECT_EQ(vit.path, refs[s].viterbi.path) << length;
      EXPECT_TRUE(SameBits(vit.value, refs[s].viterbi.log_joint)) << length;

      const serve::DecodeResponse& post = futures[3 * s + 1].Wait();
      ASSERT_TRUE(post.status.ok()) << post.status.message();
      EXPECT_EQ(post.path, refs[s].posterior) << length;
      EXPECT_TRUE(SameBits(post.value, refs[s].log_likelihood)) << length;

      const serve::DecodeResponse& ll = futures[3 * s + 2].Wait();
      ASSERT_TRUE(ll.status.ok()) << ll.status.message();
      EXPECT_TRUE(ll.path.empty());
      EXPECT_TRUE(SameBits(ll.value, refs[s].log_likelihood)) << length;
    }
    futures.clear();  // release slots before the service dies
  }
}

TEST(DecodeServiceTest, HotSwapOldSnapshotFinishesNewRequestsSeeNewModel) {
  auto model_a = MakeModel(4, 21);
  auto model_b = MakeModel(4, 22);
  hmm::Dataset<double> data = MakeData(*model_a, 8, 15, 23);

  serve::DecodeServiceOptions opts;
  opts.num_threads = 4;
  opts.max_batch = 2;
  serve::DecodeService<double> service(model_a, opts);
  EXPECT_EQ(service.model_version(), 1u);

  // Round 1 under A: wait for every result before swapping, so the old
  // snapshot demonstrably finishes all its work.
  {
    std::vector<serve::DecodeFuture<double>> futures;
    for (const auto& seq : data) {
      futures.push_back(service.Submit(serve::DecodeKind::kViterbi, seq.obs));
    }
    for (size_t s = 0; s < data.size(); ++s) {
      const serve::DecodeResponse& r = futures[s].Wait();
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.model_version, 1u);
      EXPECT_EQ(r.path, Offline(*model_a, data[s].obs).viterbi.path);
    }
  }

  service.UpdateModel(model_b);
  EXPECT_EQ(service.model_version(), 2u);

  // Round 2: everything submitted after the swap is served by B.
  {
    std::vector<serve::DecodeFuture<double>> futures;
    for (const auto& seq : data) {
      futures.push_back(service.Submit(serve::DecodeKind::kViterbi, seq.obs));
    }
    for (size_t s = 0; s < data.size(); ++s) {
      const serve::DecodeResponse& r = futures[s].Wait();
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.model_version, 2u);
      const OfflineRef ref = Offline(*model_b, data[s].obs);
      EXPECT_EQ(r.path, ref.viterbi.path);
      EXPECT_EQ(r.value, ref.viterbi.log_joint);
    }
  }
}

TEST(DecodeServiceTest, MidStreamSwapServesEveryRequestConsistently) {
  // Submissions race the swap: each result must be internally consistent —
  // decoded entirely under the single model version it reports, bitwise.
  auto model_a = MakeModel(3, 31);
  auto model_b = MakeModel(3, 32);
  hmm::Dataset<double> data = MakeData(*model_a, 24, 12, 33);

  serve::DecodeServiceOptions opts;
  opts.num_threads = 2;
  opts.max_batch = 4;
  serve::DecodeService<double> service(model_a, opts);
  std::vector<serve::DecodeFuture<double>> futures;
  for (size_t s = 0; s < data.size(); ++s) {
    if (s == data.size() / 2) service.UpdateModel(model_b);
    futures.push_back(service.Submit(serve::DecodeKind::kViterbi, data[s].obs));
  }
  size_t new_version_seen = 0;
  for (size_t s = 0; s < data.size(); ++s) {
    const serve::DecodeResponse& r = futures[s].Wait();
    ASSERT_TRUE(r.status.ok());
    ASSERT_TRUE(r.model_version == 1 || r.model_version == 2);
    const hmm::HmmModel<double>& m =
        r.model_version == 1 ? *model_a : *model_b;
    EXPECT_EQ(r.path, Offline(m, data[s].obs).viterbi.path);
    // A request submitted after UpdateModel returned can only see B.
    if (s >= data.size() / 2) {
      EXPECT_EQ(r.model_version, 2u);
      ++new_version_seen;
    }
  }
  EXPECT_EQ(new_version_seen, data.size() - data.size() / 2);
}

TEST(DecodeServiceTest, ReloadModelHotSwapsCheckpointAtomically) {
  namespace fs = std::filesystem;
  // Per-process name: ctest runs this binary twice at once (default and
  // scalar dispatch).
  const std::string path =
      (fs::temp_directory_path() /
       ("dhmm_serve_reload_" + std::to_string(::getpid()) + ".dhmms"))
          .string();
  auto model_a = MakeModel(4, 41);
  auto model_b = MakeModel(4, 42);
  hmm::Dataset<double> data = MakeData(*model_a, 4, 10, 43);

  serve::DecodeService<double> service(model_a, {});
  // Failure keeps the old model serving.
  Status st = service.ReloadModel("/nonexistent/dir/model.dhmms");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(service.model_version(), 1u);

  ASSERT_TRUE(store::WriteModel(*model_b, 1, path).ok());
  ASSERT_TRUE(service.ReloadModel(path).ok());
  EXPECT_EQ(service.model_version(), 2u);
  for (const auto& seq : data) {
    serve::DecodeFuture<double> f =
        service.Submit(serve::DecodeKind::kViterbi, seq.obs);
    const serve::DecodeResponse& r = f.Wait();
    ASSERT_TRUE(r.status.ok());
    // The checkpoint stores raw doubles, so the reloaded model decodes
    // bitwise-identically to the in-memory original.
    const OfflineRef ref = Offline(*model_b, seq.obs);
    EXPECT_EQ(r.path, ref.viterbi.path);
    EXPECT_EQ(r.value, ref.viterbi.log_joint);
  }
  fs::remove(path);
}

TEST(DecodeServiceTest, EmptySequenceRejectedWithoutPoisoningService) {
  auto model = MakeModel(3, 51);
  hmm::Dataset<double> data = MakeData(*model, 1, 8, 52);
  serve::DecodeService<double> service(model, {});
  std::vector<double> empty;
  serve::DecodeFuture<double> bad =
      service.Submit(serve::DecodeKind::kViterbi, empty);
  const serve::DecodeResponse& r = bad.Wait();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  bad.Release();
  // The service keeps serving.
  serve::DecodeFuture<double> good =
      service.Submit(serve::DecodeKind::kViterbi, data[0].obs);
  EXPECT_TRUE(good.Wait().status.ok());
}

TEST(DecodeServiceTest, UnknownKindRejectedNotAnsweredWithAStaleStatus) {
  // A kind byte outside DecodeKind reaches the service only through
  // in-process Submit (the wire decoder rejects it). Its pooled slot still
  // holds the OK result of the Viterbi request it served before; the
  // answer must be InvalidArgument naming the kind, not that stale OK.
  auto model = MakeModel(3, 53);
  hmm::Dataset<double> data = MakeData(*model, 1, 8, 54);
  serve::DecodeServiceOptions opts;
  opts.num_threads = 1;
  serve::DecodeService<double> service(model, opts);
  for (int round = 0; round < 2; ++round) {
    serve::DecodeFuture<double> good =
        service.Submit(serve::DecodeKind::kViterbi, data[0].obs);
    ASSERT_TRUE(good.Wait().status.ok());
    good.Release();
    serve::DecodeFuture<double> bad =
        service.Submit(static_cast<serve::DecodeKind>(9), data[0].obs);
    const serve::DecodeResponse& r = bad.Wait();
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status.message().find("decode kind 9"), std::string::npos)
        << r.status.ToString();
    EXPECT_TRUE(r.path.empty());
    bad.Release();
  }
}

TEST(DecodeServiceTest, ImpossibleObservationRejectedPerRequest) {
  // Symbol 2 has zero mass in every state: deeper inference layers treat
  // an all-impossible frame as a DHMM_CHECK (process abort); the service
  // must turn it into a per-request error instead.
  auto model = std::make_shared<const hmm::HmmModel<int>>(
      linalg::Vector{0.5, 0.5}, linalg::Matrix{{0.5, 0.5}, {0.5, 0.5}},
      std::make_unique<prob::CategoricalEmission>(
          linalg::Matrix{{0.5, 0.5, 0.0}, {0.25, 0.75, 0.0}}));
  serve::DecodeService<int> service(model, {});
  const std::vector<int> poisoned = {0, 2, 1};
  const std::vector<int> fine = {0, 1, 1};
  for (auto kind : {serve::DecodeKind::kViterbi, serve::DecodeKind::kPosterior,
                    serve::DecodeKind::kLogLikelihood}) {
    serve::DecodeFuture<int> bad = service.Submit(kind, poisoned);
    const serve::DecodeResponse& r = bad.Wait();
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    if (kind != serve::DecodeKind::kViterbi) {
      // The forward-based paths report the offending frame; Viterbi only
      // knows the whole sequence has no finite path.
      EXPECT_NE(r.status.message().find("frame 1"), std::string::npos);
    }
    bad.Release();
    serve::DecodeFuture<int> good = service.Submit(kind, fine);
    EXPECT_TRUE(good.Wait().status.ok());
  }
}

TEST(DecodeServiceTest, UnreachableSequenceRejectedPerRequest) {
  // Every frame is emission-possible in isolation, but pi/A zeros make the
  // sequence unreachable: pi pins the chain in state 0 forever while the
  // observation demands state 1. The naked inference layer would abort on
  // the vanished forward message; the service must reject per-request.
  auto model = std::make_shared<const hmm::HmmModel<int>>(
      linalg::Vector{1.0, 0.0}, linalg::Matrix{{1.0, 0.0}, {0.0, 1.0}},
      std::make_unique<prob::CategoricalEmission>(
          linalg::Matrix{{1.0, 0.0}, {0.0, 1.0}}));
  serve::DecodeService<int> service(model, {});
  const std::vector<int> unreachable_at_0 = {1};
  const std::vector<int> unreachable_at_2 = {0, 0, 1};
  const std::vector<int> fine = {0, 0, 0};
  for (auto kind : {serve::DecodeKind::kViterbi, serve::DecodeKind::kPosterior,
                    serve::DecodeKind::kLogLikelihood}) {
    const bool reports_frame = kind != serve::DecodeKind::kViterbi;
    serve::DecodeFuture<int> f0 = service.Submit(kind, unreachable_at_0);
    const serve::DecodeResponse& r0 = f0.Wait();
    ASSERT_FALSE(r0.status.ok());
    EXPECT_EQ(r0.status.code(), StatusCode::kInvalidArgument);
    if (reports_frame) {
      EXPECT_NE(r0.status.message().find("frame 0"), std::string::npos);
    }
    f0.Release();
    serve::DecodeFuture<int> f2 = service.Submit(kind, unreachable_at_2);
    const serve::DecodeResponse& r2 = f2.Wait();
    ASSERT_FALSE(r2.status.ok());
    if (reports_frame) {
      EXPECT_NE(r2.status.message().find("frame 2"), std::string::npos);
    }
    f2.Release();
    serve::DecodeFuture<int> ok = service.Submit(kind, fine);
    EXPECT_TRUE(ok.Wait().status.ok());
  }
}

TEST(DecodeServiceTest, UnderflowedForwardMassRejectedNotAborted) {
  // Every frame is symbolically possible (finite log-prob in a reachable
  // state), but the emission shift is dominated by an unreachable state
  // ~5000 nats more likely, so the reachable state's scaled emission
  // underflows exp() to exactly 0 and the forward mass vanishes
  // numerically. This must surface as a per-request error too.
  linalg::Vector mu(2);
  mu[0] = 0.0;
  mu[1] = 100.0;
  auto model = std::make_shared<const hmm::HmmModel<double>>(
      linalg::Vector{1.0, 0.0}, linalg::Matrix{{1.0, 0.0}, {0.0, 1.0}},
      std::make_unique<prob::GaussianEmission>(mu, linalg::Vector(2, 1.0)));
  serve::DecodeService<double> service(model, {});
  const std::vector<double> outlier = {100.0};
  for (auto kind :
       {serve::DecodeKind::kPosterior, serve::DecodeKind::kLogLikelihood}) {
    serve::DecodeFuture<double> f = service.Submit(kind, outlier);
    const serve::DecodeResponse& r = f.Wait();
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    f.Release();
  }
  // Viterbi runs in the log domain, immune to the underflow: it decodes
  // the (astronomically unlikely) reachable path.
  serve::DecodeFuture<double> v =
      service.Submit(serve::DecodeKind::kViterbi, outlier);
  EXPECT_TRUE(v.Wait().status.ok());
}

TEST(DecodeServiceTest, NonFiniteObservationRejectedPerRequest) {
  // A NaN observation gives a NaN emission row: the forward paths see the
  // forward message vanish, and Viterbi sees a NaN best score. Every kind
  // must answer InvalidArgument (never OK with a NaN value), and the
  // service keeps serving.
  linalg::Vector mu(2);
  mu[0] = 0.0;
  mu[1] = 2.0;
  auto model = std::make_shared<const hmm::HmmModel<double>>(
      linalg::Vector{0.5, 0.5}, linalg::Matrix{{0.9, 0.1}, {0.1, 0.9}},
      std::make_unique<prob::GaussianEmission>(mu, linalg::Vector(2, 1.0)));
  serve::DecodeService<double> service(model, {});
  const std::vector<double> poisoned = {0.1, std::nan(""), 1.9};
  const std::vector<double> fine = {0.1, 1.0, 1.9};
  for (auto kind : {serve::DecodeKind::kViterbi, serve::DecodeKind::kPosterior,
                    serve::DecodeKind::kLogLikelihood}) {
    serve::DecodeFuture<double> bad = service.Submit(kind, poisoned);
    const serve::DecodeResponse& r = bad.Wait();
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
        << static_cast<int>(kind) << ": " << r.status.message();
    bad.Release();
    serve::DecodeFuture<double> good = service.Submit(kind, fine);
    const serve::DecodeResponse& g = good.Wait();
    EXPECT_TRUE(g.status.ok()) << g.status.message();
    EXPECT_TRUE(std::isfinite(g.value));
  }
}

TEST(DecodeServiceTest, SteadyStateRequestsAreAllocationFree) {
  // A Gaussian model, and a GMM model (k = 20, M = 3) whose emission rows
  // reduce over each state's components.
  prob::Rng rng(63);
  const std::shared_ptr<const hmm::HmmModel<double>> models[] = {
      MakeModel(8, 61),
      std::make_shared<const hmm::HmmModel<double>>(
          rng.DirichletSymmetric(20, 2.0),
          rng.RandomStochasticMatrix(20, 20, 2.0),
          std::make_unique<prob::GmmEmission>(
              prob::GmmEmission::RandomInit(20, 3, rng)))};
  for (const auto& model : models) {
    SCOPED_TRACE(model->num_states());
    hmm::Dataset<double> data = MakeData(*model, 16, 24, 62);
    serve::DecodeServiceOptions opts;
    opts.num_threads = 1;  // deterministic single-workspace path
    opts.max_batch = 8;
    serve::DecodeService<double> service(model, opts);

    const serve::DecodeKind kinds[] = {serve::DecodeKind::kViterbi,
                                       serve::DecodeKind::kPosterior,
                                       serve::DecodeKind::kLogLikelihood};
    // Warm-up: hold all futures so the slot pool grows to the full
    // in-flight census, every slot's path buffer sees this sequence length
    // (round 0 is all-Viterbi so no slot is left with a cold path), and the
    // workspace + transition cache reach steady state.
    for (int round = 0; round < 2; ++round) {
      std::vector<serve::DecodeFuture<double>> futures;
      futures.reserve(data.size());
      for (size_t s = 0; s < data.size(); ++s) {
        futures.push_back(service.Submit(
            round == 0 ? serve::DecodeKind::kViterbi : kinds[s % 3],
            data[s].obs));
      }
      for (auto& f : futures) f.Wait();
    }

    std::vector<serve::DecodeFuture<double>> futures;
    futures.reserve(data.size());
    const long before = alloc_counter::Count();
    for (size_t s = 0; s < data.size(); ++s) {
      futures.push_back(service.Submit(kinds[s % 3], data[s].obs));
    }
    double sink = 0.0;
    bool all_ok = true;
    for (auto& f : futures) {
      const serve::DecodeResponse& r = f.Wait();
      all_ok = all_ok && r.status.ok();
      sink += r.value;
    }
    for (auto& f : futures) f.Release();
    const long after = alloc_counter::Count();
    EXPECT_EQ(after - before, 0) << "steady-state requests allocated";
    EXPECT_TRUE(all_ok);
    EXPECT_NE(sink, 0.0);
  }
}

// Collects the responses handed to a CompletionHook, in call order.
struct HookLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<serve::DecodeResponse> responses;  // guarded by mu

  static void Record(void* ctx, const serve::DecodeResponse& resp) {
    auto* log = static_cast<HookLog*>(ctx);
    // Notify under the lock: the waiter may destroy the log once it sees
    // the last response.
    std::lock_guard<std::mutex> lock(log->mu);
    log->responses.push_back(resp);
    log->cv.notify_all();
  }
  serve::CompletionHook Hook() { return {&HookLog::Record, this}; }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() >= n; });
  }
};

TEST(DecodeServiceTest, HookFormCompletesInSlotOrderBitwise) {
  auto model = MakeModel(4, 63);
  hmm::Dataset<double> data = MakeData(*model, 10, 12, 64);
  serve::DecodeServiceOptions opts;
  opts.num_threads = 2;
  opts.max_batch = 4;
  serve::DecodeService<double> service(model, opts);
  const uint64_t requests_before = CounterValue("decode.requests");
  HookLog log;
  // Two rounds: the second runs on slots the first recycled (a slot that
  // never came back would trip the destructor's outstanding-slot check).
  for (int round = 0; round < 2; ++round) {
    service.PauseDispatch();  // queue everything, then cut several batches
    for (size_t s = 0; s < data.size(); ++s) {
      serve::DecodeRequest<double> req;
      req.request_id = round * 100 + s;
      req.obs = &data[s].obs;
      service.Submit(req, log.Hook());
    }
    service.ResumeDispatch();
    log.WaitFor((round + 1) * data.size());
  }
  ASSERT_EQ(log.responses.size(), 2 * data.size());
  for (size_t i = 0; i < log.responses.size(); ++i) {
    const serve::DecodeResponse& r = log.responses[i];
    const size_t s = i % data.size();
    EXPECT_EQ(r.request_id, (i / data.size()) * 100 + s);  // FIFO
    ASSERT_TRUE(r.status.ok());
    const OfflineRef ref = Offline(*model, data[s].obs);
    EXPECT_EQ(r.path, ref.viterbi.path);
    EXPECT_EQ(r.value, ref.viterbi.log_joint);
  }
  EXPECT_EQ(CounterValue("decode.requests") - requests_before,
            2 * data.size());
}

TEST(DecodeServiceTest, ExpiredDeadlineAnsweredAtBatchCutWithoutDecoding) {
  auto model = MakeModel(3, 65);
  hmm::Dataset<double> data = MakeData(*model, 1, 9, 66);
  serve::DecodeService<double> service(model, {});
  service.PauseDispatch();
  // An empty sequence would be InvalidArgument if it were decoded, so a
  // DeadlineExceeded answer proves no decode work ran.
  const std::vector<double> empty;
  serve::DecodeRequest<double> late;
  late.obs = &empty;
  late.deadline_micros = 1;
  serve::DecodeFuture<double> expired = service.Submit(late);
  serve::DecodeRequest<double> ample;
  ample.obs = &data[0].obs;
  ample.deadline_micros = 60'000'000;
  serve::DecodeFuture<double> on_time = service.Submit(ample);
  // A wire deadline is unchecked input: an absurd one means no deadline,
  // and must not overflow the clock arithmetic (UBSan flags 2^62 us).
  serve::DecodeRequest<double> absurd = ample;
  absurd.deadline_micros = uint64_t{1} << 62;
  serve::DecodeFuture<double> unbounded = service.Submit(absurd);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.ResumeDispatch();

  EXPECT_EQ(expired.Wait().status.code(), StatusCode::kDeadlineExceeded);
  const serve::DecodeResponse& r = on_time.Wait();
  ASSERT_TRUE(r.status.ok());
  const OfflineRef ref = Offline(*model, data[0].obs);
  EXPECT_EQ(r.path, ref.viterbi.path);
  EXPECT_EQ(r.value, ref.viterbi.log_joint);
  EXPECT_TRUE(unbounded.Wait().status.ok());
}

TEST(DecodeServiceTest, DestructionDrainsAPausedServiceThroughItsHooks) {
  auto model = MakeModel(3, 67);
  hmm::Dataset<double> data = MakeData(*model, 3, 7, 68);
  HookLog log;
  {
    serve::DecodeService<double> service(model, {});
    service.PauseDispatch();
    for (size_t s = 0; s < data.size(); ++s) {
      serve::DecodeRequest<double> req;
      req.request_id = s;
      req.obs = &data[s].obs;
      service.Submit(req, log.Hook());
    }
  }  // destruction overrides the pause and drains
  ASSERT_EQ(log.responses.size(), data.size());
  for (size_t s = 0; s < data.size(); ++s) {
    EXPECT_EQ(log.responses[s].request_id, s);
    EXPECT_TRUE(log.responses[s].status.ok());
  }
}

}  // namespace
}  // namespace dhmm

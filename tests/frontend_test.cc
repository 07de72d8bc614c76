// The multi-model serving contract (ModelRegistry + FrontEnd):
//  - registry: register/acquire/version bookkeeping, LRU eviction of
//    unpinned models with transparent cold reload from the remembered
//    checkpoint, pinned models never evicted,
//  - hot-reload error path: a failed (torn/corrupt/missing) checkpoint
//    load leaves the previous snapshot serving and surfaces a Status,
//  - loopback integration: wire requests against every registered model
//    decode bitwise-identically to offline single-threaded references,
//  - typed error responses: unknown model -> NotFound, expired deadline ->
//    DeadlineExceeded, queue_capacity in flight -> Unavailable, malformed
//    payload -> InvalidArgument — never a crash or an abort,
//  - responses come back in completion order, FIFO per model, and Stop()
//    drains every in-flight request before freeing anything,
//  - past max_connections a new client is closed on accept, and a
//    disconnect frees its slot for the next one,
//  - steady-state wire round trips at a fixed shape make zero heap
//    allocations (instrumented operator new).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
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
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"
#include "obs/metrics.h"
#include "serve/decode_service.h"
#include "serve/frontend.h"
#include "serve/model_registry.h"
#include "serve/session_manager.h"
#include "serve/wire_client.h"
#include "store/model_codec.h"

namespace dhmm {
namespace {

namespace wire = serve::wire;

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

std::vector<double> MakeObs(const hmm::HmmModel<double>& model, size_t length,
                            uint64_t seed) {
  prob::Rng rng(seed);
  return hmm::SampleSequence(model, length, rng).obs;
}

struct OfflineRef {
  hmm::ViterbiResult viterbi;
  std::vector<int> posterior;
  double log_likelihood;
};

OfflineRef Offline(const hmm::HmmModel<double>& m,
                   const std::vector<double>& obs) {
  OfflineRef ref;
  linalg::Matrix log_b = m.emission->LogProbTable(obs);
  ref.viterbi = checked::Viterbi(m.pi, m.a, log_b);
  ref.posterior = checked::PosteriorDecode(m.pi, m.a, log_b);
  ref.log_likelihood = checked::LogLikelihood(m.pi, m.a, log_b);
  return ref;
}

// Per-process names: ctest runs this binary twice at once (default and
// scalar dispatch), and the two must not rewrite each other's checkpoints.
std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("dhmm_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// --------------------------------------------------------- ModelRegistry ---

TEST(ModelRegistryTest, RegisterAcquireVersionLifecycle) {
  serve::ModelRegistry<double> registry;
  ASSERT_TRUE(registry.Register(1, MakeModel(3, 10)).ok());
  ASSERT_TRUE(registry.Register(2, MakeModel(4, 20)).ok());

  EXPECT_EQ(registry.ModelVersion(1).value_or(0), 1u);
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_EQ(registry.Ids(), (std::vector<serve::ModelId>{1, 2}));

  // Re-registering a live id is an explicit error, not a silent swap.
  EXPECT_EQ(registry.Register(1, MakeModel(3, 11)).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(registry.UpdateModel(1, MakeModel(3, 12)).ok());
  EXPECT_EQ(registry.ModelVersion(1).value_or(0), 2u);

  EXPECT_EQ(registry.Acquire(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.UpdateModel(99, MakeModel(2, 1)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.ModelVersion(99).code(), StatusCode::kNotFound);

  auto svc = registry.Acquire(1);
  ASSERT_TRUE(svc.ok());
  const std::vector<double> obs = MakeObs(*MakeModel(3, 12), 9, 3);
  auto fut = svc.value()->Submit(serve::DecodeKind::kViterbi, obs);
  EXPECT_TRUE(fut.Wait().status.ok());
}

TEST(ModelRegistryTest, LruEvictsOldestUnpinnedAndColdReloads) {
  const std::string p1 = TempPath("registry_lru_1.dhmms");
  const std::string p2 = TempPath("registry_lru_2.dhmms");
  const std::string p3 = TempPath("registry_lru_3.dhmms");
  auto m1 = MakeModel(3, 31);
  auto m2 = MakeModel(4, 32);
  auto m3 = MakeModel(5, 33);
  ASSERT_TRUE(store::WriteModel(*m1, 1, p1).ok());
  ASSERT_TRUE(store::WriteModel(*m2, 1, p2).ok());
  ASSERT_TRUE(store::WriteModel(*m3, 1, p3).ok());

  serve::ModelRegistryOptions opts;
  opts.max_resident = 2;
  serve::ModelRegistry<double> registry(opts);
  ASSERT_TRUE(registry.RegisterFromFile(1, p1).ok());
  ASSERT_TRUE(registry.RegisterFromFile(2, p2).ok());
  ASSERT_TRUE(registry.RegisterFromFile(3, p3).ok());

  // 1 was least recently touched: registering 3 evicted it.
  EXPECT_EQ(registry.resident_count(), 2u);
  ASSERT_TRUE(registry.Acquire(2).ok());
  ASSERT_TRUE(registry.Acquire(3).ok());
  EXPECT_EQ(registry.resident_count(), 2u);

  // Cold reload: the evicted model comes back from its checkpoint and
  // still decodes bitwise-identically to the in-memory original.
  const std::vector<double> obs = MakeObs(*m1, 11, 5);
  const OfflineRef ref = Offline(*m1, obs);
  auto svc = registry.Acquire(1);
  ASSERT_TRUE(svc.ok());
  auto fut = svc.value()->Submit(serve::DecodeKind::kViterbi, obs);
  const serve::DecodeResponse& r = fut.Wait();
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.path, ref.viterbi.path);
  EXPECT_EQ(r.value, ref.viterbi.log_joint);
  fut.Release();
  // Loading 1 pushed the residency back over the cap: still 2 resident.
  EXPECT_EQ(registry.resident_count(), 2u);

  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
  std::filesystem::remove(p3);
}

TEST(ModelRegistryTest, PinnedModelsNeverEvicted) {
  serve::ModelRegistryOptions opts;
  opts.max_resident = 1;
  serve::ModelRegistry<double> registry(opts);
  ASSERT_TRUE(registry.Register(1, MakeModel(3, 41), /*pinned=*/true).ok());
  ASSERT_TRUE(registry.Register(2, MakeModel(3, 42), /*pinned=*/true).ok());
  // Both pinned: the cap cannot be enforced and both stay resident.
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_EQ(registry.Evict(1).code(), StatusCode::kFailedPrecondition);

  // Unpinning re-applies the cap: the stale model goes.
  ASSERT_TRUE(registry.Pin(1, false).ok());
  EXPECT_EQ(registry.resident_count(), 1u);
  // 1 had no checkpoint path: acquiring it is a typed Unavailable.
  EXPECT_EQ(registry.Acquire(1).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(registry.Acquire(2).ok());
}

TEST(ModelRegistryTest, FailedReloadKeepsPreviousSnapshotServing) {
  const std::string path = TempPath("registry_reload.dhmms");
  auto m1 = MakeModel(3, 51);
  ASSERT_TRUE(store::WriteModel(*m1, 1, path).ok());
  serve::ModelRegistry<double> registry;
  ASSERT_TRUE(registry.RegisterFromFile(1, path).ok());

  const std::vector<double> obs = MakeObs(*m1, 13, 6);
  const OfflineRef ref = Offline(*m1, obs);

  // Simulate a torn write landing mid-reload: truncate the checkpoint to
  // half its bytes, then reload. The load must fail and the registry must
  // keep serving the registered snapshot.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  const Status torn = registry.ReloadModel(1);
  EXPECT_EQ(torn.code(), StatusCode::kIOError);
  EXPECT_EQ(registry.ModelVersion(1).value_or(0), 1u);  // no version bump

  // Missing file: same contract.
  std::filesystem::remove(path);
  EXPECT_FALSE(registry.ReloadModel(1).ok());

  auto svc = registry.Acquire(1);
  ASSERT_TRUE(svc.ok());
  auto fut = svc.value()->Submit(serve::DecodeKind::kViterbi, obs);
  const serve::DecodeResponse& r = fut.Wait();
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.path, ref.viterbi.path);
  EXPECT_EQ(r.value, ref.viterbi.log_joint);
  fut.Release();

  // A good checkpoint reloads and bumps the version.
  auto m2 = MakeModel(3, 52);
  ASSERT_TRUE(store::WriteModel(*m2, 2, path).ok());
  ASSERT_TRUE(registry.ReloadModel(1).ok());
  EXPECT_EQ(registry.ModelVersion(1).value_or(0), 2u);
  EXPECT_EQ(registry.ReloadModel(99).code(), StatusCode::kNotFound);
  std::filesystem::remove(path);
}

// -------------------------------------------------------------- FrontEnd ---

class FrontEndTest : public ::testing::Test {
 protected:
  void StartFrontEnd(const serve::FrontEndOptions& opts = {}) {
    frontend_ =
        std::make_unique<serve::FrontEnd<double>>(&registry_, opts);
    ASSERT_TRUE(frontend_->Start().ok());
  }

  serve::DecodeRequest<double> Request(serve::ModelId model,
                                       serve::DecodeKind kind,
                                       const std::vector<double>* obs,
                                       uint64_t id) {
    serve::DecodeRequest<double> req;
    req.request_id = id;
    req.model = model;
    req.kind = kind;
    req.obs = obs;
    return req;
  }

  // The routed service of `model`: tests pause its dispatcher to hold
  // requests in flight deterministically.
  std::shared_ptr<serve::DecodeService<double>> Service(serve::ModelId model) {
    auto svc = registry_.Acquire(model);
    EXPECT_TRUE(svc.ok());
    return svc.ok() ? std::move(svc).value() : nullptr;
  }

  // How much the process-wide counter `name` grew during this test: the
  // "frontend." counters are shared by every front end in the process.
  uint64_t Delta(const std::string& name) const {
    const obs::Snapshot now =
        obs::Registry::Global().TakeSnapshot("frontend.");
    return static_cast<uint64_t>(now.ValueOf(name) - before_.ValueOf(name));
  }

  const obs::Snapshot before_ =
      obs::Registry::Global().TakeSnapshot("frontend.");
  serve::ModelRegistry<double> registry_;
  std::unique_ptr<serve::FrontEnd<double>> frontend_;
};

TEST_F(FrontEndTest, LoopbackBitwiseMatchesOfflineForEveryModel) {
  auto m1 = MakeModel(3, 61);
  auto m2 = MakeModel(5, 62);
  ASSERT_TRUE(registry_.Register(1, m1).ok());
  ASSERT_TRUE(registry_.Register(2, m2).ok());
  StartFrontEnd();

  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());

  uint64_t next_id = 1;
  for (const auto& [model_id, model] :
       {std::pair{serve::ModelId{1}, m1}, std::pair{serve::ModelId{2}, m2}}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      const std::vector<double> obs = MakeObs(*model, 15, 70 + seed);
      const OfflineRef ref = Offline(*model, obs);

      serve::DecodeResponse resp;
      wire::FrameHeader h;
      ASSERT_TRUE(client
                      .Call(Request(model_id, serve::DecodeKind::kViterbi,
                                    &obs, next_id),
                            &resp, &h)
                      .ok());
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_EQ(h.model, model_id);
      EXPECT_EQ(resp.request_id, next_id);
      EXPECT_EQ(resp.path, ref.viterbi.path);
      EXPECT_EQ(resp.value, ref.viterbi.log_joint);  // bitwise
      ++next_id;

      ASSERT_TRUE(client
                      .Call(Request(model_id, serve::DecodeKind::kPosterior,
                                    &obs, next_id),
                            &resp)
                      .ok());
      ASSERT_TRUE(resp.status.ok());
      EXPECT_EQ(resp.path, ref.posterior);
      EXPECT_EQ(resp.value, ref.log_likelihood);
      ++next_id;

      ASSERT_TRUE(client
                      .Call(Request(model_id, serve::DecodeKind::kLogLikelihood,
                                    &obs, next_id),
                            &resp)
                      .ok());
      ASSERT_TRUE(resp.status.ok());
      EXPECT_TRUE(resp.path.empty());
      EXPECT_EQ(resp.value, ref.log_likelihood);
      ++next_id;
    }
  }
  EXPECT_EQ(Delta("frontend.requests_served"), next_id - 1);
  EXPECT_EQ(Delta("frontend.connections_accepted"), 1u);
}

TEST_F(FrontEndTest, PipelinedRequestsAcrossModelsKeepTheirIds) {
  auto m1 = MakeModel(3, 81);
  auto m2 = MakeModel(4, 82);
  ASSERT_TRUE(registry_.Register(1, m1).ok());
  ASSERT_TRUE(registry_.Register(2, m2).ok());
  StartFrontEnd();

  const std::vector<double> obs1 = MakeObs(*m1, 12, 83);
  const std::vector<double> obs2 = MakeObs(*m2, 12, 84);
  const OfflineRef ref1 = Offline(*m1, obs1);
  const OfflineRef ref2 = Offline(*m2, obs2);

  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  // Even ids go to model 1, odd ids to model 2, interleaved on one
  // connection. Model 1's service is held, so nothing of it can complete.
  auto svc1 = Service(1);
  svc1->PauseDispatch();
  constexpr uint64_t kRounds = 8;
  for (uint64_t i = 0; i < kRounds; ++i) {
    const bool first = i % 2 == 0;
    ASSERT_TRUE(client
                    .Send(Request(first ? 1 : 2, serve::DecodeKind::kViterbi,
                                  first ? &obs1 : &obs2, i))
                    .ok());
  }
  // Responses come back in completion order, matched by id: all of model
  // 2's arrive first, then model 1's once its service resumes.
  std::vector<uint64_t> arrival;
  for (uint64_t i = 0; i < kRounds; ++i) {
    if (i == kRounds / 2) svc1->ResumeDispatch();
    serve::DecodeResponse resp;
    ASSERT_TRUE(client.Receive(&resp).ok());
    ASSERT_TRUE(resp.status.ok());
    const OfflineRef& ref = resp.request_id % 2 == 0 ? ref1 : ref2;
    EXPECT_EQ(resp.path, ref.viterbi.path) << resp.request_id;
    EXPECT_EQ(resp.value, ref.viterbi.log_joint) << resp.request_id;
    arrival.push_back(resp.request_id);
  }
  // FIFO per model: each model's ids arrive in submission order.
  EXPECT_EQ(arrival, (std::vector<uint64_t>{1, 3, 5, 7, 0, 2, 4, 6}));
}

TEST_F(FrontEndTest, PipelinedWindowsNeverWaitForThePollTick) {
  // Completions from two services race the IO thread's own wake-up
  // handling. A lost wake-up would leave a response in the done ring until
  // the next poll tick; with the tick at a minute and the client's receive
  // deadline at a few seconds, that fails the test instead of only
  // slowing it down.
  auto m1 = MakeModel(20, 85);
  auto m2 = MakeModel(20, 86);
  ASSERT_TRUE(registry_.Register(1, m1).ok());
  ASSERT_TRUE(registry_.Register(2, m2).ok());
  serve::FrontEndOptions opts;
  opts.poll_timeout_ms = 60'000;
  StartFrontEnd(opts);
  serve::WireClientOptions copts;
  copts.receive_timeout_ms = 5'000;
  serve::WireClient client(copts);
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = MakeObs(*m1, 32, 87);
  constexpr int kWindows = 1000;
  constexpr uint64_t kWindow = 32;
  uint64_t id = 0;
  for (int w = 0; w < kWindows; ++w) {
    for (uint64_t i = 0; i < kWindow; ++i, ++id) {
      ASSERT_TRUE(client
                      .Send(Request(1 + id % 2, serve::DecodeKind::kViterbi,
                                    &obs, id))
                      .ok());
    }
    for (uint64_t i = 0; i < kWindow; ++i) {
      serve::DecodeResponse resp;
      const Status st = client.Receive(&resp);
      ASSERT_TRUE(st.ok()) << "window " << w << ": " << st.ToString();
      ASSERT_TRUE(resp.status.ok());
    }
  }
}

TEST_F(FrontEndTest, UnknownModelIsTypedNotFound) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 91)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5};

  serve::DecodeResponse resp;
  ASSERT_TRUE(
      client.Call(Request(999, serve::DecodeKind::kViterbi, &obs, 7), &resp)
          .ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(resp.request_id, 7u);
  EXPECT_EQ(Delta("frontend.routing_errors"), 1u);

  // The connection survives a routing error.
  ASSERT_TRUE(
      client.Call(Request(1, serve::DecodeKind::kViterbi, &obs, 8), &resp)
          .ok());
  EXPECT_TRUE(resp.status.ok());
}

TEST_F(FrontEndTest, ExpiredDeadlineIsTypedDeadlineExceeded) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 92)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5, 2.5};

  // Hold the service so the deadline provably expires while queued.
  auto svc = Service(1);
  svc->PauseDispatch();
  serve::DecodeRequest<double> req =
      Request(1, serve::DecodeKind::kViterbi, &obs, 11);
  req.deadline_micros = 1;
  ASSERT_TRUE(client.Send(req).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc->ResumeDispatch();

  serve::DecodeResponse resp;
  ASSERT_TRUE(client.Receive(&resp).ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resp.request_id, 11u);
  EXPECT_EQ(Delta("frontend.deadline_expired"), 1u);

  // An ample deadline decodes normally.
  req.deadline_micros = 60'000'000;
  req.request_id = 12;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  EXPECT_TRUE(resp.status.ok());
}

TEST_F(FrontEndTest, FullQueueShedsWithTypedUnavailable) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 93)).ok());
  serve::FrontEndOptions opts;
  opts.queue_capacity = 2;
  StartFrontEnd(opts);
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5, 2.5};

  // With the service held, only queue_capacity requests fit in flight;
  // the rest must be shed immediately with Unavailable.
  auto svc = Service(1);
  svc->PauseDispatch();
  constexpr uint64_t kTotal = 6;
  for (uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(
        client.Send(Request(1, serve::DecodeKind::kLogLikelihood, &obs, i))
            .ok());
  }
  // Wait until the IO thread has processed (and shed) the overflow.
  for (int spin = 0; spin < 200 && Delta("frontend.requests_shed") < kTotal - 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  svc->ResumeDispatch();

  size_t ok = 0, shed = 0;
  for (uint64_t i = 0; i < kTotal; ++i) {
    serve::DecodeResponse resp;
    ASSERT_TRUE(client.Receive(&resp).ok());
    if (resp.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, kTotal - 2);
  EXPECT_EQ(Delta("frontend.requests_shed"), kTotal - 2);
}

TEST_F(FrontEndTest, MalformedPayloadGetsTypedErrorAndConnectionSurvives) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 94)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5};

  // Unknown request kind, framing otherwise intact.
  std::vector<uint8_t> frame;
  ASSERT_TRUE(
      wire::EncodeRequest(Request(1, serve::DecodeKind::kViterbi, &obs, 21),
                          &frame)
          .ok());
  frame[6] = 7;  // kind byte
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  serve::DecodeResponse resp;
  ASSERT_TRUE(client.Receive(&resp).ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(resp.request_id, 21u);
  EXPECT_EQ(Delta("frontend.frames_malformed"), 1u);
  EXPECT_EQ(Delta("frontend.bad_headers"), 0u);
  EXPECT_EQ(Delta("frontend.oversized_frames"), 0u);

  // Framing was intact, so the connection keeps working.
  ASSERT_TRUE(
      client.Call(Request(1, serve::DecodeKind::kViterbi, &obs, 22), &resp)
          .ok());
  EXPECT_TRUE(resp.status.ok());
}

TEST_F(FrontEndTest, GarbageHeaderClosesConnection) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 95)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  std::vector<uint8_t> garbage(wire::kHeaderSize, 0xAB);
  ASSERT_TRUE(client.SendRaw(garbage.data(), garbage.size()).ok());
  serve::DecodeResponse resp;
  EXPECT_FALSE(client.Receive(&resp).ok());  // server closed the stream
  EXPECT_EQ(Delta("frontend.bad_headers"), 1u);
  EXPECT_EQ(Delta("frontend.frames_malformed"), 0u);

  // The server itself is unharmed: a fresh connection decodes fine.
  const std::vector<double> obs = {0.5, 1.5};
  serve::WireClient client2;
  ASSERT_TRUE(client2.Connect(frontend_->port()).ok());
  ASSERT_TRUE(
      client2.Call(Request(1, serve::DecodeKind::kViterbi, &obs, 31), &resp)
          .ok());
  EXPECT_TRUE(resp.status.ok());
}

TEST_F(FrontEndTest, OversizedPayloadGetsOutOfRangeThenClose) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 96)).ok());
  serve::FrontEndOptions opts;
  opts.max_payload_bytes = 256;
  StartFrontEnd(opts);
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());

  wire::FrameHeader h;
  h.kind = static_cast<uint8_t>(serve::DecodeKind::kViterbi);
  h.model = 1;
  h.request_id = 41;
  h.payload_len = 4096;  // over the front-end cap, under the wire cap
  uint8_t header[wire::kHeaderSize];
  wire::EncodeHeader(h, header);
  ASSERT_TRUE(client.SendRaw(header, sizeof(header)).ok());

  serve::DecodeResponse resp;
  ASSERT_TRUE(client.Receive(&resp).ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(resp.request_id, 41u);
  EXPECT_EQ(Delta("frontend.oversized_frames"), 1u);
  EXPECT_EQ(Delta("frontend.bad_headers"), 0u);
  // After the typed response the connection is gone (its framing cannot
  // be resynchronized past an unread payload).
  EXPECT_FALSE(client.Receive(&resp).ok());
}

TEST_F(FrontEndTest, SteadyStateWireRoundTripIsAllocationFree) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(4, 97)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  auto snapshot = registry_.Acquire(1);
  ASSERT_TRUE(snapshot.ok());
  const std::vector<double> obs =
      MakeObs(*snapshot.value()->ModelSnapshot(), 17, 98);
  snapshot.value().reset();

  auto round = [&](uint64_t id, serve::DecodeResponse* resp) {
    serve::DecodeRequest<double> req =
        Request(1, serve::DecodeKind::kViterbi, &obs, id);
    return client.Call(req, resp).ok() && resp->status.ok();
  };

  serve::DecodeResponse resp;
  for (uint64_t i = 0; i < 50; ++i) ASSERT_TRUE(round(i, &resp));  // warm-up

  const long before = alloc_counter::Count();
  bool all_ok = true;
  for (uint64_t i = 0; i < 20; ++i) all_ok = all_ok && round(100 + i, &resp);
  const long after = alloc_counter::Count();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0)
      << "steady-state wire round trips must not allocate";
}

TEST_F(FrontEndTest, HotSwapAndColdLoadServeTheRegistryVersion) {
  // Every response carries the registry's version of the model that
  // served it: 1 at registration, then one more per swap and per cold
  // load.
  const std::string path = TempPath("served_version.dhmms");
  auto m1 = MakeModel(3, 99);
  auto m2 = MakeModel(3, 100);
  ASSERT_TRUE(store::WriteModel(*m1, 1, path).ok());
  ASSERT_TRUE(registry_.RegisterFromFile(1, path).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = MakeObs(*m1, 14, 101);
  const OfflineRef ref1 = Offline(*m1, obs);
  const OfflineRef ref2 = Offline(*m2, obs);

  serve::DecodeResponse resp;
  const auto serve_and_check = [&](uint64_t id, const OfflineRef& ref,
                                   uint64_t version) {
    ASSERT_TRUE(
        client.Call(Request(1, serve::DecodeKind::kViterbi, &obs, id), &resp)
            .ok());
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.path, ref.viterbi.path);
    EXPECT_EQ(resp.value, ref.viterbi.log_joint);
    EXPECT_EQ(resp.model_version, version);
    EXPECT_EQ(registry_.ModelVersion(1).value_or(0), version);
  };
  serve_and_check(51, ref1, 1);

  ASSERT_TRUE(registry_.UpdateModel(1, m2).ok());
  serve_and_check(52, ref2, 2);  // the swap is visible on the wire

  // Evicted, the model cold-loads its checkpoint (m1) on the next request.
  ASSERT_TRUE(registry_.Evict(1).ok());
  serve_and_check(53, ref1, 3);
  std::filesystem::remove(path);
}

// ------------------------------------------------- sessions on the wire ---

TEST_F(FrontEndTest, SessionPushRoundTripsOverTheWire) {
  auto model = MakeModel(4, 141);
  ASSERT_TRUE(registry_.Register(1, model).ok());
  serve::SessionManagerOptions mopts;
  mopts.lag = 2;
  serve::SessionManager<double> sessions(model, mopts);
  frontend_ = std::make_unique<serve::FrontEnd<double>>(&registry_);
  frontend_->EnableSessions(&sessions, 1);
  ASSERT_TRUE(frontend_->Start().ok());
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());

  // Reference: a separate in-process session with the same lag.
  const std::vector<double> obs = MakeObs(*model, 8, 142);
  serve::SessionManager<double> ref(model, mopts);
  auto ref_session = ref.CreateSession();
  ASSERT_TRUE(ref_session.ok());
  std::vector<int> want_labels;
  for (const double y : obs) {
    int label = -1;
    ASSERT_TRUE(ref.Push(ref_session.value(), y, &label).ok());
    if (label >= 0) want_labels.push_back(label);
  }
  auto want_loglik = ref.LogLikelihood(ref_session.value());
  ASSERT_TRUE(want_loglik.ok());

  // First push: 6 frames in, lag 2 => labels for frames 0..3 come back.
  const std::vector<double> first(obs.begin(), obs.begin() + 6);
  serve::DecodeResponse resp;
  ASSERT_TRUE(
      client.Call(Request(1, serve::DecodeKind::kSessionPush, &first, 61),
                  &resp)
          .ok());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.request_id, 61u);
  EXPECT_EQ(resp.path,
            std::vector<int>(want_labels.begin(), want_labels.begin() + 4));

  // Second push on the same connection continues the same resident
  // session: two more labels, and the running log-likelihood is the
  // 8-frame prefix value, bitwise.
  const std::vector<double> second(obs.begin() + 6, obs.end());
  ASSERT_TRUE(
      client.Call(Request(1, serve::DecodeKind::kSessionPush, &second, 62),
                  &resp)
          .ok());
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.path,
            std::vector<int>(want_labels.begin() + 4, want_labels.end()));
  EXPECT_EQ(resp.value, want_loglik.value());  // bitwise
  EXPECT_EQ(resp.model_version, 1u);
  EXPECT_EQ(sessions.live_sessions(), 1u);

  // Session pushes serve exactly the designated model id.
  ASSERT_TRUE(
      client.Call(Request(2, serve::DecodeKind::kSessionPush, &second, 63),
                  &resp)
          .ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kNotFound);

  frontend_.reset();  // the manager must outlive the front-end threads
}

TEST_F(FrontEndTest, SessionPushWithoutSessionsEnabledIsTypedError) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 143)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5};
  serve::DecodeResponse resp;
  ASSERT_TRUE(
      client.Call(Request(1, serve::DecodeKind::kSessionPush, &obs, 71),
                  &resp)
          .ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kFailedPrecondition);
  // The batch service path refuses the opcode outright too.
  serve::DecodeService<double> service(MakeModel(3, 144));
  auto fut = service.Submit(serve::DecodeKind::kSessionPush, obs);
  EXPECT_EQ(fut.Wait().status.code(), StatusCode::kInvalidArgument);
}

TEST_F(FrontEndTest, ClosingAConnectionDestroysItsSession) {
  auto model = MakeModel(3, 145);
  ASSERT_TRUE(registry_.Register(1, model).ok());
  serve::SessionManager<double> sessions(model);
  frontend_ = std::make_unique<serve::FrontEnd<double>>(&registry_);
  frontend_->EnableSessions(&sessions, 1);
  ASSERT_TRUE(frontend_->Start().ok());
  const std::vector<double> obs = MakeObs(*model, 5, 146);
  {
    serve::WireClient client;
    ASSERT_TRUE(client.Connect(frontend_->port()).ok());
    serve::DecodeResponse resp;
    ASSERT_TRUE(
        client.Call(Request(1, serve::DecodeKind::kSessionPush, &obs, 65),
                    &resp)
            .ok());
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(sessions.live_sessions(), 1u);
  }  // the client disconnects
  // The IO thread sees the EOF and tears the session down with the
  // connection, not when some later connection reuses the slot.
  for (int spin = 0; spin < 2000 && sessions.live_sessions() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sessions.live_sessions(), 0u);
  frontend_.reset();  // the manager must outlive the front-end
}

// ----------------------------------------- out-of-vocabulary symbols ---

// A categorical symbol outside [0, V) is impossible under every state: each
// request kind carrying one is a typed InvalidArgument, and the connection,
// the service and the session manager keep serving bitwise-correct
// answers.
TEST(FrontEndVocabularyTest, OutOfVocabularySymbolIsTypedInvalidArgument) {
  const size_t k = 4;
  const int vocab = 50;
  prob::Rng rng(151);
  auto model = std::make_shared<const hmm::HmmModel<int>>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(k, vocab, rng)));
  serve::ModelRegistry<int> registry;
  ASSERT_TRUE(registry.Register(1, model).ok());
  serve::SessionManagerOptions mopts;
  mopts.lag = 2;
  serve::SessionManager<int> sessions(model, mopts);
  serve::FrontEnd<int> frontend(&registry);  // stopped before `sessions` dies
  frontend.EnableSessions(&sessions, 1);
  ASSERT_TRUE(frontend.Start().ok());
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend.port()).ok());

  const std::vector<int> good = hmm::SampleSequence(*model, 12, rng).obs;
  const linalg::Matrix log_b = model->emission->LogProbTable(good);
  const hmm::ViterbiResult vit = checked::Viterbi(model->pi, model->a, log_b);
  const std::vector<int> posterior =
      checked::PosteriorDecode(model->pi, model->a, log_b);
  const double loglik = checked::LogLikelihood(model->pi, model->a, log_b);
  // A rejected push tears its stream down, so the next push starts fresh.
  serve::SessionManager<int> ref(model, mopts);
  const serve::SessionHandle ref_session = ref.CreateSession().value();
  std::vector<int> labels;
  for (const int y : good) {
    int label = -1;
    ASSERT_TRUE(ref.Push(ref_session, y, &label).ok());
    if (label >= 0) labels.push_back(label);
  }
  const double stream_loglik = ref.LogLikelihood(ref_session).value();

  uint64_t id = 1;
  auto call = [&](serve::DecodeKind kind, const std::vector<int>* obs,
                  serve::DecodeResponse* resp) {
    serve::DecodeRequest<int> req;
    req.request_id = id++;
    req.model = 1;
    req.kind = kind;
    req.obs = obs;
    ASSERT_TRUE(client.Call(req, resp).ok());
  };
  for (const int bad : {-1, vocab, std::numeric_limits<int32_t>::max()}) {
    std::vector<int> obs = good;
    obs[5] = bad;
    for (const serve::DecodeKind kind :
         {serve::DecodeKind::kViterbi, serve::DecodeKind::kPosterior,
          serve::DecodeKind::kLogLikelihood,
          serve::DecodeKind::kSessionPush}) {
      SCOPED_TRACE(testing::Message() << "symbol " << bad << ", kind "
                                      << static_cast<int>(kind));
      serve::DecodeResponse resp;
      call(kind, &obs, &resp);
      EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument)
          << resp.status.ToString();

      call(kind, &good, &resp);
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      switch (kind) {
        case serve::DecodeKind::kViterbi:
          EXPECT_EQ(resp.path, vit.path);
          EXPECT_EQ(resp.value, vit.log_joint);  // bitwise
          break;
        case serve::DecodeKind::kPosterior:
          EXPECT_EQ(resp.path, posterior);
          EXPECT_EQ(resp.value, loglik);
          break;
        case serve::DecodeKind::kLogLikelihood:
          EXPECT_EQ(resp.value, loglik);
          break;
        default:
          EXPECT_EQ(resp.path, labels);
          EXPECT_EQ(resp.value, stream_loglik);
          break;
      }
    }
  }
}

// ------------------------------------------------------- connection cap ---

TEST_F(FrontEndTest, ConnectionCapClosesExcessClientAndFreesSlotOnDisconnect) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 148)).ok());
  serve::FrontEndOptions opts;
  opts.max_connections = 2;
  StartFrontEnd(opts);
  const std::vector<double> obs = {0.5, 1.5, 2.5};
  serve::WireClientOptions copts;
  copts.receive_timeout_ms = 5000;  // a regression fails instead of hanging
  auto served = [&](serve::WireClient& client, uint64_t id) {
    serve::DecodeResponse resp;
    return client.Call(Request(1, serve::DecodeKind::kViterbi, &obs, id),
                       &resp)
               .ok() &&
           resp.status.ok();
  };

  serve::WireClient first(copts);
  serve::WireClient second(copts);
  ASSERT_TRUE(first.Connect(frontend_->port()).ok());
  ASSERT_TRUE(served(first, 1));
  ASSERT_TRUE(second.Connect(frontend_->port()).ok());
  ASSERT_TRUE(served(second, 2));

  // Both slots are taken: the server closes a third client on accept.
  serve::WireClient third(copts);
  ASSERT_TRUE(third.Connect(frontend_->port()).ok());
  serve::DecodeResponse resp;
  EXPECT_EQ(third.Receive(&resp).code(), StatusCode::kUnavailable);
  for (int spin = 0;
       spin < 2000 && Delta("frontend.connections_rejected") != 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(Delta("frontend.connections_rejected"), 1u);
  EXPECT_TRUE(served(second, 3));  // the open clients are unharmed

  // A disconnect frees its slot. The IO thread may accept a new client
  // before it reads the old one's EOF, so connect until one is served.
  first.Close();
  bool fresh_served = false;
  for (int attempt = 0; attempt < 2000 && !fresh_served; ++attempt) {
    serve::WireClient fresh(copts);
    fresh_served = fresh.Connect(frontend_->port()).ok() &&
                   served(fresh, 10 + static_cast<uint64_t>(attempt));
    if (!fresh_served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(fresh_served);
  EXPECT_TRUE(served(second, 4));
}

// ------------------------------------------------------ drain on Stop() ---

TEST_F(FrontEndTest, StopDrainsRequestsHeldInAPausedService) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 147)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5, 2.5};

  auto svc = Service(1);
  svc->PauseDispatch();
  constexpr uint64_t kHeld = 8;
  for (uint64_t i = 0; i < kHeld; ++i) {
    ASSERT_TRUE(
        client.Send(Request(1, serve::DecodeKind::kViterbi, &obs, i)).ok());
  }
  // Wait until the IO thread has submitted every request: the in-flight
  // gauge counts them.
  const auto inflight = [] {
    return obs::Registry::Global()
        .TakeSnapshot("frontend.")
        .ValueOf("frontend.req_ring_occupancy");
  };
  for (int spin = 0; spin < 2000 && inflight() != kHeld; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(inflight(), static_cast<double>(kHeld));

  // Stop() must wait for every hook: the service resumes from another
  // thread while Stop() is already blocked on the drain.
  std::thread resumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    svc->ResumeDispatch();
  });
  frontend_->Stop();
  resumer.join();
  EXPECT_EQ(Delta("frontend.requests_served"), kHeld);

  // The drained responses went out before the connection closed.
  for (uint64_t i = 0; i < kHeld; ++i) {
    serve::DecodeResponse resp;
    ASSERT_TRUE(client.Receive(&resp).ok()) << i;
    EXPECT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.request_id, i);
  }
  serve::DecodeResponse resp;
  EXPECT_FALSE(client.Receive(&resp).ok());  // then the server closed
}

// --------------------------------------------- WireClient receive deadline ---

TEST_F(FrontEndTest, ReceiveDeadlineExpiresAndConnectionRecovers) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 151)).ok());
  StartFrontEnd();
  serve::WireClientOptions copts;
  copts.receive_timeout_ms = 60;
  serve::WireClient client(copts);
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5, 2.5};

  // Hold the service: the response cannot arrive inside the deadline.
  auto svc = Service(1);
  svc->PauseDispatch();
  ASSERT_TRUE(
      client.Send(Request(1, serve::DecodeKind::kViterbi, &obs, 81)).ok());
  serve::DecodeResponse resp;
  EXPECT_EQ(client.Receive(&resp).code(), StatusCode::kDeadlineExceeded);

  // The connection was left intact: once the server catches up, the late
  // frame is still readable by a later Receive.
  svc->ResumeDispatch();
  Status st = Status::DeadlineExceeded("retry");
  for (int attempt = 0; attempt < 50 && !st.ok(); ++attempt) {
    st = client.Receive(&resp);
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.request_id, 81u);

  // The option is Validate()-checked like every serve options struct.
  serve::WireClientOptions bad;
  bad.receive_timeout_ms = -1;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(serve::WireClientOptions{}.Validate().ok());
}

TEST(WireClientReceiveTest, MidFrameDeadlineKeepsTheFrameForTheNextReceive) {
  // A raw loopback listener plays the server, so the test controls exactly
  // how much of a response frame has arrived when the deadline fires.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  serve::WireClientOptions copts;
  copts.receive_timeout_ms = 30;
  serve::WireClient client(copts);
  ASSERT_TRUE(client.Connect(ntohs(addr.sin_port)).ok());
  const int sfd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(sfd, 0);

  serve::DecodeResponse sent;
  sent.request_id = 77;
  sent.path = {0, 2, 1, 1};
  sent.value = -3.25;
  sent.model_version = 4;
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeResponse(sent, /*model=*/9, &frame).ok());
  const auto write_bytes = [&](size_t from, size_t to) {
    ASSERT_EQ(::send(sfd, frame.data() + from, to - from, MSG_NOSIGNAL),
              static_cast<ssize_t>(to - from));
  };

  // Half a header, then the deadline; the rest of the header and half the
  // payload, then the deadline again; then the rest. Each Receive resumes
  // the same frame.
  const size_t half_header = wire::kHeaderSize / 2;
  const size_t half_payload = (wire::kHeaderSize + frame.size()) / 2;
  serve::DecodeResponse resp;
  write_bytes(0, half_header);
  EXPECT_EQ(client.Receive(&resp).code(), StatusCode::kDeadlineExceeded);
  write_bytes(half_header, half_payload);
  EXPECT_EQ(client.Receive(&resp).code(), StatusCode::kDeadlineExceeded);
  write_bytes(half_payload, frame.size());
  wire::FrameHeader h;
  const Status st = client.Receive(&resp, &h);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(resp.request_id, 77u);
  EXPECT_EQ(resp.path, sent.path);
  EXPECT_EQ(resp.value, sent.value);
  EXPECT_EQ(h.model, 9u);

  // The next frame starts clean.
  write_bytes(0, frame.size());
  ASSERT_TRUE(client.Receive(&resp).ok());
  EXPECT_EQ(resp.request_id, 77u);
  ::close(sfd);
  ::close(lfd);
}

// ------------------------------------------------- registry LRU edge cases ---

TEST(ModelRegistryTest, ColdReloadRacingUpdateModelStaysCoherent) {
  const std::string path = TempPath("registry_race.dhmms");
  auto m1 = MakeModel(3, 171);
  auto m2 = MakeModel(3, 172);
  ASSERT_TRUE(store::WriteModel(*m1, 1, path).ok());
  serve::ModelRegistry<double> registry;
  ASSERT_TRUE(registry.RegisterFromFile(1, path).ok());

  // Thread A cold-loads through Acquire while thread B hot-swaps and
  // evicts the same id. Acquired services are shared_ptr snapshots, so
  // every acquired handle must stay usable whatever the interleaving.
  const std::vector<double> obs = MakeObs(*m1, 10, 173);
  std::atomic<int> acquire_failures{0};
  std::thread loader([&] {
    for (int i = 0; i < 200; ++i) {
      auto svc = registry.Acquire(1);
      if (!svc.ok()) {
        ++acquire_failures;
        continue;
      }
      auto fut = svc.value()->Submit(serve::DecodeKind::kLogLikelihood, obs);
      if (!fut.Wait().status.ok()) ++acquire_failures;
    }
  });
  std::thread swapper([&] {
    for (int i = 0; i < 200; ++i) {
      registry.UpdateModel(1, i % 2 == 0 ? m2 : m1);
      registry.Evict(1);  // next Acquire cold-loads from the checkpoint
    }
  });
  loader.join();
  swapper.join();
  // Every interleaving resolves to a served decode: the remembered
  // checkpoint makes eviction transparent to Acquire.
  EXPECT_EQ(acquire_failures.load(), 0);

  // Determinism after the dust settles: evicted state reloads the
  // checkpoint bytes (m1), bitwise.
  registry.Evict(1);
  const OfflineRef ref = Offline(*m1, obs);
  auto svc = registry.Acquire(1);
  ASSERT_TRUE(svc.ok());
  auto fut = svc.value()->Submit(serve::DecodeKind::kViterbi, obs);
  const serve::DecodeResponse& r = fut.Wait();
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.path, ref.viterbi.path);
  EXPECT_EQ(r.value, ref.viterbi.log_joint);
  fut.Release();
  std::filesystem::remove(path);
}

TEST_F(FrontEndTest, OptionsValidateRejectsNonsense) {
  serve::FrontEndOptions opts;
  opts.queue_capacity = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = {};
  opts.max_payload_bytes = wire::kMaxPayload + 1;
  EXPECT_FALSE(opts.Validate().ok());
  opts = {};
  opts.max_connections = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = {};
  opts.poll_timeout_ms = 0;
  EXPECT_FALSE(opts.Validate().ok());
  EXPECT_TRUE(serve::FrontEndOptions{}.Validate().ok());
  serve::ModelRegistryOptions ropts;
  ropts.max_resident = 0;
  EXPECT_FALSE(ropts.Validate().ok());
}

// ------------------------------------------------- kStats on the wire ---

TEST_F(FrontEndTest, StatsOpcodeReturnsRenderedSnapshotInline) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 181)).ok());
  StartFrontEnd();
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  const std::vector<double> obs = {0.5, 1.5, 2.5};

  // Some decode traffic first, so the snapshot has non-zero counters.
  serve::DecodeResponse resp;
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        client.Call(Request(1, serve::DecodeKind::kViterbi, &obs, i), &resp)
            .ok());
    ASSERT_TRUE(resp.status.ok());
  }

  // The stats query itself: model id is ignored, the observation payload
  // is empty, and the rendered snapshot rides the message field.
  const std::vector<double> empty;
  ASSERT_TRUE(
      client.Call(Request(0, serve::DecodeKind::kStats, &empty, 91), &resp)
          .ok());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.request_id, 91u);
  EXPECT_EQ(resp.kind, serve::DecodeKind::kStats);
  ASSERT_FALSE(resp.text.empty());
  // The full (unprefixed) snapshot: front-end counters, the latency
  // histogram expansion, and the startup ISA gauge all show up.
  EXPECT_NE(resp.text.find("frontend.frames_accepted "), std::string::npos)
      << resp.text;
  EXPECT_NE(resp.text.find("frontend.requests.stats "), std::string::npos);
  EXPECT_NE(resp.text.find("frontend.request_latency_us.p99 "),
            std::string::npos);
  EXPECT_NE(resp.text.find("startup.kernel_isa "), std::string::npos);

  // The in-process accessor renders only the "frontend." prefix.
  const std::string s = frontend_->StatsString();
  EXPECT_NE(s.find("frontend.frames_accepted "), std::string::npos);
  EXPECT_EQ(s.find("startup."), std::string::npos);

  // A later decode on the same connection still works: stats queries are
  // ordinary frames, not a connection mode.
  ASSERT_TRUE(
      client.Call(Request(1, serve::DecodeKind::kViterbi, &obs, 92), &resp)
          .ok());
  EXPECT_TRUE(resp.status.ok());
}

TEST_F(FrontEndTest, StatsFrameSurvivesEveryPrefixTruncation) {
  ASSERT_TRUE(registry_.Register(1, MakeModel(3, 182)).ok());
  StartFrontEnd();

  std::vector<uint8_t> frame;
  const std::vector<double> empty;
  ASSERT_TRUE(
      wire::EncodeRequest(Request(0, serve::DecodeKind::kStats, &empty, 93),
                          &frame)
          .ok());

  // Every strict prefix of the frame, sent and abandoned: the server must
  // treat each as an incomplete frame and drop the connection on EOF
  // without crashing, wedging, or leaking the IO thread.
  for (size_t len = 0; len < frame.size(); ++len) {
    serve::WireClient partial;
    ASSERT_TRUE(partial.Connect(frontend_->port()).ok()) << "len=" << len;
    if (len > 0) {
      ASSERT_TRUE(partial.SendRaw(frame.data(), len).ok());
    }
    partial.Close();
  }

  // A kStats frame with an intact header but a lying payload (declares 5
  // observations, carries none) gets the typed error, kind preserved, and
  // the connection survives — framing itself was coherent.
  serve::WireClient client;
  ASSERT_TRUE(client.Connect(frontend_->port()).ok());
  std::vector<uint8_t> bad = frame;
  bad[32] = 4;  // payload_len stays 4 (just the count field)...
  bad[wire::kHeaderSize] = 5;  // ...but the count now claims 5 obs
  ASSERT_TRUE(client.SendRaw(bad.data(), bad.size()).ok());
  serve::DecodeResponse resp;
  ASSERT_TRUE(client.Receive(&resp).ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(resp.request_id, 93u);
  EXPECT_EQ(resp.kind, serve::DecodeKind::kStats);

  // After all that abuse, the server still answers a well-formed stats
  // query on the surviving connection.
  ASSERT_TRUE(
      client.Call(Request(0, serve::DecodeKind::kStats, &empty, 94), &resp)
          .ok());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.text.empty());
}

// --------------------------------------------- counter reconciliation ---

TEST(FrontEndObsTest, PerKindCountersReconcileExactlyForEveryWorkerCount) {
  // The per-kind counters partition accepted frames: for any decode
  // worker count, sum over kinds == frames_accepted, exactly. Counters
  // are process-wide, so everything is asserted on before/after deltas.
  for (const int workers : {1, 2, 4}) {
    serve::ModelRegistryOptions ropts;
    ropts.service.num_threads = workers;
    serve::ModelRegistry<double> registry(ropts);
    ASSERT_TRUE(registry.Register(1, MakeModel(3, 183)).ok());
    serve::FrontEnd<double> frontend(&registry);
    ASSERT_TRUE(frontend.Start().ok());
    serve::WireClient client;
    ASSERT_TRUE(client.Connect(frontend.port()).ok());
    const std::vector<double> obs = {0.5, 1.5, 2.5, 3.5};
    const std::vector<double> empty;

    const obs::Snapshot before =
        obs::Registry::Global().TakeSnapshot("frontend.");

    // Distinct per-kind counts catch a mismapped counter index; the
    // session pushes (sessions not enabled => FailedPrecondition) prove
    // "accepted" means well-formed, not successfully served.
    const struct {
      serve::DecodeKind kind;
      const std::vector<double>* payload;
      uint64_t count;
    } mix[] = {{serve::DecodeKind::kViterbi, &obs, 7},
               {serve::DecodeKind::kPosterior, &obs, 5},
               {serve::DecodeKind::kLogLikelihood, &obs, 3},
               {serve::DecodeKind::kSessionPush, &obs, 2},
               {serve::DecodeKind::kStats, &empty, 1}};
    uint64_t id = 0, total = 0;
    serve::DecodeResponse resp;
    for (const auto& m : mix) {
      for (uint64_t i = 0; i < m.count; ++i, ++total) {
        serve::DecodeRequest<double> req;
        req.request_id = ++id;
        req.model = 1;
        req.kind = m.kind;
        req.obs = m.payload;
        ASSERT_TRUE(client.Call(req, &resp).ok());
      }
    }

    const obs::Snapshot after =
        obs::Registry::Global().TakeSnapshot("frontend.");
    const auto delta = [&](const std::string& name) {
      return after.ValueOf(name) - before.ValueOf(name);
    };
    EXPECT_EQ(delta("frontend.requests.viterbi"), 7.0) << workers;
    EXPECT_EQ(delta("frontend.requests.posterior"), 5.0) << workers;
    EXPECT_EQ(delta("frontend.requests.loglik"), 3.0) << workers;
    EXPECT_EQ(delta("frontend.requests.session_push"), 2.0) << workers;
    EXPECT_EQ(delta("frontend.requests.stats"), 1.0) << workers;
    EXPECT_EQ(delta("frontend.frames_accepted"),
              static_cast<double>(total))
        << workers;
    EXPECT_EQ(delta("frontend.request_latency_us.count"),
              static_cast<double>(total))
        << workers;
  }
}

// ------------------------------------------- WireClient connect deadline ---

TEST(WireClientConnectTest, ValidateAndRefusalAreTyped) {
  serve::WireClientOptions bad;
  bad.connect_timeout_ms = -1;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);

  // A dead port refuses outright: that is a connect error carrying the
  // SO_ERROR/errno detail, not a DeadlineExceeded — the deadline is only
  // for connects that never resolve.
  uint16_t dead_port = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t alen = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen),
              0);
    dead_port = ntohs(addr.sin_port);
    ::close(fd);  // bound but never listened: the port now refuses
  }
  serve::WireClientOptions copts;
  copts.connect_timeout_ms = 500;
  serve::WireClient client(copts);
  const Status st = client.Connect(dead_port);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_FALSE(client.connected());
}

TEST(WireClientConnectTest, ConnectTimeoutIsTypedDeadlineExceeded) {
  // A listener that never accepts, with the smallest backlog: once the
  // kernel accept queue fills, further SYNs are dropped and the connect
  // hangs — exactly what connect_timeout_ms exists to bound.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, /*backlog=*/0), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const uint16_t port = ntohs(addr.sin_port);

  serve::WireClientOptions copts;
  copts.connect_timeout_ms = 250;
  // Fillers saturate the backlog; the exact capacity is a kernel detail,
  // so connect until one times out.
  std::vector<std::unique_ptr<serve::WireClient>> fillers;
  bool saw_timeout = false;
  for (int attempt = 0; attempt < 16 && !saw_timeout; ++attempt) {
    auto c = std::make_unique<serve::WireClient>(copts);
    const auto t0 = std::chrono::steady_clock::now();
    const Status st = c->Connect(port);
    if (st.ok()) {
      fillers.push_back(std::move(c));
      continue;
    }
    ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
    EXPECT_NE(st.message().find("connect deadline"), std::string::npos);
    EXPECT_FALSE(c->connected());
    // The deadline was honored, not busy-failed and not ignored.
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_GE(elapsed.count(), 200);
    EXPECT_LT(elapsed.count(), 5000);
    saw_timeout = true;
  }
  EXPECT_TRUE(saw_timeout)
      << "no connect timed out against a saturated backlog";
  ::close(lfd);
}

}  // namespace
}  // namespace dhmm

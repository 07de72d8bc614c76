// The multi-model serving stack end to end: register several models in a
// ModelRegistry (one pinned, a residency cap forcing LRU eviction), stand
// up the wire front-end on a loopback port, and talk to it with the
// binary protocol — healthy decodes against every model, a hot reload
// from an atomically-saved checkpoint mid-traffic, and the typed error
// responses (unknown model, expired deadline) a client must handle.
//
// Flags: --models=<int> (default 3)  --max-resident=<int> (default 2)
//        --requests=<int> (default 12, per model)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hmm/model.h"
#include "hmm/sampler.h"
#include "hmm/sequence.h"
#include "obs/metrics.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"
#include "serve/frontend.h"
#include "serve/model_registry.h"
#include "serve/wire_client.h"
#include "store/model_codec.h"
#include "util/flags.h"

namespace {

using namespace dhmm;

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

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const int models_flag = flags.GetInt("models", 3);
  const int resident_flag = flags.GetInt("max-resident", 2);
  const int requests_flag = flags.GetInt("requests", 12);
  st = flags.VerifyAllRead();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (models_flag < 1 || models_flag > 64 || resident_flag < 1 ||
      requests_flag < 1 || requests_flag > 100000) {
    std::fprintf(stderr, "--models in [1,64], --max-resident >= 1, "
                         "--requests in [1,100000]\n");
    return 1;
  }
  const size_t num_models = static_cast<size_t>(models_flag);
  const size_t per_model = static_cast<size_t>(requests_flag);

  // 1. A fleet of per-tenant models: each goes through an atomic
  // checkpoint save so the registry can cold-reload it after eviction.
  serve::ModelRegistryOptions ropts;
  ropts.max_resident = static_cast<size_t>(resident_flag);
  serve::ModelRegistry<double> registry(ropts);
  std::vector<std::shared_ptr<const hmm::HmmModel<double>>> models;
  for (size_t m = 0; m < num_models; ++m) {
    auto model = MakeModel(3 + m % 3, 100 + m);
    const std::string path =
        "/tmp/dhmm_gateway_" + std::to_string(m + 1) + ".dhmms";
    st = store::WriteModel(*model, 1, path);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    // Model 1 is the hot tenant: pinned, never LRU-evicted.
    st = registry.RegisterFromFile(m + 1, path, /*pinned=*/m == 0);
    if (!st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    models.push_back(std::move(model));
  }
  std::printf("registered %zu models, %zu resident (cap %zu, model 1 "
              "pinned)\n",
              num_models, registry.resident_count(), ropts.max_resident);

  // 2. The wire front-end on an ephemeral loopback port. It counts into
  // the process-wide metrics registry; this run's share is the growth
  // from here on.
  const obs::Snapshot before =
      obs::Registry::Global().TakeSnapshot("frontend.");
  serve::FrontEnd<double> frontend(&registry);
  st = frontend.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("front-end listening on 127.0.0.1:%u\n", frontend.port());

  serve::WireClient client;
  st = client.Connect(frontend.port());
  if (!st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. Traffic round-robined over every model — evicted models come back
  // transparently from their checkpoints.
  prob::Rng rng(7);
  uint64_t next_id = 1;
  for (size_t m = 0; m < num_models; ++m) {
    const std::vector<double> obs =
        hmm::SampleSequence(*models[m], 24, rng).obs;
    double sum_ll = 0.0;
    for (size_t i = 0; i < per_model; ++i) {
      serve::DecodeRequest<double> req;
      req.request_id = next_id++;
      req.model = m + 1;
      req.kind = serve::DecodeKind::kLogLikelihood;
      req.obs = &obs;
      serve::DecodeResponse resp;
      st = client.Call(req, &resp);
      if (!st.ok() || !resp.status.ok()) {
        std::fprintf(stderr, "request failed: %s / %s\n",
                     st.ToString().c_str(), resp.status.ToString().c_str());
        return 1;
      }
      sum_ll += resp.value;
    }
    std::printf("model %zu: %zu decodes, mean loglik %.3f (version %llu)\n",
                m + 1, per_model,
                sum_ll / static_cast<double>(per_model),
                static_cast<unsigned long long>(
                    registry.ModelVersion(m + 1).value_or(0)));
  }

  // 4. Hot reload model 1 from its checkpoint mid-traffic.
  st = registry.ReloadModel(1);
  if (!st.ok()) {
    std::fprintf(stderr, "reload failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("model 1 hot-reloaded: version %llu, still %zu resident\n",
              static_cast<unsigned long long>(
                  registry.ModelVersion(1).value_or(0)),
              registry.resident_count());

  // 5. The typed error surface every client must handle.
  {
    const std::vector<double> obs = {0.5, 1.5};
    serve::DecodeRequest<double> req;
    req.request_id = next_id++;
    req.model = 999;  // never registered
    req.obs = &obs;
    serve::DecodeResponse resp;
    if (client.Call(req, &resp).ok()) {
      std::printf("unknown model -> %s\n", resp.status.ToString().c_str());
    }
    req.request_id = next_id++;
    req.model = 1;
    req.deadline_micros = 1;  // expires while queued in model 1's service
    auto service = registry.Acquire(1);
    if (service.ok()) service.value()->PauseDispatch();
    const bool sent = client.Send(req).ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (service.ok()) service.value()->ResumeDispatch();
    if (sent && client.Receive(&resp).ok()) {
      std::printf("expired deadline -> %s\n", resp.status.ToString().c_str());
    }
  }

  const obs::Snapshot after =
      obs::Registry::Global().TakeSnapshot("frontend.");
  const auto count = [&](const char* name) {
    return static_cast<unsigned long long>(after.ValueOf(name) -
                                           before.ValueOf(name));
  };
  std::printf("served=%llu shed=%llu deadline_expired=%llu "
              "routing_errors=%llu\n",
              count("frontend.requests_served"),
              count("frontend.requests_shed"),
              count("frontend.deadline_expired"),
              count("frontend.routing_errors"));
  return 0;
}

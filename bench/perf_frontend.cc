// Microbenchmark for the wire front-end: loopback request throughput and
// latency through FrontEnd -> ModelRegistry -> DecodeService, against the
// in-process DecodeService ceiling from perf_serve.
//
// Axes: k in {5, 20, 50} states x resident model count in {1, 4} — the
// multi-model cost is registry routing plus per-model batch dilution, and
// both should be small next to the decode itself. The pipelined variant
// keeps a deep window of requests in flight (throughput); the ping-pong
// variant sends one request at a time and reports a latency histogram
// (p50/p90/p99) from per-request wall times.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
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
#include "util/check.h"
#include "util/status.h"

namespace {

using namespace dhmm;

std::shared_ptr<const hmm::HmmModel<double>> MakeModel(size_t k,
                                                       uint64_t seed) {
  prob::Rng rng(seed);
  linalg::Vector mu(k);
  linalg::Vector sigma(k, 0.75);
  for (size_t i = 0; i < k; ++i) mu[i] = static_cast<double>(i);
  return std::make_shared<const hmm::HmmModel<double>>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::GaussianEmission>(mu, sigma));
}

// A registry of `models` k-state models plus one request sequence per
// model, served by a running front-end on an ephemeral loopback port.
struct Loopback {
  serve::ModelRegistry<double> registry;
  std::unique_ptr<serve::FrontEnd<double>> frontend;
  std::vector<std::vector<double>> obs;  // one sequence per model

  Loopback(size_t k, size_t models) {
    prob::Rng rng(k * 131 + models);
    for (size_t m = 0; m < models; ++m) {
      auto model = MakeModel(k, k * 1000 + m);
      obs.push_back(hmm::SampleSequence(*model, /*length=*/32, rng).obs);
      Status st = registry.Register(static_cast<serve::ModelId>(m + 1),
                                    std::move(model));
      DHMM_CHECK(st.ok());
    }
    frontend = std::make_unique<serve::FrontEnd<double>>(&registry);
    DHMM_CHECK(frontend->Start().ok());
  }
};

serve::DecodeRequest<double> MakeRequest(const Loopback& lb, uint64_t i) {
  const size_t m = static_cast<size_t>(i) % lb.obs.size();
  serve::DecodeRequest<double> req;
  req.request_id = i;
  req.model = static_cast<serve::ModelId>(m + 1);
  req.kind = serve::DecodeKind::kViterbi;
  req.obs = &lb.obs[m];
  return req;
}

// Throughput: a deep pipeline of wire requests round-robined over every
// registered model through one connection.
void BM_FrontEndPipelined(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t models = static_cast<size_t>(state.range(1));
  constexpr size_t kWindow = 32;
  Loopback lb(k, models);
  serve::WireClient client;
  DHMM_CHECK(client.Connect(lb.frontend->port()).ok());
  obs::Counter* served =
      obs::Registry::Global().GetCounter("frontend.requests_served");
  const uint64_t served_before = served->Value();

  uint64_t next_id = 0;
  serve::DecodeResponse resp;
  for (auto _ : state) {
    for (size_t i = 0; i < kWindow; ++i) {
      benchmark::DoNotOptimize(client.Send(MakeRequest(lb, next_id++)).ok());
    }
    double sink = 0.0;
    for (size_t i = 0; i < kWindow; ++i) {
      DHMM_CHECK(client.Receive(&resp).ok());
      sink += resp.value;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWindow));
  state.counters["models"] = static_cast<double>(models);
  state.counters["served"] =
      static_cast<double>(served->Value() - served_before);
}
BENCHMARK(BM_FrontEndPipelined)
    ->ArgNames({"k", "models"})
    ->Args({5, 1})
    ->Args({5, 4})
    ->Args({20, 1})
    ->Args({20, 4})
    ->Args({50, 1})
    ->Args({50, 4})
    ->UseRealTime();

// Latency: one request in flight at a time; per-request wall times feed a
// histogram reported as p50/p90/p99 counters (microseconds).
void BM_FrontEndPingPong(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t models = static_cast<size_t>(state.range(1));
  Loopback lb(k, models);
  serve::WireClient client;
  DHMM_CHECK(client.Connect(lb.frontend->port()).ok());

  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 16);
  uint64_t next_id = 0;
  serve::DecodeResponse resp;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    DHMM_CHECK(client.Call(MakeRequest(lb, next_id++), &resp).ok());
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(resp.value);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        q * static_cast<double>(latencies_us.size() - 1));
    return latencies_us[idx];
  };
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["models"] = static_cast<double>(models);
  state.counters["p50_us"] = pct(0.50);
  state.counters["p90_us"] = pct(0.90);
  state.counters["p99_us"] = pct(0.99);
}
BENCHMARK(BM_FrontEndPingPong)
    ->ArgNames({"k", "models"})
    ->Args({5, 1})
    ->Args({20, 1})
    ->Args({20, 4})
    ->Args({50, 1})
    ->UseRealTime();

}  // namespace

// main() lives in perf_main.cc (shared across perf benches): it adds the
// kernel_isa context entry to every benchmark JSON before running.

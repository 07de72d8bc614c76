// Microbenchmark for the serve layer: decode requests/sec through
// DecodeService vs. the naive per-request loop (allocate a fresh emission
// table and workspace per request, decode single-threaded) that every
// caller used before the service existed.
//
// The acceptance bar is >= 2x throughput over the naive loop at k = 20
// with >= 4 workers (on hardware with >= 4 cores): the service wins on
// both axes — worker parallelism across a coalesced batch, and pooled
// allocation-free workspaces per worker.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/sampler.h"
#include "hmm/sequence.h"
#include "obs/metrics.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"
#include "serve/decode_service.h"

namespace {

using namespace dhmm;

struct Workload {
  std::shared_ptr<const hmm::HmmModel<double>> model;
  hmm::Dataset<double> data;
};

// Synthetic k-state Gaussian-emission request log: 96 sequences of length
// 32, sampled from a random chain so every state is exercised.
Workload MakeWorkload(size_t k) {
  prob::Rng rng(k * 6151);
  linalg::Vector mu(k);
  linalg::Vector sigma(k, 0.75);
  for (size_t i = 0; i < k; ++i) mu[i] = static_cast<double>(i);
  auto model = std::make_shared<const hmm::HmmModel<double>>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::GaussianEmission>(mu, sigma));
  Workload w;
  w.data = hmm::SampleDataset(*model, /*num_sequences=*/96, /*length=*/32,
                              rng);
  w.model = std::move(model);
  return w;
}

// The pre-serve baseline: one offline call per request with a fresh
// workspace and table every time, no batching, no parallelism.
void BM_NaivePerRequestLoop(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Workload w = MakeWorkload(k);
  for (auto _ : state) {
    double sink = 0.0;
    for (const auto& seq : w.data) {
      hmm::InferenceWorkspace ws;
      hmm::ViterbiResult res;
      w.model->emission->LogProbTableInto(seq.obs, &ws.log_b);
      hmm::TryViterbi(w.model->pi, w.model->a, ws.log_b, &ws, &res);
      sink += res.log_joint;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.data.size()));
}
BENCHMARK(BM_NaivePerRequestLoop)
    ->ArgNames({"k"})
    ->Args({5})
    ->Args({20})
    ->Args({50})
    ->UseRealTime();

void BM_DecodeService(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Workload w = MakeWorkload(k);
  serve::DecodeServiceOptions opts;
  opts.num_threads = threads;
  opts.max_batch = 32;
  serve::DecodeService<double> service(w.model, opts);
  std::vector<serve::DecodeFuture<double>> futures;
  futures.reserve(w.data.size());
  obs::Registry& reg = obs::Registry::Global();
  const uint64_t requests_before = reg.GetCounter("decode.requests")->Value();
  const uint64_t batches_before = reg.GetCounter("decode.batches")->Value();
  for (auto _ : state) {
    for (const auto& seq : w.data) {
      futures.push_back(service.Submit(serve::DecodeKind::kViterbi, seq.obs));
    }
    double sink = 0.0;
    for (auto& f : futures) sink += f.Wait().value;
    futures.clear();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.data.size()));
  state.counters["threads"] = threads;
  // Coalescing observability: near max_batch means the dispatcher actually
  // amortizes fan-out over full batches under burst load.
  state.counters["batch_size_mean"] =
      static_cast<double>(reg.GetCounter("decode.requests")->Value() -
                          requests_before) /
      static_cast<double>(reg.GetCounter("decode.batches")->Value() -
                          batches_before);
}
BENCHMARK(BM_DecodeService)
    ->ArgNames({"k", "threads"})
    ->Args({5, 1})
    ->Args({5, 4})
    ->Args({20, 1})
    ->Args({20, 4})
    ->Args({50, 1})
    ->Args({50, 4})
    ->UseRealTime();

}  // namespace

// main() lives in perf_main.cc (shared across perf benches): it adds the
// kernel_isa context entry to every benchmark JSON before running.

// Microbenchmark for the batched EM engine: E-step throughput (frames/sec)
// as a function of hidden-state count k and engine thread count.
//
// The acceptance bar for the engine is >= 1.5x E-step throughput at 4
// threads vs. 1 on the k=20 workload (on hardware with >= 4 cores; the
// engine is a no-op win on a single-core box). Thread counts only change
// wall-clock time, never results — tests/engine_test.cc pins bitwise
// equality across counts.
//
// BM_BatchEStepPosShape is the shape of a paper-scale PoS fit — many short
// categorical sentences at k = 15 — where the fixed costs per sequence and
// per frame matter more than the k^2 kernels. BM_GeneratePosCorpus samples
// the corpus that fit trains on.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>

#include "data/pos_corpus.h"
#include "hmm/engine.h"
#include "hmm/model.h"
#include "hmm/sampler.h"
#include "hmm/sequence.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"

namespace {

using namespace dhmm;

struct Workload {
  hmm::HmmModel<double> model;
  hmm::Dataset<double> data;
};

// Synthetic k-state Gaussian-emission corpus: 64 sequences of length 40,
// sampled from a random chain so every state is exercised.
Workload MakeWorkload(size_t k) {
  prob::Rng rng(k * 7919);
  linalg::Vector mu(k);
  linalg::Vector sigma(k, 0.75);
  for (size_t i = 0; i < k; ++i) mu[i] = static_cast<double>(i);
  hmm::HmmModel<double> model(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::GaussianEmission>(mu, sigma));
  Workload w;
  w.data = hmm::SampleDataset(model, /*num_sequences=*/64, /*length=*/40, rng);
  w.model = std::move(model);
  return w;
}

void BM_BatchEStep(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Workload w = MakeWorkload(k);
  hmm::BatchEmEngine<double> engine(hmm::BatchOptions{threads});
  for (auto _ : state) {
    hmm::EStepStats stats = engine.EStep(w.model, w.data);
    benchmark::DoNotOptimize(stats.log_likelihood);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(hmm::TotalFrames(w.data)));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_BatchEStep)
    ->ArgNames({"k", "threads"})
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, 4})
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({50, 1})
    ->Args({50, 2})
    ->Args({50, 4})
    ->UseRealTime();

// Emission accumulation included: the full E-step as FitEm drives it.
void BM_BatchEStepWithEmission(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Workload w = MakeWorkload(k);
  hmm::BatchEmEngine<double> engine(hmm::BatchOptions{threads});
  for (auto _ : state) {
    hmm::EStepStats stats =
        engine.EStep(w.model, w.data, w.model.emission.get());
    // Discard the accumulated statistics without an M-step so every
    // iteration sees identical parameters.
    w.model.emission->BeginAccumulate();
    benchmark::DoNotOptimize(stats.log_likelihood);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(hmm::TotalFrames(w.data)));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_BatchEStepWithEmission)
    ->ArgNames({"k", "threads"})
    ->Args({20, 1})
    ->Args({20, 4})
    ->UseRealTime();

// The PoS tagging fit's E-step: k = 15 tags, 3828 categorical sentences of
// 5-40 frames over a 10000-word vocabulary, emission accumulation on, one
// thread.
void BM_BatchEStepPosShape(benchmark::State& state) {
  constexpr size_t kTags = 15;
  constexpr size_t kVocab = 10000;
  prob::Rng rng(3828);
  hmm::HmmModel<int> model(
      rng.DirichletSymmetric(kTags, 1.0),
      rng.RandomStochasticMatrix(kTags, kTags, 1.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(kTags, kVocab, rng)));
  hmm::Dataset<int> data;
  for (size_t s = 0; s < 3828; ++s) {
    data.push_back(hmm::SampleSequence(model, 5 + rng.UniformInt(36), rng));
  }
  hmm::BatchEmEngine<int> engine(hmm::BatchOptions{/*num_threads=*/1});
  for (auto _ : state) {
    hmm::EStepStats stats = engine.EStep(model, data, model.emission.get());
    // Discard the accumulated statistics without an M-step so every
    // iteration sees identical parameters.
    model.emission->BeginAccumulate();
    benchmark::DoNotOptimize(stats.log_likelihood);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(hmm::TotalFrames(data)));
}
BENCHMARK(BM_BatchEStepPosShape)->Unit(benchmark::kMillisecond)->UseRealTime();

// Ancestral sampling of the paper-scale PoS corpus: 3828 sentences of mean
// length 24 over a 10000-word vocabulary, ground truth built included. Each
// token is one categorical emission draw over a V = 10000 row.
void BM_GeneratePosCorpus(benchmark::State& state) {
  data::PosCorpusOptions options;
  options.num_sentences = 3828;
  options.vocab_size = 10000;
  options.mean_length = 24.0;
  size_t tokens = 0;
  for (auto _ : state) {
    data::PosCorpus corpus = data::GeneratePosCorpus(options);
    tokens = hmm::TotalFrames(corpus.sentences);
    benchmark::DoNotOptimize(corpus.sentences.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tokens));
}
BENCHMARK(BM_GeneratePosCorpus)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// main() lives in perf_main.cc (shared across perf benches): it adds the
// kernel_isa context entry to every benchmark JSON before running.

// Microbenchmark for the binary model store: save, validate-open, full
// load, dual-slot publish, and the serve-layer reload path.
//
// The workload is a large-vocabulary categorical model (k = 50 states,
// 20K symbols — 1M doubles of emission table). The store validates in
// O(header) + one CRC pass and memcpys payloads straight out of the mapped
// file. BM_StoreOpen in particular should be independent of model size —
// that is the "no full parse on the reload path" contract the serve layer
// relies on.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>

#include "hmm/model.h"
#include "prob/categorical_emission.h"
#include "prob/rng.h"
#include "serve/decode_service.h"
#include "store/dual_slot.h"
#include "store/model_codec.h"
#include "store/model_store.h"
#include "util/bench_env.h"
#include "util/check.h"

namespace {

using namespace dhmm;

hmm::HmmModel<int> MakeModel() {
  const size_t k = static_cast<size_t>(BenchScaled(50, 8));
  const size_t vocab = static_cast<size_t>(BenchScaled(20000, 300));
  prob::Rng rng(97);
  return hmm::HmmModel<int>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(k, vocab, rng)));
}

std::string BenchPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void BM_StoreWrite(benchmark::State& state) {
  const hmm::HmmModel<int> m = MakeModel();
  const std::string path = BenchPath("dhmm_bench_store.dhmms");
  for (auto _ : state) {
    DHMM_CHECK(store::WriteModel(m, 1, path).ok());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreWrite)->Unit(benchmark::kMillisecond)->UseRealTime();

// Open + header/manifest validation only — what a registry pays to decide
// a checkpoint is worth swapping in. Should not scale with model size.
void BM_StoreOpen(benchmark::State& state) {
  const hmm::HmmModel<int> m = MakeModel();
  const std::string path = BenchPath("dhmm_bench_store.dhmms");
  DHMM_CHECK(store::WriteModel(m, 1, path).ok());
  for (auto _ : state) {
    auto r = store::ModelStoreReader::Open(path);
    DHMM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().sequence_number());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreOpen)->UseRealTime();

// Full integrity pass + materialization — the whole binary reload.
void BM_StoreReadModel(benchmark::State& state) {
  const hmm::HmmModel<int> m = MakeModel();
  const std::string path = BenchPath("dhmm_bench_store.dhmms");
  DHMM_CHECK(store::WriteModel(m, 1, path).ok());
  for (auto _ : state) {
    auto r = store::ReadModelFromFile<int>(path);
    DHMM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().pi.data());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreReadModel)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DualSlotPublish(benchmark::State& state) {
  const hmm::HmmModel<int> m = MakeModel();
  const std::string dir = BenchPath("dhmm_bench_slots");
  auto slots = store::DualSlotStore::Open(dir);
  DHMM_CHECK(slots.ok());
  for (auto _ : state) {
    DHMM_CHECK(slots.value().Publish(m).ok());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DualSlotPublish)->Unit(benchmark::kMillisecond)->UseRealTime();

// Hot-reload latency through a live DecodeService — the serving thread
// pays this while requests keep flowing.
void BM_ServiceReload(benchmark::State& state) {
  const hmm::HmmModel<int> m = MakeModel();
  const std::string path = BenchPath("dhmm_bench_reload.dhmms");
  DHMM_CHECK(store::WriteModel(m, 1, path).ok());
  serve::DecodeService<int> service(
      std::make_shared<const hmm::HmmModel<int>>(m));
  for (auto _ : state) {
    DHMM_CHECK(service.ReloadModel(path).ok());
  }
  state.counters["model_version"] =
      static_cast<double>(service.model_version());
  std::filesystem::remove(path);
}
BENCHMARK(BM_ServiceReload)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// main() lives in perf_main.cc (shared across perf benches): it adds the
// kernel_isa context entry to every benchmark JSON before running.

// Microbenchmark for the session pool: steady-state Push throughput as
// the number of resident sessions grows 1e3 -> 1e4 -> 1e5.
//
// The acceptance bar is flatness, not raw speed: per-push cost is O(lag *
// k^2) math plus an O(1) handle resolution, so throughput at 1e5 resident
// sessions must stay within 1.2x of the 1e3 figure (the slab layout keeps
// slot records dense and ring blocks arena-packed; a pointer-chasing
// per-session-heap design fails this bar on cache misses alone). The
// strided walk defeats the best case where one hot session stays in L1.
// A second benchmark tracks the create/destroy churn path, which must
// stay allocation-free off the slot and arena free lists, and a third the
// per-frame fixed-lag labeling cost of one session as the lag grows.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hmm/model.h"
#include "hmm/sampler.h"
#include "hmm/sequence.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"
#include "serve/session_manager.h"

namespace {

using namespace dhmm;

std::shared_ptr<const hmm::HmmModel<double>> MakeModel(size_t k) {
  prob::Rng rng(k * 7577);
  linalg::Vector mu(k);
  linalg::Vector sigma(k, 0.75);
  for (size_t i = 0; i < k; ++i) mu[i] = static_cast<double>(i);
  return std::make_shared<const hmm::HmmModel<double>>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::GaussianEmission>(mu, sigma));
}

constexpr size_t kStates = 16;
constexpr size_t kLag = 8;
constexpr size_t kObsPool = 4096;  // power of two: cheap masked indexing

std::vector<double> MakeObsPool() {
  prob::Rng rng(40923);
  std::vector<double> pool(kObsPool);
  for (double& y : pool) y = rng.Uniform(0.0, static_cast<double>(kStates));
  return pool;
}

void BM_SessionPush(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto model = MakeModel(kStates);
  serve::SessionManagerOptions opts;
  opts.lag = kLag;
  serve::SessionManager<double> mgr(model, opts);
  const std::vector<double> pool = MakeObsPool();

  std::vector<serve::SessionHandle> handles(n);
  for (size_t s = 0; s < n; ++s) handles[s] = mgr.CreateSession().value();
  // Warm every session past its lag window so measured pushes all emit
  // labels through the full smoothing sweep.
  int label = 0;
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t <= kLag; ++t) {
      mgr.Push(handles[s], pool[(s + t) & (kObsPool - 1)], &label);
    }
  }

  // Strided walk over the pool: consecutive visits land on well-separated
  // sessions (no hot session parked in L1), while each visit pushes one
  // wire-request-sized burst of frames — the session front-end hands
  // SessionManager whole observation arrays, not single frames.
  constexpr size_t kStride = 7919;  // prime, so every session is visited
  constexpr size_t kVisits = 64;
  constexpr size_t kBurst = 16;
  size_t cursor = 0;
  uint64_t pushes = 0;
  for (auto _ : state) {
    int sink = 0;
    for (size_t v = 0; v < kVisits; ++v) {
      cursor = (cursor + kStride) % n;
      for (size_t i = 0; i < kBurst; ++i) {
        mgr.Push(handles[cursor], pool[(pushes + i) & (kObsPool - 1)],
                 &label);
        sink += label;
      }
      pushes += kBurst;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(pushes));
  state.counters["sessions"] = static_cast<double>(n);
  state.counters["frames_per_sec"] = benchmark::Counter(
      static_cast<double>(pushes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionPush)
    ->ArgNames({"sessions"})
    ->Args({1000})
    ->Args({10000})
    ->Args({100000})
    ->UseRealTime();

void BM_SessionCreateDestroyChurn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto model = MakeModel(kStates);
  serve::SessionManagerOptions opts;
  opts.lag = kLag;
  serve::SessionManager<double> mgr(model, opts);
  const std::vector<double> pool = MakeObsPool();

  // Reach the high-water mark once; the measured loop then cycles slots
  // and ring blocks purely through the free lists.
  std::vector<serve::SessionHandle> handles(n);
  for (size_t s = 0; s < n; ++s) handles[s] = mgr.CreateSession().value();

  size_t victim = 0;
  uint64_t cycles = 0;
  int label = 0;
  for (auto _ : state) {
    mgr.DestroySession(handles[victim]);
    auto created = mgr.CreateSession();
    handles[victim] = created.value();
    mgr.Push(handles[victim], pool[cycles & (kObsPool - 1)], &label);
    victim = (victim + 257) % n;
    ++cycles;
  }
  state.SetItemsProcessed(static_cast<int64_t>(cycles));
  state.counters["sessions"] = static_cast<double>(n);
  if (mgr.slot_capacity() != n) {
    state.SkipWithError("slot pool grew past its high-water mark");
  }
}
BENCHMARK(BM_SessionCreateDestroyChurn)
    ->ArgNames({"sessions"})
    ->Args({1000})
    ->Args({100000})
    ->UseRealTime();

// One session, one stream at a time: per-frame labeling cost at k = 20 as
// the smoothing lag grows (each push re-runs an O(lag * k^2) backward
// sweep). 96 sequences of 32 frames, ResetSession between sequences.
void BM_SessionPushLag(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t lag = static_cast<size_t>(state.range(1));
  auto model = MakeModel(k);
  prob::Rng rng(k * 6151);
  const hmm::Dataset<double> data =
      hmm::SampleDataset(*model, /*num_sequences=*/96, /*length=*/32, rng);
  serve::SessionManagerOptions opts;
  opts.lag = lag;
  serve::SessionManager<double> mgr(model, opts);
  const serve::SessionHandle h = mgr.CreateSession().value();
  size_t frames = 0;
  for (auto _ : state) {
    int sink = 0;
    for (const auto& seq : data) {
      for (double y : seq.obs) {
        int label = -1;
        mgr.Push(h, y, &label);
        sink += label;
      }
      frames += seq.obs.size();
      mgr.ResetSession(h);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(frames));
  state.counters["lag"] = static_cast<double>(lag);
}
BENCHMARK(BM_SessionPushLag)
    ->ArgNames({"k", "lag"})
    ->Args({20, 0})
    ->Args({20, 4})
    ->Args({20, 16})
    ->UseRealTime();

}  // namespace

// main() lives in perf_main.cc (shared across perf benches): it adds the
// kernel_isa context entry to every benchmark JSON before running.

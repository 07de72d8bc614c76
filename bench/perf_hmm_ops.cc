// Microbenchmarks for the HMM inference kernels: forward-backward,
// Viterbi and posterior decoding scaling in the number of states k and
// sequence length T, plus the kernel-path-versus-scalar-baseline sweep that
// gates the micro-kernel layer (>= 1.5x on ForwardBackward at k = 50, same
// pattern as perf_mstep), and the emission table every decode and E-step
// builds first (BM_EmissionTable, one series per emission family).
//
// The baseline below is a line-by-line replica of the pre-kernel inference
// code this PR replaced — column-strided reads of A, the per-frame
// btilde * beta_hat product recomputed k times, divisions inside the inner
// loops, a separate backward pass followed by separate gamma and xi loops,
// and a log-transition table rebuilt on every Viterbi call — inlined here
// so the comparison survives the refactor it measures. Each kernel-path
// benchmark first checks its log-likelihood against the baseline to 1e-12
// relative error and aborts on mismatch.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hmm/inference.h"
#include "hmm/posterior_decoding.h"
#include "linalg/kernels_dispatch.h"
#include "prob/bernoulli_emission.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/gmm_emission.h"
#include "prob/rng.h"

namespace {

using namespace dhmm;

struct Chain {
  linalg::Vector pi;
  linalg::Matrix a;
  linalg::Matrix log_b;
};

Chain MakeChain(size_t k, size_t t) {
  prob::Rng rng(k * 1000 + t);
  Chain c;
  c.pi = rng.DirichletSymmetric(k, 1.5);
  c.a = rng.RandomStochasticMatrix(k, k, 1.5);
  c.log_b = linalg::Matrix(t, k);
  for (size_t i = 0; i < t; ++i) {
    for (size_t j = 0; j < k; ++j) c.log_b(i, j) = -5.0 * rng.Uniform();
  }
  return c;
}

// ------------------------------------------------------ pre-PR baseline ---

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Reusable buffers mirroring the pre-kernel InferenceWorkspace, so the
// comparison isolates loop structure rather than allocation behaviour.
struct BaselineWs {
  linalg::Matrix alpha_hat, beta_hat, btilde;
  linalg::Vector shift, scale;
  linalg::Matrix delta, log_a;
  linalg::Vector log_pi;
  std::vector<int> psi;
};

struct BaselineFbResult {
  linalg::Matrix gamma, xi_sum;
  double log_likelihood = 0.0;
};

void BaselineForwardBackward(const linalg::Vector& pi, const linalg::Matrix& a,
                             const linalg::Matrix& log_b, BaselineWs* ws,
                             BaselineFbResult* out) {
  const size_t k = pi.size();
  const size_t big_t = log_b.rows();
  out->gamma.Resize(big_t, k);
  out->xi_sum.Resize(k, k);
  out->xi_sum.Fill(0.0);

  ws->btilde.Resize(big_t, k);
  ws->shift.Resize(big_t);
  for (size_t t = 0; t < big_t; ++t) {
    const double* row = log_b.row_data(t);
    double m = kNegInf;
    for (size_t i = 0; i < k; ++i) m = std::max(m, row[i]);
    double* bt = ws->btilde.row_data(t);
    for (size_t i = 0; i < k; ++i) bt[i] = std::exp(row[i] - m);
    ws->shift[t] = m;
  }

  ws->alpha_hat.Resize(big_t, k);
  ws->beta_hat.Resize(big_t, k);
  ws->scale.Resize(big_t);
  linalg::Matrix& alpha_hat = ws->alpha_hat;
  linalg::Matrix& beta_hat = ws->beta_hat;
  const linalg::Matrix& btilde = ws->btilde;

  double loglik = 0.0;
  double c = 0.0;
  for (size_t i = 0; i < k; ++i) {
    alpha_hat(0, i) = pi[i] * btilde(0, i);
    c += alpha_hat(0, i);
  }
  for (size_t i = 0; i < k; ++i) alpha_hat(0, i) /= c;
  ws->scale[0] = c;
  loglik += std::log(c) + ws->shift[0];

  for (size_t t = 1; t < big_t; ++t) {
    c = 0.0;
    for (size_t j = 0; j < k; ++j) {
      double s = 0.0;
      // Column-strided read of A, exactly as the pre-kernel code did.
      for (size_t i = 0; i < k; ++i) s += alpha_hat(t - 1, i) * a(i, j);
      alpha_hat(t, j) = s * btilde(t, j);
      c += alpha_hat(t, j);
    }
    for (size_t j = 0; j < k; ++j) alpha_hat(t, j) /= c;
    ws->scale[t] = c;
    loglik += std::log(c) + ws->shift[t];
  }
  out->log_likelihood = loglik;

  for (size_t i = 0; i < k; ++i) beta_hat(big_t - 1, i) = 1.0;
  for (size_t t = big_t - 1; t-- > 0;) {
    for (size_t i = 0; i < k; ++i) {
      double s = 0.0;
      // The frame product recomputed k times, division in the inner loop.
      for (size_t j = 0; j < k; ++j) {
        s += a(i, j) * btilde(t + 1, j) * beta_hat(t + 1, j);
      }
      beta_hat(t, i) = s / ws->scale[t + 1];
    }
  }

  for (size_t t = 0; t < big_t; ++t) {
    double norm = 0.0;
    for (size_t i = 0; i < k; ++i) {
      out->gamma(t, i) = alpha_hat(t, i) * beta_hat(t, i);
      norm += out->gamma(t, i);
    }
    for (size_t i = 0; i < k; ++i) out->gamma(t, i) /= norm;
  }
  for (size_t t = 1; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) {
      double ai = alpha_hat(t - 1, i);
      if (ai == 0.0) continue;
      for (size_t j = 0; j < k; ++j) {
        out->xi_sum(i, j) +=
            ai * a(i, j) * btilde(t, j) * beta_hat(t, j) / ws->scale[t];
      }
    }
  }
}

void BaselineViterbi(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b, BaselineWs* ws,
                     hmm::ViterbiResult* out) {
  const size_t k = pi.size();
  const size_t big_t = log_b.rows();
  ws->log_pi.Resize(k);
  ws->log_a.Resize(k, k);
  // Log tables rebuilt per call, as the pre-kernel code did.
  for (size_t i = 0; i < k; ++i) {
    ws->log_pi[i] = pi[i] > 0.0 ? std::log(pi[i]) : kNegInf;
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      ws->log_a(i, j) = a(i, j) > 0.0 ? std::log(a(i, j)) : kNegInf;
    }
  }
  ws->delta.Resize(big_t, k);
  ws->psi.resize(big_t * k);
  linalg::Matrix& delta = ws->delta;

  for (size_t i = 0; i < k; ++i) delta(0, i) = ws->log_pi[i] + log_b(0, i);
  for (size_t t = 1; t < big_t; ++t) {
    int* psi_row = ws->psi.data() + t * k;
    for (size_t j = 0; j < k; ++j) {
      double best = kNegInf;
      int arg = 0;
      // Column-strided read of log_a.
      for (size_t i = 0; i < k; ++i) {
        double v = delta(t - 1, i) + ws->log_a(i, j);
        if (v > best) {
          best = v;
          arg = static_cast<int>(i);
        }
      }
      delta(t, j) = best + log_b(t, j);
      psi_row[j] = arg;
    }
  }

  out->path.resize(big_t);
  double best = kNegInf;
  int arg = 0;
  for (size_t i = 0; i < k; ++i) {
    if (delta(big_t - 1, i) > best) {
      best = delta(big_t - 1, i);
      arg = static_cast<int>(i);
    }
  }
  out->log_joint = best;
  out->path[big_t - 1] = arg;
  for (size_t t = big_t - 1; t-- > 0;) {
    out->path[t] = ws->psi[(t + 1) * k + out->path[t + 1]];
  }
}

// Kernel path and baseline must tell the same story before being timed.
void CheckParity(const Chain& c) {
  BaselineWs bws;
  BaselineFbResult bfb;
  BaselineForwardBackward(c.pi, c.a, c.log_b, &bws, &bfb);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  hmm::ViterbiResult vb, vk;
  if (!hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb).ok() ||
      !hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vk).ok()) {
    std::fprintf(stderr, "kernel path rejected the parity chain\n");
    std::abort();
  }
  const double rel = std::fabs(fb.log_likelihood - bfb.log_likelihood) /
                     std::max(1.0, std::fabs(bfb.log_likelihood));
  if (rel > 1e-12) {
    std::fprintf(stderr,
                 "kernel/baseline log-likelihood mismatch: %.17g vs %.17g "
                 "(rel %.3g)\n",
                 fb.log_likelihood, bfb.log_likelihood, rel);
    std::abort();
  }
  BaselineViterbi(c.pi, c.a, c.log_b, &bws, &vb);
  if (vk.path != vb.path ||
      std::fabs(vk.log_joint - vb.log_joint) >
          1e-12 * std::max(1.0, std::fabs(vb.log_joint))) {
    std::fprintf(stderr, "kernel/baseline Viterbi mismatch\n");
    std::abort();
  }
}

// ------------------------------------------------- baseline-vs-kernel sweep ---

void BM_ForwardBackwardBaseline(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  BaselineWs ws;
  BaselineFbResult fb;
  for (auto _ : state) {
    BaselineForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
    benchmark::DoNotOptimize(fb.log_likelihood);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}

void BM_ForwardBackwardKernels(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  CheckParity(c);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  for (auto _ : state) {
    hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
    benchmark::DoNotOptimize(fb.log_likelihood);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}

void BM_ViterbiBaseline(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  BaselineWs ws;
  hmm::ViterbiResult res;
  for (auto _ : state) {
    BaselineViterbi(c.pi, c.a, c.log_b, &ws, &res);
    benchmark::DoNotOptimize(res.log_joint);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}

void BM_ViterbiKernels(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  CheckParity(c);
  hmm::InferenceWorkspace ws;
  hmm::ViterbiResult res;
  for (auto _ : state) {
    hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &res);
    benchmark::DoNotOptimize(res.log_joint);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}

// A served posterior decode: path and log-likelihood on a warm workspace.
void BM_PosteriorDecode(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  std::vector<int> path;
  for (auto _ : state) {
    hmm::TryPosteriorDecode(c.pi, c.a, c.log_b, &ws, &fb, &path);
    benchmark::DoNotOptimize(fb.log_likelihood);
    benchmark::DoNotOptimize(path.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}

#define INFERENCE_SWEEP(bench)                                          \
  BENCHMARK(bench)                                                      \
      ->ArgNames({"k", "T"})                                            \
      ->Args({5, 100})                                                  \
      ->Args({20, 100})                                                 \
      ->Args({50, 100})

INFERENCE_SWEEP(BM_ForwardBackwardBaseline);
INFERENCE_SWEEP(BM_ForwardBackwardKernels);
INFERENCE_SWEEP(BM_ViterbiBaseline);
INFERENCE_SWEEP(BM_ViterbiKernels);
INFERENCE_SWEEP(BM_PosteriorDecode);

#undef INFERENCE_SWEEP

// ------------------------------------------------------- absolute scaling ---

void BM_ForwardBackward(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  for (auto _ : state) {
    hmm::InferenceWorkspace ws;  // a fresh workspace per call, as timed
    hmm::ForwardBackwardResult r;
    hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &r);
    benchmark::DoNotOptimize(r.log_likelihood);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}
BENCHMARK(BM_ForwardBackward)
    ->Args({5, 6})      // toy experiment shape
    ->Args({15, 24})    // PoS experiment shape
    ->Args({26, 8})     // OCR experiment shape
    ->Args({15, 250})   // longest paper sentence
    ->Args({50, 100});  // stress

void BM_Viterbi(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  for (auto _ : state) {
    hmm::InferenceWorkspace ws;
    hmm::ViterbiResult r;
    hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &r);
    benchmark::DoNotOptimize(r.log_joint);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}
BENCHMARK(BM_Viterbi)
    ->Args({5, 6})
    ->Args({15, 24})
    ->Args({26, 8})
    ->Args({15, 250})
    ->Args({50, 100});

void BM_LogLikelihoodOnly(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t t = static_cast<size_t>(state.range(1));
  Chain c = MakeChain(k, t);
  for (auto _ : state) {
    hmm::InferenceWorkspace ws;
    double ll = 0.0;
    hmm::TryLogLikelihoodRows(c.pi, c.a, hmm::MatrixLogBRows(c.log_b), &ws,
                              &ll);
    benchmark::DoNotOptimize(ll);
  }
}
BENCHMARK(BM_LogLikelihoodOnly)->Args({15, 24})->Args({26, 8});

// ------------------------------------------------------- emission tables ---
//
// LogProbTableInto over T = 100 frames into a warm table, one series per
// emission family at the shapes the experiments and the benchmark serve:
// Gaussian (toy, wire_k50_mixed) at k = 5, 20, 50; categorical at the PoS
// shape (k = 15, V = 10000); GMM at k = 20 with M = 3 components; Bernoulli
// at the OCR shape (k = 26, D = 128). Models and observations are drawn
// once, outside the timed loop. Single samples of a few-microsecond loop
// are noisy on a shared host: compare runs with --benchmark_repetitions=10
// and the median aggregate.

constexpr size_t kTableFrames = 100;

template <typename Obs>
void RegisterEmissionTable(
    const std::string& shape,
    std::shared_ptr<const prob::EmissionModel<Obs>> model,
    std::vector<Obs> obs) {
  benchmark::RegisterBenchmark(
      ("BM_EmissionTable/" + shape + "/T:100").c_str(),
      [model, obs](benchmark::State& state) {
        linalg::Matrix table;
        model->LogProbTableInto(obs, &table);  // size the table once
        for (auto _ : state) {
          model->LogProbTableInto(obs, &table);
          benchmark::DoNotOptimize(table.data());
          benchmark::ClobberMemory();
        }
        state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                                static_cast<int64_t>(obs.size()));
      });
}

int RegisterEmissionTables() {
  prob::Rng rng(2016);
  for (size_t k : {size_t{5}, size_t{20}, size_t{50}}) {
    std::vector<double> obs(kTableFrames);
    for (double& y : obs) y = rng.Gaussian(3.0, 2.0);
    RegisterEmissionTable<double>(
        "gaussian/k:" + std::to_string(k),
        std::make_shared<prob::GaussianEmission>(
            prob::GaussianEmission::RandomInit(k, rng)),
        obs);
  }
  {
    const size_t vocab = 10000;
    std::vector<int> obs(kTableFrames);
    for (int& y : obs) y = static_cast<int>(rng.UniformInt(vocab));
    RegisterEmissionTable<int>(
        "categorical/k:15/V:10000",
        std::make_shared<prob::CategoricalEmission>(
            prob::CategoricalEmission::RandomInit(15, vocab, rng)),
        obs);
  }
  {
    std::vector<double> obs(kTableFrames);
    for (double& y : obs) y = rng.Uniform(0.0, 6.0);
    RegisterEmissionTable<double>(
        "gmm/k:20/M:3",
        std::make_shared<prob::GmmEmission>(
            prob::GmmEmission::RandomInit(20, 3, rng)),
        obs);
  }
  {
    const size_t dims = 128;
    std::vector<prob::BinaryObs> obs(kTableFrames, prob::BinaryObs(dims));
    for (auto& y : obs) {
      for (auto& pixel : y) pixel = rng.Bernoulli(0.3) ? 1 : 0;
    }
    RegisterEmissionTable<prob::BinaryObs>(
        "bernoulli/k:26/D:128",
        std::make_shared<prob::BernoulliEmission>(
            prob::BernoulliEmission::RandomInit(26, dims, rng)),
        obs);
  }
  return 0;
}

const int kEmissionTablesRegistered = RegisterEmissionTables();

// ----------------------------------------------- per-ISA dispatch benches ---
//
// One ForwardBackward and one Viterbi series per compiled-and-runnable
// kernel ISA, at the two shapes the dispatch layer is gated on: k = 8
// (largest fixed-k cell) and k = 50 (variable-length vector path). The FB
// speedup bars — avx* >= 1.5x scalar at k = 8 and >= 2.5x at k = 50 — are
// read off these series; the Viterbi series report each ISA's number with
// no bar. The benchmark forces the process-wide tables to the
// requested ISA for its duration (documented test/bench-only hook) and
// restores the startup resolution afterwards; Google Benchmark runs
// benchmarks sequentially, so nothing else observes the swap.

namespace klib = dhmm::linalg::kernels;

// Times `decode(chain, &ws)` (which returns the value to keep alive) with
// the process-wide tables forced to `isa`.
template <typename Decode>
void BM_UnderIsa(benchmark::State& state, klib::Isa isa, size_t k, size_t t,
                 Decode decode) {
  Chain c = MakeChain(k, t);
  const klib::Isa restore = klib::ActiveIsa();
  if (!klib::internal::ForceIsaForTestOnly(isa)) {
    state.SkipWithError("kernel ISA not runnable on this host");
    return;
  }
  hmm::InferenceWorkspace ws;
  for (auto _ : state) benchmark::DoNotOptimize(decode(c, &ws));
  klib::internal::ForceIsaForTestOnly(restore);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t));
}

int RegisterPerIsaBenches() {
  for (klib::Isa isa : klib::CompiledIsas()) {
    if (!klib::IsaAvailable(isa)) continue;
    for (size_t k : {size_t{8}, size_t{50}}) {
      const std::string shape = std::string("/") + klib::IsaName(isa) +
                                "/k:" + std::to_string(k) + "/T:100";
      benchmark::RegisterBenchmark(
          ("BM_ForwardBackwardIsa" + shape).c_str(),
          [isa, k](benchmark::State& state) {
            hmm::ForwardBackwardResult fb;
            BM_UnderIsa(state, isa, k, 100,
                        [&fb](const Chain& c, hmm::InferenceWorkspace* ws) {
                          hmm::TryForwardBackward(c.pi, c.a, c.log_b, ws, &fb);
                          return fb.log_likelihood;
                        });
          });
      // Viterbi output is bitwise identical under every ISA, so these
      // series differ in time only.
      benchmark::RegisterBenchmark(
          ("BM_ViterbiIsa" + shape).c_str(),
          [isa, k](benchmark::State& state) {
            hmm::ViterbiResult res;
            BM_UnderIsa(state, isa, k, 100,
                        [&res](const Chain& c, hmm::InferenceWorkspace* ws) {
                          hmm::TryViterbi(c.pi, c.a, c.log_b, ws, &res);
                          return res.log_joint;
                        });
          });
    }
  }
  return 0;
}

// -------------------------------------------- startup dispatch parity grid ---
//
// Before anything is timed, every compiled ISA's tables (generic and
// fixed-k) are compared against the scalar oracle on randomized data over
// the shapes the engine uses — abort on any divergence beyond 1e-12, and
// on any bit of difference in viterbi_step (whose contract is bitwise), so
// a broken variant can never produce a plausible-looking benchmark number.

void CheckDispatchParityOrDie() {
  prob::Rng rng(20160516);
  std::vector<double> x, y, w, a, log_a, v0, v1;
  std::vector<int> psi0, psi1;
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{6}, size_t{7}, size_t{8}, size_t{20}, size_t{26},
                   size_t{50}}) {
    x.resize(n);
    y.resize(n);
    w.resize(n);
    a.resize(n * n);
    log_a.resize(n * n);
    v0.resize(n);
    v1.resize(n);
    psi0.resize(n);
    psi1.resize(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = 2.0 * rng.Uniform() - 1.0;
      y[i] = 2.0 * rng.Uniform() - 1.0;
      w[i] = rng.Uniform();
    }
    for (size_t i = 0; i < n * n; ++i) {
      a[i] = rng.Uniform();
      // Quantized, with zeros: exact ties and -inf candidates.
      const double q = std::floor(4.0 * a[i]) / 4.0;
      log_a[i] = q > 0.0 ? std::log(q) : kNegInf;
    }
    const klib::KernelTable& sc = klib::TableFor(klib::Isa::kScalar, n);
    for (klib::Isa isa : klib::CompiledIsas()) {
      if (isa == klib::Isa::kScalar || !klib::IsaAvailable(isa)) continue;
      const klib::KernelTable& kt = klib::TableFor(isa, n);
      kt.viterbi_step(x.data(), log_a.data(), y.data(), n, v0.data(),
                      psi0.data());
      sc.viterbi_step(x.data(), log_a.data(), y.data(), n, v1.data(),
                      psi1.data());
      if (std::memcmp(v0.data(), v1.data(), n * sizeof(double)) != 0 ||
          psi0 != psi1) {
        std::fprintf(stderr,
                     "kernel dispatch parity failure: %s viterbi_step is not "
                     "bitwise equal to scalar at n=%zu\n",
                     kt.name, n);
        std::abort();
      }
      double worst = 0.0;
      auto note = [&](double d) { worst = std::max(worst, std::fabs(d)); };
      note(kt.sum_row(x.data(), n) - sc.sum_row(x.data(), n));
      note(kt.dot(x.data(), y.data(), n) - sc.dot(x.data(), y.data(), n));
      kt.mat_vec_col_mul(a.data(), x.data(), w.data(), n, n, v0.data());
      sc.mat_vec_col_mul(a.data(), x.data(), w.data(), n, n, v1.data());
      for (size_t i = 0; i < n; ++i) note(v0[i] - v1[i]);
      kt.exp_shift_row(x.data(), n, v0.data());
      sc.exp_shift_row(x.data(), n, v1.data());
      for (size_t i = 0; i < n; ++i) note(v0[i] - v1[i]);
      std::vector<double> xi0(n * n, 0.25), xi1(n * n, 0.25);
      kt.backward_fused(a.data(), y.data(), w.data(), n, n, v0.data(),
                        xi0.data());
      sc.backward_fused(a.data(), y.data(), w.data(), n, n, v1.data(),
                        xi1.data());
      for (size_t i = 0; i < n; ++i) note(v0[i] - v1[i]);
      for (size_t i = 0; i < n * n; ++i) note(xi0[i] - xi1[i]);
      if (worst > 1e-12) {
        std::fprintf(stderr,
                     "kernel dispatch parity failure: %s vs scalar at n=%zu "
                     "(max abs diff %.3g)\n",
                     kt.name, n, worst);
        std::abort();
      }
    }
  }
}

const int kDispatchChecksDone = [] {
  CheckDispatchParityOrDie();
  return RegisterPerIsaBenches();
}();

}  // namespace

// main() lives in perf_main.cc (shared across perf benches): it adds the
// kernel_isa context entry to every benchmark JSON before running.

// The inference-kernel contract (the PR-4 counterpart of mstep_test.cc):
//  - every linalg micro-kernel matches a naive scalar reference across
//    lengths that exercise all four accumulator lanes and the tail,
//  - linalg buffers are 64-byte aligned,
//  - ForwardBackward through the kernel path matches brute-force
//    enumeration on a random (k, T) grid including k=1 and T=1,
//  - the workspace's cached transition transpose is rebuilt exactly when A
//    changes (stale-transpose detection) and never otherwise,
//  - steady-state inference (ForwardBackward / LogLikelihood / Viterbi at a
//    fixed shape, including an in-place transpose rebuild after an M-step
//    mutates A) performs zero heap allocations (instrumented operator new),
//  - the PR-9 SIMD dispatch contract: one-shot startup resolution honoring
//    DHMM_KERNEL_ISA (the *_scalar_isa ctest registrations rerun this
//    binary under the override), a cross-variant parity grid of every
//    KernelTable member against the scalar oracle at <= 1e-12, bitwise
//    self-reproducibility of every variant across repeated calls and
//    thread counts, and engine-level scalar-vs-vector agreement,
//  - Viterbi is bitwise equal across ISAs: every available ISA's
//    viterbi_step, and TryViterbi's delta, psi, path and log joint under
//    each ISA, match a test-local column-form reference by memcmp for
//    every k in 1..70, including exact ties, -inf and NaN candidates,
//  - every AVX2 and AVX-512 table (variable-length and each k-class)
//    returns its recorded output bits: one FNV-1a digest per table.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "checked_inference.h"
#include "hmm/inference.h"
#include "linalg/aligned.h"
#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "prob/logsumexp.h"
#include "prob/rng.h"

namespace dhmm {
namespace {

namespace klib = linalg::kernels;

// Lengths covering the empty tail, partial tails of 1..3, and multi-block
// runs of the 4-way accumulator streams.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 67};

std::vector<double> RandomRow(size_t n, uint64_t seed, double lo = -2.0,
                              double hi = 2.0) {
  prob::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = lo + (hi - lo) * rng.Uniform();
  return v;
}

// --------------------------------------------------------------- kernels ---

TEST(KernelsTest, SumAndDotMatchNaiveReference) {
  for (size_t n : kLengths) {
    std::vector<double> x = RandomRow(n, 100 + n);
    std::vector<double> y = RandomRow(n, 200 + n);
    double sum_ref = 0.0, dot_ref = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum_ref += x[i];
      dot_ref += x[i] * y[i];
    }
    EXPECT_NEAR(klib::SumRow(x.data(), n), sum_ref, 1e-13 * (1.0 + n))
        << "n=" << n;
    EXPECT_NEAR(klib::Dot(x.data(), y.data(), n), dot_ref, 1e-13 * (1.0 + n))
        << "n=" << n;
  }
}

TEST(KernelsTest, DotIsDeterministicAcrossRepeats) {
  std::vector<double> x = RandomRow(67, 1);
  std::vector<double> y = RandomRow(67, 2);
  const double first = klib::Dot(x.data(), y.data(), 67);
  for (int rep = 0; rep < 8; ++rep) {
    EXPECT_EQ(klib::Dot(x.data(), y.data(), 67), first);
  }
}

TEST(KernelsTest, MatVecColOnTransposeMatchesNaive) {
  for (size_t m : {1u, 3u, 5u, 20u}) {
    for (size_t n : {1u, 4u, 7u, 50u}) {
      std::vector<double> a = RandomRow(m * n, m * 100 + n);
      std::vector<double> x = RandomRow(m, m + n);
      std::vector<double> naive(n, 0.0);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) naive[j] += x[i] * a[i * n + j];
      }
      // x^T A computed against the transpose via MatVecCol.
      std::vector<double> a_t(n * m), via_t(n);
      klib::TransposeInto(a.data(), m, n, a_t.data());
      klib::MatVecCol(a_t.data(), x.data(), n, m, via_t.data());
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(via_t[j], naive[j], 1e-12) << m << "x" << n << " j=" << j;
      }
    }
  }
}

TEST(KernelsTest, FusedRowOpsMatchComposition) {
  for (size_t n : kLengths) {
    std::vector<double> x = RandomRow(n, 300 + n);
    std::vector<double> y = RandomRow(n, 400 + n);
    std::vector<double> acc = RandomRow(n, 500 + n);
    const double s = 1.7;

    std::vector<double> out(n);
    klib::MulRowScaledInto(x.data(), y.data(), s, n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(out[i], x[i] * y[i] * s) << "n=" << n;
    }

    std::vector<double> acc2 = acc;
    klib::AxpyMulRow(s, x.data(), y.data(), n, acc2.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(acc2[i], acc[i] + s * x[i] * y[i]) << "n=" << n;
    }
  }
}

TEST(KernelsTest, ExpShiftRowLeavesAUnitEntry) {
  for (size_t n : kLengths) {
    std::vector<double> row = RandomRow(n, 600 + n, -90.0, -1.0);
    std::vector<double> out(n);
    const double m = klib::ExpShiftRow(row.data(), n, out.data());
    double max_ref = row[0], max_out = 0.0;
    for (size_t i = 0; i < n; ++i) {
      max_ref = std::max(max_ref, row[i]);
      max_out = std::max(max_out, out[i]);
      EXPECT_NEAR(out[i], std::exp(row[i] - m), 1e-15);
    }
    EXPECT_DOUBLE_EQ(m, max_ref);
    EXPECT_DOUBLE_EQ(max_out, 1.0);
  }
  // All -inf signals a zero-probability frame.
  std::vector<double> dead(3, prob::kNegInf), out(3);
  EXPECT_EQ(klib::ExpShiftRow(dead.data(), 3, out.data()), prob::kNegInf);
}

TEST(KernelsTest, ArgMaxBreaksTiesToLowestIndex) {
  const double row[] = {1.0, 3.0, 3.0, 0.5};
  EXPECT_EQ(klib::ArgMaxRow(row, 4), 1u);
  // One Viterbi frame, candidates prev[i] + log_a[i][j]: every predecessor
  // ties (at 3) for successor 0, predecessors 1 and 2 tie (at 4) for
  // successor 1, predecessors 0 and 1 tie (at 1) for successor 2. The
  // lowest index wins each.
  const double prev[] = {1.0, 2.0, 0.0};
  const double log_a[] = {2.0, 0.0, 0.0,   //
                          1.0, 2.0, -1.0,  //
                          3.0, 4.0, -2.0};
  const double log_b_row[] = {0.5, 0.25, 0.0};
  double delta[3];
  int psi[3];
  klib::ViterbiStep(prev, log_a, log_b_row, 3, delta, psi);
  EXPECT_EQ(psi[0], 0);
  EXPECT_EQ(psi[1], 1);
  EXPECT_EQ(psi[2], 0);
  EXPECT_EQ(delta[0], 3.5);
  EXPECT_EQ(delta[1], 4.25);
  EXPECT_EQ(delta[2], 1.0);
}

TEST(AlignedStorageTest, BuffersStartOnCacheLines) {
  for (size_t n : {1u, 5u, 64u, 1000u}) {
    linalg::Vector v(n);
    linalg::Matrix m(n, 3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                  linalg::kBufferAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) %
                  linalg::kBufferAlignment,
              0u);
  }
}

// ----------------------------------------------- brute-force cross-check ---

struct Chain {
  linalg::Vector pi;
  linalg::Matrix a;
  linalg::Matrix log_b;
};

Chain MakeChain(size_t k, size_t big_t, uint64_t seed) {
  prob::Rng rng(seed);
  Chain c;
  c.pi = rng.DirichletSymmetric(k, 1.5);
  c.a = rng.RandomStochasticMatrix(k, k, 1.5);
  c.log_b = linalg::Matrix(big_t, k);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) c.log_b(t, i) = -6.0 * rng.Uniform();
  }
  return c;
}

// Enumerates all k^T paths; tractable for the grid below.
void EnumerateReference(const Chain& c, double* loglik, linalg::Matrix* gamma,
                        linalg::Matrix* xi_sum) {
  const size_t k = c.pi.size();
  const size_t big_t = c.log_b.rows();
  size_t total = 1;
  for (size_t t = 0; t < big_t; ++t) total *= k;
  std::vector<double> logps(total);
  double best = prob::kNegInf;
  std::vector<int> path(big_t);
  for (size_t code = 0; code < total; ++code) {
    size_t rem = code;
    for (size_t t = 0; t < big_t; ++t) {
      path[t] = static_cast<int>(rem % k);
      rem /= k;
    }
    double lp =
        std::log(c.pi[static_cast<size_t>(path[0])]) + c.log_b(0, path[0]);
    for (size_t t = 1; t < big_t; ++t) {
      lp += std::log(c.a(static_cast<size_t>(path[t - 1]),
                         static_cast<size_t>(path[t]))) +
            c.log_b(t, path[t]);
    }
    logps[code] = lp;
    best = std::max(best, lp);
  }
  double z = 0.0;
  for (double lp : logps) z += std::exp(lp - best);
  *loglik = best + std::log(z);
  *gamma = linalg::Matrix(big_t, k);
  *xi_sum = linalg::Matrix(k, k);
  for (size_t code = 0; code < total; ++code) {
    size_t rem = code;
    for (size_t t = 0; t < big_t; ++t) {
      path[t] = static_cast<int>(rem % k);
      rem /= k;
    }
    const double w = std::exp(logps[code] - *loglik);
    for (size_t t = 0; t < big_t; ++t) {
      (*gamma)(t, static_cast<size_t>(path[t])) += w;
    }
    for (size_t t = 1; t < big_t; ++t) {
      (*xi_sum)(static_cast<size_t>(path[t - 1]),
                static_cast<size_t>(path[t])) += w;
    }
  }
}

TEST(KernelPathBruteForceTest, ForwardBackwardMatchesEnumerationOnGrid) {
  // Dirty workspace reused across every shape, exactly as the engine does.
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  for (size_t k : {1u, 2u, 3u, 5u}) {
    for (size_t big_t : {1u, 2u, 4u, 6u}) {
      Chain c = MakeChain(k, big_t, 7000 + 10 * k + big_t);
      checked::Ok(hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb));
      double ll_ref;
      linalg::Matrix gamma_ref, xi_ref;
      EnumerateReference(c, &ll_ref, &gamma_ref, &xi_ref);
      EXPECT_NEAR(fb.log_likelihood, ll_ref, 1e-9) << "k=" << k
                                                   << " T=" << big_t;
      for (size_t t = 0; t < big_t; ++t) {
        for (size_t i = 0; i < k; ++i) {
          EXPECT_NEAR(fb.gamma(t, i), gamma_ref(t, i), 1e-9)
              << "k=" << k << " T=" << big_t << " gamma(" << t << "," << i
              << ")";
        }
      }
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = 0; j < k; ++j) {
          EXPECT_NEAR(fb.xi_sum(i, j), xi_ref(i, j), 1e-9)
              << "k=" << k << " T=" << big_t;
        }
      }
      EXPECT_NEAR(checked::LogLikelihood(c.pi, c.a, c.log_b, &ws), ll_ref,
                  1e-9);
    }
  }
}

TEST(KernelPathBruteForceTest, SingleStateChainIsExact) {
  // k=1: gamma is identically 1, xi_sum counts T-1 transitions, and the
  // log-likelihood is exactly the sum of the emission rows.
  const size_t big_t = 9;
  Chain c;
  c.pi = linalg::Vector{1.0};
  c.a = linalg::Matrix{{1.0}};
  c.log_b = linalg::Matrix(big_t, 1);
  double expected = 0.0;
  for (size_t t = 0; t < big_t; ++t) {
    c.log_b(t, 0) = -1.5 - static_cast<double>(t);
    expected += c.log_b(t, 0);
  }
  hmm::ForwardBackwardResult fb = checked::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_NEAR(fb.log_likelihood, expected, 1e-12);
  for (size_t t = 0; t < big_t; ++t) EXPECT_DOUBLE_EQ(fb.gamma(t, 0), 1.0);
  EXPECT_DOUBLE_EQ(fb.xi_sum(0, 0), static_cast<double>(big_t - 1));

  hmm::ViterbiResult vit = checked::Viterbi(c.pi, c.a, c.log_b);
  EXPECT_NEAR(vit.log_joint, expected, 1e-12);
  for (int s : vit.path) EXPECT_EQ(s, 0);
}

// -------------------------------------------------------- stale transpose ---

TEST(TransitionCacheTest, RebuildsExactlyWhenAChanges) {
  const size_t k = 4;
  prob::Rng rng(11);
  linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
  hmm::TransitionCache cache;

  const linalg::Matrix& at = cache.Transpose(a);
  const uint64_t v1 = cache.version();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(at(j, i), a(i, j));
  }

  // Same contents: revalidation must not rebuild.
  cache.Transpose(a);
  linalg::Matrix same = a;
  cache.Transpose(same);
  EXPECT_EQ(cache.version(), v1);

  // Mutated contents: the cached transpose must be rebuilt.
  a(1, 2) += 0.125;
  a(1, 3) -= 0.125;
  const linalg::Matrix& at2 = cache.Transpose(a);
  EXPECT_EQ(cache.version(), v1 + 1);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(at2(j, i), a(i, j));
  }
  // The row-major log A view follows the same staleness key: built from
  // the current A, without bumping the version.
  const linalg::Matrix& la = cache.Log(a);
  EXPECT_EQ(cache.version(), v1 + 1);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(la(i, j), std::log(a(i, j)));
  }
  // Mutating A again invalidates the log view with the transpose.
  a(0, 0) = 0.0;
  const linalg::Matrix& la2 = cache.Log(a);
  EXPECT_EQ(cache.version(), v1 + 2);
  EXPECT_EQ(la2(0, 0), prob::kNegInf);
  EXPECT_EQ(la2(1, 2), std::log(a(1, 2)));
}

TEST(TransitionCacheTest, InferenceSeesMutatedAThroughAReusedWorkspace) {
  const size_t k = 3, big_t = 12;
  Chain c = MakeChain(k, big_t, 21);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  hmm::ViterbiResult vit;
  checked::Ok(hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb));
  checked::Ok(hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vit));

  // Mutate A between calls (the M-step shape) and require the reused
  // workspace to match a fresh one bitwise — a stale transpose would not.
  prob::Rng rng(22);
  c.a = rng.RandomStochasticMatrix(k, k, 0.7);
  checked::Ok(hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb));
  hmm::ForwardBackwardResult fresh =
      checked::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_EQ(fb.log_likelihood, fresh.log_likelihood);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) {
      ASSERT_EQ(fb.gamma(t, i), fresh.gamma(t, i));
    }
  }
  checked::Ok(hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vit));
  hmm::ViterbiResult vit_fresh = checked::Viterbi(c.pi, c.a, c.log_b);
  EXPECT_EQ(vit.log_joint, vit_fresh.log_joint);
  EXPECT_EQ(vit.path, vit_fresh.path);
  EXPECT_EQ(checked::LogLikelihood(c.pi, c.a, c.log_b, &ws),
            checked::LogLikelihood(c.pi, c.a, c.log_b));
}

// -------------------------------------------------------- allocation-free ---

TEST(InferenceAllocationTest, SteadyStateInferenceAllocatesNothing) {
  const size_t k = 20, big_t = 60;
  Chain c = MakeChain(k, big_t, 31);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  hmm::ViterbiResult vit;
  // Warm-up sizes every buffer, including the cached transpose and the
  // Viterbi log-transpose and backpointer table.
  checked::Ok(hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb));
  checked::LogLikelihood(c.pi, c.a, c.log_b, &ws);
  checked::Ok(hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vit));

  long before = alloc_counter::Count();
  checked::Ok(hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb));
  checked::LogLikelihood(c.pi, c.a, c.log_b, &ws);
  checked::Ok(hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vit));
  long after = alloc_counter::Count();
  EXPECT_EQ(after - before, 0)
      << "steady-state inference made " << (after - before)
      << " heap allocations";
}

TEST(InferenceAllocationTest, TransposeRebuildAtFixedKIsInPlace) {
  const size_t k = 12, big_t = 30;
  Chain c = MakeChain(k, big_t, 41);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  hmm::ViterbiResult vit;
  checked::Ok(hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb));
  checked::Ok(hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vit));

  // An M-step rewrites A; the cache must refresh without allocating.
  prob::Rng rng(42);
  linalg::Matrix a2 = rng.RandomStochasticMatrix(k, k, 2.0);
  long before = alloc_counter::Count();
  for (size_t i = 0; i < k * k; ++i) c.a.data()[i] = a2.data()[i];
  checked::Ok(hmm::TryForwardBackward(c.pi, c.a, c.log_b, &ws, &fb));
  checked::Ok(hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vit));
  long after = alloc_counter::Count();
  EXPECT_EQ(after - before, 0)
      << "in-place transpose rebuild made " << (after - before)
      << " heap allocations";
}

// ------------------------------------------------------- startup dispatch ---

// Applies every KernelTable member to inputs derived from `seed`, flattening
// all outputs (including the full xi accumulators) into one vector so whole
// variants can be compared wholesale — with EXPECT_NEAR for cross-ISA parity
// or memcmp for bitwise self-reproducibility.
std::vector<double> ApplyAllKernels(const klib::KernelTable& kt, size_t n,
                                    uint64_t seed) {
  std::vector<double> x = RandomRow(n, seed);
  std::vector<double> y = RandomRow(n, seed + 1);
  std::vector<double> w = RandomRow(n, seed + 2, 0.0, 1.0);
  std::vector<double> logrow = RandomRow(n, seed + 3, -30.0, 0.0);
  std::vector<double> a = RandomRow(n * n, seed + 4, 0.0, 1.0);
  if (n > 1) w[0] = 0.0;  // exercise the xi zero-skip rows
  std::vector<double> out;
  std::vector<double> v(n), xi(n * n);
  auto push = [&](const std::vector<double>& r) {
    out.insert(out.end(), r.begin(), r.end());
  };
  out.push_back(kt.sum_row(x.data(), n));
  out.push_back(kt.dot(x.data(), y.data(), n));
  kt.mul_row_scaled_into(x.data(), y.data(), 1.7, n, v.data());
  push(v);
  v.assign(n, 0.25);
  kt.axpy_row(0.6, x.data(), n, v.data());
  push(v);
  kt.mat_vec_col(a.data(), x.data(), n, n, v.data());
  push(v);
  kt.mat_vec_col_mul(a.data(), x.data(), w.data(), n, n, v.data());
  push(v);
  xi.assign(n * n, 0.125);
  kt.backward_fused(a.data(), y.data(), w.data(), n, n, v.data(), xi.data());
  push(v);
  push(xi);
  out.push_back(kt.exp_shift_row(logrow.data(), n, v.data()));
  push(v);
  std::vector<double> log_a(n * n);
  for (size_t i = 0; i < n * n; ++i) log_a[i] = std::log(a[i]);
  std::vector<int> psi(n);
  kt.viterbi_step(x.data(), log_a.data(), logrow.data(), n, v.data(),
                  psi.data());
  push(v);
  out.insert(out.end(), psi.begin(), psi.end());
  return out;
}

TEST(DispatchTest, ResolutionIsOneShotAndHonorsEnvOverride) {
  const klib::KernelTable& t1 = klib::Active();
  const klib::KernelTable& t2 = klib::Active();
  EXPECT_EQ(&t1, &t2);
  EXPECT_EQ(t1.isa, klib::ActiveIsa());
  // ForK pins each k-class to one table object for the process lifetime —
  // the property the engine/serve bitwise contracts stand on.
  for (size_t k = 1; k <= klib::kMaxFixedK + 4; ++k) {
    const klib::KernelTable& a = klib::ForK(k);
    const klib::KernelTable& b = klib::ForK(k);
    EXPECT_EQ(&a, &b) << "k=" << k;
    EXPECT_EQ(a.isa, klib::ActiveIsa()) << "k=" << k;
    if (k <= klib::kMaxFixedK && klib::ActiveIsa() != klib::Isa::kScalar) {
      EXPECT_EQ(a.fixed_k, k);
    } else {
      EXPECT_EQ(a.fixed_k, 0u) << "k=" << k;
      EXPECT_EQ(&a, &klib::Active()) << "k=" << k;
    }
  }
  // When DHMM_KERNEL_ISA names a compiled-and-supported ISA, the one-shot
  // resolution must have honored it. The *_scalar_isa ctest registrations
  // run this whole binary under DHMM_KERNEL_ISA=scalar, so this branch is
  // exercised in every CI run, not just when a developer exports the var.
  if (const char* env = std::getenv("DHMM_KERNEL_ISA")) {
    const std::string want(env);
    for (klib::Isa isa : klib::CompiledIsas()) {
      if (want == klib::IsaName(isa) && klib::IsaAvailable(isa)) {
        EXPECT_EQ(klib::ActiveIsa(), isa) << "override " << want;
      }
    }
  }
}

TEST(DispatchTest, StartupSummaryReportsActiveResolution) {
  const std::string s = klib::StartupSummary();
  // Printed to stdout so wrappers can assert the *observed* resolution
  // instead of trusting their own env plumbing: CI's scalar-pinned rerun
  // greps this line for "isa=scalar" — a mistyped env *name* there would
  // otherwise silently re-test the vector path (a mistyped env *value*
  // already aborts at resolution).
  std::printf("kernel dispatch: %s\n", s.c_str());
  std::fflush(stdout);
  EXPECT_EQ(s.rfind("isa=" + std::string(klib::ActiveIsaName()) + " ", 0), 0u)
      << s;
  EXPECT_NE(s.find(" detected="), std::string::npos) << s;
  EXPECT_NE(s.find(" override="), std::string::npos) << s;
}

TEST(DispatchTest, CrossVariantParityGridVsScalarOracle) {
  // Every compiled vector ISA, both its generic and (n <= kMaxFixedK)
  // fixed-k tables, against the verbatim scalar oracle. Lengths cover every
  // fixed-k instantiation plus generic shapes with empty and partial tails.
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{6}, size_t{7}, size_t{8}, size_t{12}, size_t{16},
                   size_t{20}, size_t{50}}) {
    const std::vector<double> ref =
        ApplyAllKernels(klib::TableFor(klib::Isa::kScalar, n), n, 900 + n);
    for (klib::Isa isa : klib::CompiledIsas()) {
      if (isa == klib::Isa::kScalar || !klib::IsaAvailable(isa)) continue;
      for (const klib::KernelTable* kt :
           {&klib::TableFor(isa, n), &klib::TableFor(isa, 0)}) {
        const std::vector<double> got = ApplyAllKernels(*kt, n, 900 + n);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_NEAR(got[i], ref[i], 1e-12)
              << kt->name << " n=" << n << " flat index " << i;
        }
      }
    }
  }
}

TEST(DispatchTest, VariantsAreBitwiseReproducibleAcrossCallsAndThreads) {
  for (klib::Isa isa : klib::CompiledIsas()) {
    if (!klib::IsaAvailable(isa)) continue;
    for (size_t n : {size_t{5}, size_t{8}, size_t{50}}) {
      const klib::KernelTable& kt = klib::TableFor(isa, n);
      const std::vector<double> first = ApplyAllKernels(kt, n, 1300 + n);
      for (int rep = 0; rep < 3; ++rep) {
        const std::vector<double> again = ApplyAllKernels(kt, n, 1300 + n);
        ASSERT_EQ(again.size(), first.size());
        EXPECT_EQ(0, std::memcmp(again.data(), first.data(),
                                 first.size() * sizeof(double)))
            << kt.name << " n=" << n << " rep " << rep;
      }
      std::vector<std::vector<double>> per_thread(4);
      std::vector<std::thread> threads;
      for (size_t t = 0; t < per_thread.size(); ++t) {
        threads.emplace_back(
            [&, t] { per_thread[t] = ApplyAllKernels(kt, n, 1300 + n); });
      }
      for (std::thread& t : threads) t.join();
      for (size_t t = 0; t < per_thread.size(); ++t) {
        ASSERT_EQ(per_thread[t].size(), first.size());
        EXPECT_EQ(0, std::memcmp(per_thread[t].data(), first.data(),
                                 first.size() * sizeof(double)))
            << kt.name << " n=" << n << " thread " << t;
      }
    }
  }
}

// ---------------------------------------- bitwise backward beta grid ---

// The sweep's descent takes beta from backward_fused; its ascending replay
// and the session rings take it from the beta-only step's mat_vec_col
// (hmm/chain_steps.h). Every (ISA, k) table must give the same bits both
// ways, with zeros in A (unreachable transitions) and in the xi scales
// (skipped xi rows).
TEST(BackwardBetaBitwiseTest, FusedBetaEqualsMatVecColEveryIsaAndK) {
  for (klib::Isa isa : klib::CompiledIsas()) {
    if (!klib::IsaAvailable(isa)) continue;
    for (size_t k = 1; k <= 70; ++k) {
      const klib::KernelTable& kt = klib::TableFor(isa, k);
      std::vector<double> a = RandomRow(k * k, 7100 + k, 0.0, 1.0);
      std::vector<double> u = RandomRow(k, 7200 + k);
      std::vector<double> s = RandomRow(k, 7300 + k, 0.0, 1.0);
      for (size_t i = 0; i < k * k; i += 3) a[i] = 0.0;
      for (size_t i = 0; i < k; i += 2) s[i] = 0.0;
      std::vector<double> fused(k), plain(k), xi(k * k, 0.5);
      kt.backward_fused(a.data(), u.data(), s.data(), k, k, fused.data(),
                        xi.data());
      kt.mat_vec_col(a.data(), u.data(), k, k, plain.data());
      EXPECT_EQ(0, std::memcmp(fused.data(), plain.data(), k * sizeof(double)))
          << kt.name << " k=" << k;
    }
  }
}

// --------------------------------------------- bitwise Viterbi grid ---

// Test-local column-form reference: the recursion TryViterbi ran before
// the row-broadcast kernel. For each successor j it scans the predecessors
// against row j of log(A)^T, seeded with i = 0, replacing the best only on
// a strict > — the same candidate adds in the same order, so every ISA's
// viterbi_step must reproduce it bit for bit.
void ColumnViterbiStep(const double* prev, const double* log_a_t,
                       const double* log_b_row, size_t k, double* delta_out,
                       int* psi_out) {
  for (size_t j = 0; j < k; ++j) {
    const double* col = log_a_t + j * k;
    size_t arg = 0;
    double best = prev[0] + col[0];
    for (size_t i = 1; i < k; ++i) {
      const double v = prev[i] + col[i];
      if (v > best) {
        best = v;
        arg = i;
      }
    }
    delta_out[j] = best + log_b_row[j];
    psi_out[j] = static_cast<int>(arg);
  }
}

struct ColumnViterbiRef {
  linalg::Matrix delta;
  std::vector<int> psi;
  std::vector<int> path;
  double log_joint = 0.0;
  bool ok = false;
};

ColumnViterbiRef ColumnViterbi(const linalg::Vector& pi,
                               const linalg::Matrix& a,
                               const linalg::Matrix& log_b) {
  const size_t k = pi.size();
  const size_t big_t = log_b.rows();
  std::vector<double> log_a_t(k * k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      log_a_t[j * k + i] = a(i, j) > 0.0 ? std::log(a(i, j)) : prob::kNegInf;
    }
  }
  ColumnViterbiRef r;
  r.delta = linalg::Matrix(big_t, k);
  r.psi.assign(big_t * k, 0);
  for (size_t i = 0; i < k; ++i) {
    r.delta(0, i) =
        (pi[i] > 0.0 ? std::log(pi[i]) : prob::kNegInf) + log_b(0, i);
  }
  for (size_t t = 1; t < big_t; ++t) {
    ColumnViterbiStep(r.delta.row_data(t - 1), log_a_t.data(),
                      log_b.row_data(t), k, r.delta.row_data(t),
                      r.psi.data() + t * k);
  }
  const double* last = r.delta.row_data(big_t - 1);
  const size_t arg = klib::ArgMaxRow(last, k);
  r.ok = std::isfinite(last[arg]);
  r.log_joint = last[arg];
  r.path.assign(big_t, 0);
  r.path[big_t - 1] = static_cast<int>(arg);
  for (size_t t = big_t - 1; t-- > 0;) {
    r.path[t] = r.psi[(t + 1) * k + static_cast<size_t>(r.path[t + 1])];
  }
  return r;
}

// Chains for the grid. kTies quantizes A, pi and the emissions to a few
// dyadic levels (zeros included), so many candidates tie exactly and
// many are -inf; kSmooth is a continuous random chain.
enum class GridFlavor { kSmooth, kTies };

Chain MakeGridChain(size_t k, size_t big_t, GridFlavor flavor,
                    uint64_t seed) {
  if (flavor == GridFlavor::kSmooth) return MakeChain(k, big_t, seed);
  prob::Rng rng(seed);
  static const double kLevels[] = {0.0, 0.125, 0.25, 0.25, 0.5};
  auto level = [&] { return kLevels[rng.UniformInt(5)]; };
  Chain c;
  c.pi = linalg::Vector(k);
  c.a = linalg::Matrix(k, k);
  for (size_t i = 0; i < k; ++i) c.pi[i] = level();
  c.pi[rng.UniformInt(k)] = 0.5;  // keep at least one live start state
  for (size_t i = 0; i < k * k; ++i) c.a.data()[i] = level();
  c.log_b = linalg::Matrix(big_t, k);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) {
      c.log_b(t, i) = -0.5 * static_cast<double>(rng.UniformInt(3));
    }
  }
  return c;
}

std::vector<klib::Isa> AvailableIsas() {
  std::vector<klib::Isa> out;
  for (klib::Isa isa : klib::CompiledIsas()) {
    if (klib::IsaAvailable(isa)) out.push_back(isa);
  }
  return out;
}

bool SameBits(const double* x, const double* y, size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

// Every k from 1 to 70 covers each ISA's fixed-k cells, every chunk count
// and every masked-lane count of the last block (k = 25..31 is AVX-512's
// lone four-block chunk with a masked tail).
constexpr size_t kGridMaxK = 70;

TEST(ViterbiBitwiseGridTest, StepEqualsColumnFormUnderEveryIsa) {
  for (size_t k = 1; k <= kGridMaxK; ++k) {
    for (GridFlavor flavor : {GridFlavor::kSmooth, GridFlavor::kTies}) {
      const Chain c = MakeGridChain(k, 2, flavor, 5100 + k);
      std::vector<double> log_a(k * k), log_a_t(k * k);
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = 0; j < k; ++j) {
          const double v = c.a(i, j) > 0.0 ? std::log(c.a(i, j))
                                           : prob::kNegInf;
          log_a[i * k + j] = v;
          log_a_t[j * k + i] = v;
        }
      }
      // prev: the first emission row, with -inf entries and (for k > 2) a
      // NaN predecessor, which must never win a successor.
      std::vector<double> prev(c.log_b.row_data(0), c.log_b.row_data(0) + k);
      if (k > 1) prev[k / 2] = prob::kNegInf;
      if (k > 2) prev[k - 1] = std::numeric_limits<double>::quiet_NaN();
      const double* log_b_row = c.log_b.row_data(1);
      std::vector<double> ref_delta(k), delta(k);
      std::vector<int> ref_psi(k), psi(k);
      ColumnViterbiStep(prev.data(), log_a_t.data(), log_b_row, k,
                        ref_delta.data(), ref_psi.data());
      for (klib::Isa isa : AvailableIsas()) {
        for (const klib::KernelTable* kt :
             {&klib::TableFor(isa, k), &klib::TableFor(isa, 0)}) {
          std::fill(delta.begin(), delta.end(), 7.0);
          std::fill(psi.begin(), psi.end(), -1);
          kt->viterbi_step(prev.data(), log_a.data(), log_b_row, k,
                           delta.data(), psi.data());
          EXPECT_TRUE(SameBits(delta.data(), ref_delta.data(), k))
              << kt->name << " k=" << k;
          EXPECT_EQ(psi, ref_psi) << kt->name << " k=" << k;
        }
      }
    }
  }
}

TEST(ViterbiBitwiseGridTest, TryViterbiEqualsColumnFormUnderEveryIsa) {
  const klib::Isa active = klib::ActiveIsa();
  for (klib::Isa isa : AvailableIsas()) {
    ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(isa));
    hmm::InferenceWorkspace ws;  // reused dirty across every shape
    hmm::ViterbiResult vit;
    for (size_t k = 1; k <= kGridMaxK; ++k) {
      for (size_t big_t : {size_t{1}, size_t{2}, size_t{37}}) {
        for (GridFlavor flavor : {GridFlavor::kSmooth, GridFlavor::kTies}) {
          const Chain c = MakeGridChain(k, big_t, flavor, 6100 + k + big_t);
          const ColumnViterbiRef ref = ColumnViterbi(c.pi, c.a, c.log_b);
          const Status st = hmm::TryViterbi(c.pi, c.a, c.log_b, &ws, &vit);
          const std::string where = std::string(klib::IsaName(isa)) +
                                    " k=" + std::to_string(k) +
                                    " T=" + std::to_string(big_t);
          EXPECT_TRUE(SameBits(ws.delta.data(), ref.delta.data(), big_t * k))
              << where;
          for (size_t t = 1; t < big_t; ++t) {
            EXPECT_EQ(0, std::memcmp(ws.psi.data() + t * k,
                                     ref.psi.data() + t * k,
                                     k * sizeof(int)))
                << where << " psi row " << t;
          }
          ASSERT_EQ(st.ok(), ref.ok) << where << ": " << st.message();
          if (!ref.ok) continue;
          EXPECT_EQ(vit.path, ref.path) << where;
          EXPECT_TRUE(SameBits(&vit.log_joint, &ref.log_joint, 1)) << where;
        }
      }
    }
  }
  ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(active));
}

TEST(DispatchTest, EngineAgreesAcrossIsasEndToEnd) {
  // Full ForwardBackward under the active tables vs forced-scalar tables,
  // at a fixed-k shape and a generic shape. This is the in-process
  // counterpart of the *_scalar_isa ctest registrations (which check the
  // same property through the environment override).
  const klib::Isa active = klib::ActiveIsa();
  for (size_t k : {size_t{6}, size_t{13}}) {
    const size_t big_t = 40;
    Chain c = MakeChain(k, big_t, 424200 + k);
    hmm::ForwardBackwardResult fb_active =
        checked::ForwardBackward(c.pi, c.a, c.log_b);
    ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(klib::Isa::kScalar));
    hmm::ForwardBackwardResult fb_scalar =
        checked::ForwardBackward(c.pi, c.a, c.log_b);
    ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(active));
    EXPECT_NEAR(fb_active.log_likelihood, fb_scalar.log_likelihood, 1e-9);
    for (size_t t = 0; t < big_t; ++t) {
      for (size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(fb_active.gamma(t, i), fb_scalar.gamma(t, i), 1e-9);
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        EXPECT_NEAR(fb_active.xi_sum(i, j), fb_scalar.xi_sum(i, j), 1e-9);
      }
    }
  }
}

// ------------------------------------------------- cross-build bit pins ---

// The tests above pin the vector variants to the scalar oracle within
// 1e-12 and to themselves within one process; a change to a lane order
// passes both. This pin records one FNV-1a digest of every kernel's output
// bytes per (ISA, table), so any change to the bits a variant returns
// fails here. Inputs come from prob::Rng alone (no libm call), so the
// digests depend only on the kernels. The scalar oracle is not pinned: its
// ExpShiftRow calls the host libm's exp.

struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Add(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Add(const std::vector<T>& v) { Add(v.data(), v.size() * sizeof(T)); }
  void Add(double v) { Add(&v, sizeof(v)); }
};

enum PinKernel {
  kPinSum,
  kPinDot,
  kPinMulRowScaled,
  kPinAxpy,
  kPinMatVecCol,
  kPinMatVecColMul,
  kPinBackwardFused,
  kPinExpShift,
  kPinViterbi,
  kNumPinKernels,
};

constexpr const char* kPinKernelNames[kNumPinKernels] = {
    "sum_row",        "dot",           "mul_row_scaled_into",
    "axpy_row",       "mat_vec_col",   "mat_vec_col_mul",
    "backward_fused", "exp_shift_row", "viterbi_step"};

// Feeds every kernel of `kt` the shape-k inputs: zeros in A and in the xi
// scales, -inf, NaN and underflowing entries in the exp row, and -inf
// entries, exact ties and a NaN predecessor in the Viterbi frame.
void DigestShape(const klib::KernelTable& kt, size_t k, Fnv1a* h) {
  prob::Rng rng(8800 + k);
  auto row = [&](size_t n, double lo, double hi) {
    std::vector<double> v(n);
    for (double& e : v) e = rng.Uniform(lo, hi);
    return v;
  };
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x = row(k, -2.0, 2.0);
  std::vector<double> y = row(k, -2.0, 2.0);
  std::vector<double> s = row(k, 0.0, 1.0);
  std::vector<double> a = row(k * k, 0.0, 1.0);
  std::vector<double> e = row(k, -30.0, 0.0);
  std::vector<double> log_a(k * k, -kInf);
  for (size_t i = 0; i < k * k; i += 3) a[i] = 0.0;
  for (size_t i = 0; i < k; i += 2) s[i] = 0.0;
  for (size_t i = 0; i < k * k; ++i) {
    if (a[i] != 0.0) log_a[i] = -0.5 * static_cast<double>(rng.UniformInt(4));
  }
  for (size_t i = 3; i < k; i += 7) e[i] = -kInf;
  for (size_t i = 5; i < k; i += 11) e[i] = kNaN;
  for (size_t i = 6; i < k; i += 13) e[i] = -720.0;
  std::vector<double> prev = x;
  if (k > 1) prev[k / 2] = -kInf;
  if (k > 2) prev[k - 1] = kNaN;

  std::vector<double> v(k), xi(k * k, 0.125);
  h[kPinSum].Add(kt.sum_row(x.data(), k));
  h[kPinDot].Add(kt.dot(x.data(), y.data(), k));
  kt.mul_row_scaled_into(x.data(), y.data(), 1.7, k, v.data());
  h[kPinMulRowScaled].Add(v);
  v.assign(k, 0.25);
  kt.axpy_row(0.6, x.data(), k, v.data());
  h[kPinAxpy].Add(v);
  kt.mat_vec_col(a.data(), x.data(), k, k, v.data());
  h[kPinMatVecCol].Add(v);
  kt.mat_vec_col_mul(a.data(), x.data(), s.data(), k, k, v.data());
  h[kPinMatVecColMul].Add(v);
  kt.backward_fused(a.data(), y.data(), s.data(), k, k, v.data(), xi.data());
  h[kPinBackwardFused].Add(v);
  h[kPinBackwardFused].Add(xi);
  v.assign(k, 3.0);
  h[kPinExpShift].Add(kt.exp_shift_row(e.data(), k, v.data()));
  h[kPinExpShift].Add(v);
  std::vector<int> psi(k, -1);
  kt.viterbi_step(prev.data(), log_a.data(), e.data(), k, v.data(), psi.data());
  h[kPinViterbi].Add(v);
  h[kPinViterbi].Add(psi);
}

// Per-kernel digests of one table: a fixed-k table over its own k, the
// variable-length table over k = 1..70, 100 and 129.
std::vector<Fnv1a> KernelDigests(const klib::KernelTable& kt) {
  std::vector<Fnv1a> h(kNumPinKernels);
  if (kt.fixed_k != 0) {
    DigestShape(kt, kt.fixed_k, h.data());
    return h;
  }
  for (size_t k = 1; k <= 70; ++k) DigestShape(kt, k, h.data());
  DigestShape(kt, 100, h.data());
  DigestShape(kt, 129, h.data());
  return h;
}

// One digest per table, indexed like TableFor(isa, k): [0] is the
// variable-length table, [k] the fixed-k one. Recorded before the kernels
// moved to one template source (linalg/kernels_simd.h); a change to a
// variant's bits must update them deliberately.
constexpr uint64_t kAvx2Digests[klib::kMaxFixedK + 1] = {
    0xf8e264096a97e43bull, 0xde1c947dd8e6ca5dull, 0x4f1f9a7f7181868cull,
    0x1fee7774dffa6f3bull, 0x58eef7b47b951758ull, 0xfec49e588ade2ba6ull,
    0x326fd58ada9b1e43ull, 0x5793489e5a7a7892ull, 0xa970dda9bf84549dull};
constexpr uint64_t kAvx512Digests[klib::kMaxFixedK + 1] = {
    0x0fde73cd5be54774ull, 0xde1c947dd8e6ca5dull, 0x4f1f9a7f7181868cull,
    0x1fee7774dffa6f3bull, 0x2795d9298763d0d6ull, 0xad67db82bb172e7full,
    0x751d3d88f5411ca7ull, 0x98dd0de7c8351e0aull, 0xe032e4a69711d92eull};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(KernelBitsPinTest, EveryVectorTableReturnsItsRecordedBits) {
  std::string checked;
  for (klib::Isa isa : {klib::Isa::kAvx2, klib::Isa::kAvx512}) {
    if (!klib::IsaAvailable(isa)) continue;
    checked += std::string(" ") + klib::IsaName(isa);
    const bool avx2 = isa == klib::Isa::kAvx2;
    const uint64_t* pins = avx2 ? kAvx2Digests : kAvx512Digests;
    for (size_t k = 0; k <= klib::kMaxFixedK; ++k) {
      const klib::KernelTable& kt = klib::TableFor(isa, k);
      Fnv1a table;
      std::string per_kernel;
      const std::vector<Fnv1a> h = KernelDigests(kt);
      for (size_t i = 0; i < h.size(); ++i) {
        table.Add(&h[i].h, sizeof(h[i].h));
        per_kernel += "\n  ";
        per_kernel += kPinKernelNames[i];
        per_kernel += " " + Hex(h[i].h);
      }
      EXPECT_EQ(Hex(table.h), Hex(pins[k]))
          << kt.name << " digests per kernel:" << per_kernel;
    }
  }
  if (checked.empty()) checked = " none";
  std::printf("kernel bit pins checked:%s\n", checked.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace dhmm

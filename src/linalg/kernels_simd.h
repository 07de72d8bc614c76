// One source for every SIMD kernel variant.
//
// Each vector kernel is written once below, as a template over a
// lane-traits struct T. A variant TU (kernels_avx2.cc, kernels_avx512.cc)
// defines its traits, which hold only what differs between the ISAs: the
// lane width W = T::kLanes, plain and masked loads/stores (T::FirstN(n)
// keeps the low n lanes), the arithmetic ops and floor, the final lane
// fold (ReduceAdd/ReduceMax), compare masks and select, the 2^n exponent
// build, the Viterbi index lanes and the table names. It then hands out
// kTables<T>.
//
// Lane-accumulation contract, the fixed order that makes every variant
// bitwise reproducible across calls, thread counts and buffer reuse. Each
// TU documents only its lane fold, masks and index lanes:
//
//  - Reductions (SumRow, Dot, and the MaxRow scan that starts ExpShiftRow)
//    stream two W-lane accumulators over stride-2W blocks: acc0 takes
//    elements [2Wb, 2Wb+W), acc1 takes [2Wb+W, 2Wb+2W). A remaining >= W
//    chunk folds into acc0. The accumulators combine as acc0 (+) acc1
//    lanewise, then T::ReduceAdd (T::ReduceMax) folds the lanes. The
//    scalar tail (< W elements) then folds into that total in ascending
//    order, one fused multiply-add per element for Dot (plain add for
//    SumRow, running strict-> max for MaxRow).
//  - Dot lanes accumulate with FMA (one rounding per element); this is the
//    FMA use the -ffp-contract=off build contract allows: explicit in the
//    source with the order documented here, never compiler contraction.
//  - Elementwise kernels are per-element fixed sequences: AxpyRow
//    out[i] = fma(s, x[i], out[i]); MulRowScaledInto
//    out[i] = (x[i] * y[i]) * s (no FMA — bitwise equal to the scalar
//    oracle). Vector body and scalar tail apply the same per-element ops.
//  - MatVecCol / MatVecColMul / BackwardFused iterate rows ascending with
//    a *single* W-lane accumulator per row over stride-W blocks (not Dot's
//    two-accumulator stream: one chain per row lets four interleaved rows
//    hide FMA latency), the final partial block loaded through a lane mask
//    (a masked lane contributes an exact 0 * 0 — no scalar tail chain),
//    then one T::ReduceAdd. Rows are processed in groups of four sharing
//    the loads of x; grouping never changes a row's accumulation order, so
//    results are independent of m. BackwardFused's beta is therefore
//    bitwise equal to MatVecCol's; its xi update applies
//    xi[j] = fma(s * a[j], u[j], xi[j]) under the same mask, sharing each
//    row's loads with the beta dot.
//  - ExpShiftRow is the MaxRow contract followed by the shared PolyExp
//    per element (vector lanes and scalar tail evaluate the identical
//    operation sequence; see kernels_poly_exp.h).
//  - ViterbiStep has no reduction: successor states j are the lanes, up
//    to four W-lane blocks per chunk stay in registers for the whole
//    predecessor loop, the last block lane-masked. Predecessor 0 seeds
//    best = prev[0] + log_a[0][j]; each later i ascending forms
//    prev[i] + log_a[i][j] and takes it, with index i, where it is
//    strictly greater than best (a NaN candidate never wins). That is the
//    scalar oracle's per-element expression and order, so the result is
//    bitwise equal to it.
//
// NaN semantics of MaxRow match the scalar oracle: T::Max(a, b) returns b
// when a is NaN, and the data lane goes first. Loads/stores are
// unaligned-tolerant: kernel selection and control flow depend only on
// (pointer-free) lengths, never on buffer addresses.
//
// Everything here sits in an anonymous namespace ON PURPOSE: the including
// TUs are compiled with different ISA flags (-mavx2 vs -mavx512f), and
// ordinary template instantiations get vague (COMDAT) linkage — the linker
// would keep ONE arbitrary copy per symbol, so an AVX-512 copy could be
// linked into the AVX2 tables and SIGILL on AVX2-only CPUs. Internal
// linkage gives each variant TU its own ISA-consistent instantiations. The
// `variant_linkage` ctest fails if a variant object defines any global,
// weak or unique symbol besides its internal::*Tables() getter.
#ifndef DHMM_LINALG_KERNELS_SIMD_H_
#define DHMM_LINALG_KERNELS_SIMD_H_

#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/kernels_dispatch.h"
#include "linalg/kernels_fixed_k.h"
#include "linalg/kernels_poly_exp.h"

namespace dhmm::linalg::kernels::simd {
namespace {

template <class T>
using V = typename T::V;

template <class T>
double SumRow(const double* DHMM_RESTRICT x, std::size_t n) {
  constexpr std::size_t W = T::kLanes;
  V<T> acc0 = T::Zero(), acc1 = acc0;
  std::size_t i = 0;
  for (; i + 2 * W <= n; i += 2 * W) {
    acc0 = T::Add(acc0, T::Load(x + i));
    acc1 = T::Add(acc1, T::Load(x + i + W));
  }
  if (i + W <= n) {
    acc0 = T::Add(acc0, T::Load(x + i));
    i += W;
  }
  double s = T::ReduceAdd(T::Add(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

template <class T>
double Dot(const double* DHMM_RESTRICT x, const double* DHMM_RESTRICT y,
           std::size_t n) {
  constexpr std::size_t W = T::kLanes;
  V<T> acc0 = T::Zero(), acc1 = acc0;
  std::size_t i = 0;
  for (; i + 2 * W <= n; i += 2 * W) {
    acc0 = T::MulAdd(T::Load(x + i), T::Load(y + i), acc0);
    acc1 = T::MulAdd(T::Load(x + i + W), T::Load(y + i + W), acc1);
  }
  if (i + W <= n) {
    acc0 = T::MulAdd(T::Load(x + i), T::Load(y + i), acc0);
    i += W;
  }
  double s = T::ReduceAdd(T::Add(acc0, acc1));
  for (; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

template <class T>
double MaxRow(const double* DHMM_RESTRICT x, std::size_t n) {
  constexpr std::size_t W = T::kLanes;
  V<T> acc0 = T::Set(-std::numeric_limits<double>::infinity()), acc1 = acc0;
  std::size_t i = 0;
  for (; i + 2 * W <= n; i += 2 * W) {
    // Data operand first: a NaN element keeps the accumulator — the
    // scalar oracle's strict-> semantics.
    acc0 = T::Max(T::Load(x + i), acc0);
    acc1 = T::Max(T::Load(x + i + W), acc1);
  }
  if (i + W <= n) {
    acc0 = T::Max(T::Load(x + i), acc0);
    i += W;
  }
  double m = T::ReduceMax(T::Max(acc0, acc1));
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

template <class T>
void MulRowScaledInto(const double* DHMM_RESTRICT x,
                      const double* DHMM_RESTRICT y, double s, std::size_t n,
                      double* DHMM_RESTRICT out) {
  constexpr std::size_t W = T::kLanes;
  const V<T> sv = T::Set(s);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    T::Store(out + i, T::Mul(T::Mul(T::Load(x + i), T::Load(y + i)), sv));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i] * s;
}

template <class T>
void AxpyRow(double s, const double* DHMM_RESTRICT x, std::size_t n,
             double* DHMM_RESTRICT out) {
  constexpr std::size_t W = T::kLanes;
  const V<T> sv = T::Set(s);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    T::Store(out + i, T::MulAdd(sv, T::Load(x + i), T::Load(out + i)));
  }
  for (; i < n; ++i) out[i] = std::fma(s, x[i], out[i]);
}

// Per-row dot with the MatVecCol row order: ONE W-lane accumulator over
// stride-W blocks, final partial block through the lane mask, one
// ReduceAdd. The row result is identical whether the row is processed in a
// 4-row group or alone.
template <class T>
double MatRowDot(const double* DHMM_RESTRICT row, const double* DHMM_RESTRICT x,
                 std::size_t n) {
  constexpr std::size_t W = T::kLanes;
  V<T> acc = T::Zero();
  std::size_t j = 0;
  for (; j + W <= n; j += W) {
    acc = T::MulAdd(T::Load(row + j), T::Load(x + j), acc);
  }
  if (j < n) {
    const typename T::M tm = T::FirstN(n - j);
    acc = T::MulAdd(T::MaskedLoad(tm, row + j), T::MaskedLoad(tm, x + j), acc);
  }
  return T::ReduceAdd(acc);
}

// Shared MatVecCol/MatVecColMul body: rows in ascending order, processed
// in groups of four so the four independent accumulator chains hide the
// FMA latency of one another (each row still accumulates exactly as
// MatRowDot — the grouping shares only the loads of x).
template <class T, bool kMulW>
void MatVecColBody(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT x,
                   const double* DHMM_RESTRICT w, std::size_t m, std::size_t n,
                   double* DHMM_RESTRICT out) {
  constexpr std::size_t W = T::kLanes;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* DHMM_RESTRICT r0 = a + i * n;
    const double* DHMM_RESTRICT r1 = r0 + n;
    const double* DHMM_RESTRICT r2 = r1 + n;
    const double* DHMM_RESTRICT r3 = r2 + n;
    V<T> a0 = T::Zero(), a1 = a0, a2 = a0, a3 = a0;
    std::size_t j = 0;
    for (; j + W <= n; j += W) {
      const V<T> xv = T::Load(x + j);
      a0 = T::MulAdd(T::Load(r0 + j), xv, a0);
      a1 = T::MulAdd(T::Load(r1 + j), xv, a1);
      a2 = T::MulAdd(T::Load(r2 + j), xv, a2);
      a3 = T::MulAdd(T::Load(r3 + j), xv, a3);
    }
    if (j < n) {
      const typename T::M tm = T::FirstN(n - j);
      const V<T> xv = T::MaskedLoad(tm, x + j);
      a0 = T::MulAdd(T::MaskedLoad(tm, r0 + j), xv, a0);
      a1 = T::MulAdd(T::MaskedLoad(tm, r1 + j), xv, a1);
      a2 = T::MulAdd(T::MaskedLoad(tm, r2 + j), xv, a2);
      a3 = T::MulAdd(T::MaskedLoad(tm, r3 + j), xv, a3);
    }
    const double s0 = T::ReduceAdd(a0);
    const double s1 = T::ReduceAdd(a1);
    const double s2 = T::ReduceAdd(a2);
    const double s3 = T::ReduceAdd(a3);
    if (kMulW) {
      out[i] = s0 * w[i];
      out[i + 1] = s1 * w[i + 1];
      out[i + 2] = s2 * w[i + 2];
      out[i + 3] = s3 * w[i + 3];
    } else {
      out[i] = s0;
      out[i + 1] = s1;
      out[i + 2] = s2;
      out[i + 3] = s3;
    }
  }
  for (; i < m; ++i) {
    const double s = MatRowDot<T>(a + i * n, x, n);
    out[i] = kMulW ? s * w[i] : s;
  }
}

template <class T>
void MatVecCol(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT x,
               std::size_t m, std::size_t n, double* DHMM_RESTRICT out) {
  MatVecColBody<T, false>(a, x, nullptr, m, n, out);
}

template <class T>
void MatVecColMul(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT x,
                  const double* DHMM_RESTRICT w, std::size_t m, std::size_t n,
                  double* DHMM_RESTRICT out) {
  MatVecColBody<T, true>(a, x, w, m, n, out);
}

// One pass over A for the backward frame pair (see kernels.h): each row's
// beta dot accumulates exactly as MatRowDot, so beta equals MatVecCol
// bitwise, and each xi update applies fma(s * a, u, xi) with the same
// masked final block, sharing the loads of a(i,.) between the two.
template <class T>
void BackwardFused(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT u,
                   const double* DHMM_RESTRICT s, std::size_t m, std::size_t n,
                   double* DHMM_RESTRICT beta_out, double* DHMM_RESTRICT xi) {
  constexpr std::size_t W = T::kLanes;
  const typename T::M tm = T::FirstN(n % W);
  for (std::size_t i = 0; i < m; ++i) {
    const double* DHMM_RESTRICT row = a + i * n;
    const double si = s[i];
    if (si == 0.0) {
      beta_out[i] = MatRowDot<T>(row, u, n);
      continue;
    }
    double* DHMM_RESTRICT xrow = xi + i * n;
    const V<T> sv = T::Set(si);
    V<T> acc = T::Zero();
    std::size_t j = 0;
    for (; j + W <= n; j += W) {
      const V<T> av = T::Load(row + j);
      const V<T> uv = T::Load(u + j);
      acc = T::MulAdd(av, uv, acc);
      const V<T> sx = T::Mul(sv, av);
      T::Store(xrow + j, T::MulAdd(sx, uv, T::Load(xrow + j)));
    }
    if (j < n) {
      const V<T> av = T::MaskedLoad(tm, row + j);
      const V<T> uv = T::MaskedLoad(tm, u + j);
      acc = T::MulAdd(av, uv, acc);
      const V<T> sx = T::Mul(sv, av);
      const V<T> xv = T::MaskedLoad(tm, xrow + j);
      T::MaskedStore(xrow + j, tm, T::MulAdd(sx, uv, xv));
    }
    beta_out[i] = T::ReduceAdd(acc);
  }
}

// W-lane PolyExp: the vector evaluation of the exact operation sequence in
// kernels_poly_exp.h (every mul/add/div separately rounded, no FMA), so a
// lane result is bitwise equal to PolyExp of the same input.
template <class T>
V<T> PolyExpVec(V<T> y) {
  const V<T> uflow = T::Set(kPolyExpUnderflow);
  const typename T::C keep = T::NotLt(y, uflow);
  const V<T> yc = T::Max(y, uflow);
  const V<T> t = T::Add(T::Mul(yc, T::Set(kPolyExpLog2e)), T::Set(0.5));
  const V<T> nf = T::Floor(t);
  V<T> r = T::Sub(yc, T::Mul(nf, T::Set(kPolyExpC1)));
  r = T::Sub(r, T::Mul(nf, T::Set(kPolyExpC2)));
  const V<T> r2 = T::Mul(r, r);
  V<T> p = T::Add(T::Mul(T::Set(kPolyExpP0), r2), T::Set(kPolyExpP1));
  p = T::Add(T::Mul(p, r2), T::Set(kPolyExpP2));
  p = T::Mul(r, p);
  V<T> q = T::Add(T::Mul(T::Set(kPolyExpQ0), r2), T::Set(kPolyExpQ1));
  q = T::Add(T::Mul(q, r2), T::Set(kPolyExpQ2));
  q = T::Add(T::Mul(q, r2), T::Set(kPolyExpQ3));
  const V<T> ratio = T::Div(T::Mul(T::Set(2.0), p), T::Sub(q, p));
  const V<T> e = T::Add(T::Set(1.0), ratio);
  // Lanes below the underflow threshold flush to exactly 0.0 (they went
  // through the clamped yc, so no garbage propagates); NaN lanes propagate
  // their input NaN, exactly as scalar PolyExp.
  const V<T> res = T::IfThenElseZero(keep, T::Mul(e, T::Pow2(nf)));
  return T::IfThenElse(T::IsNaN(y), y, res);
}

template <class T>
double ExpShiftRow(const double* DHMM_RESTRICT x, std::size_t n,
                   double* DHMM_RESTRICT out) {
  constexpr std::size_t W = T::kLanes;
  const double m = MaxRow<T>(x, n);
  if (m == -std::numeric_limits<double>::infinity()) return m;
  const V<T> mv = T::Set(m);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    T::Store(out + i, PolyExpVec<T>(T::Sub(T::Load(x + i), mv)));
  }
  for (; i < n; ++i) out[i] = PolyExp(x[i] - m);
  return m;
}

// Running best and argmax of one block of W successor states, in the
// traits' index lanes T::I.
template <class T>
struct ViterbiBlock {
  V<T> best;
  typename T::I arg;
};

template <class T, bool kMasked>
V<T> LoadBlock(const double* DHMM_RESTRICT p, typename T::M tm) {
  return kMasked ? T::MaskedLoad(tm, p) : T::Load(p);
}

// Predecessor 0 seeds the block: best = prev[0] + log_a[0][j], arg = 0.
template <class T, bool kMasked>
void SeedBlock(V<T> p0, const double* DHMM_RESTRICT row, typename T::M tm,
               ViterbiBlock<T>* blk) {
  blk->best = T::Add(p0, LoadBlock<T, kMasked>(row, tm));
  blk->arg = T::IndexZero();
}

// Predecessor i: where cand = prev[i] + log_a[i][j] is strictly greater
// than best (ordered compare: a NaN candidate never wins), take cand and
// i. Max(cand, best) returns cand exactly when cand > best (a NaN on
// either side, or equality, keeps best), so it is that strict-> select
// with best off the compare's latency chain; arg selects under the mask.
template <class T, bool kMasked>
void UpdateBlock(V<T> pv, typename T::I iv, const double* DHMM_RESTRICT row,
                 typename T::M tm, ViterbiBlock<T>* blk) {
  const V<T> cand = T::Add(pv, LoadBlock<T, kMasked>(row, tm));
  const typename T::C gt = T::Gt(cand, blk->best);
  blk->best = T::Max(cand, blk->best);
  blk->arg = T::IndexIfThenElse(gt, iv, blk->arg);
}

// delta = best + log_b and the narrowed backpointers for the block; with
// kMasked only the lanes in tm are written.
template <class T, bool kMasked>
void StoreBlock(const ViterbiBlock<T>& blk,
                const double* DHMM_RESTRICT log_b_row, typename T::M tm,
                double* DHMM_RESTRICT delta_out, int* DHMM_RESTRICT psi_out) {
  const V<T> d = T::Add(blk.best, LoadBlock<T, kMasked>(log_b_row, tm));
  if (kMasked) {
    T::MaskedStore(delta_out, tm, d);
    T::MaskedStoreIndex(psi_out, tm, blk.arg);
  } else {
    T::Store(delta_out, d);
    T::StoreIndex(psi_out, blk.arg);
  }
}

// Row-broadcast Viterbi over NB <= 4 blocks of W successor states starting
// at column j0, each block's best and arg held in registers across the
// whole predecessor loop (named locals, not an array, so they stay out of
// memory). With kTail the last block keeps only its low `lanes` (1..W)
// lanes.
template <class T, int NB, bool kTail>
void ViterbiBlocks(const double* DHMM_RESTRICT prev,
                   const double* DHMM_RESTRICT log_a,
                   const double* DHMM_RESTRICT log_b_row, std::size_t k,
                   std::size_t j0, std::size_t lanes,
                   double* DHMM_RESTRICT delta_out,
                   int* DHMM_RESTRICT psi_out) {
  constexpr std::size_t W = T::kLanes;
  constexpr bool kMask0 = kTail && NB == 1;
  constexpr bool kMask1 = kTail && NB == 2;
  constexpr bool kMask2 = kTail && NB == 3;
  const typename T::M tm = T::FirstN(lanes);
  [[maybe_unused]] ViterbiBlock<T> b0{}, b1{}, b2{}, b3{};
  const V<T> p0 = T::Set(prev[0]);
  const double* DHMM_RESTRICT row0 = log_a + j0;
  SeedBlock<T, kMask0>(p0, row0, tm, &b0);
  if constexpr (NB > 1) SeedBlock<T, kMask1>(p0, row0 + W, tm, &b1);
  if constexpr (NB > 2) SeedBlock<T, kMask2>(p0, row0 + 2 * W, tm, &b2);
  if constexpr (NB > 3) SeedBlock<T, kTail>(p0, row0 + 3 * W, tm, &b3);
  for (std::size_t i = 1; i < k; ++i) {
    const V<T> pv = T::Set(prev[i]);
    const typename T::I iv = T::IndexSet(i);
    const double* DHMM_RESTRICT row = log_a + i * k + j0;
    UpdateBlock<T, kMask0>(pv, iv, row, tm, &b0);
    if constexpr (NB > 1) UpdateBlock<T, kMask1>(pv, iv, row + W, tm, &b1);
    if constexpr (NB > 2) UpdateBlock<T, kMask2>(pv, iv, row + 2 * W, tm, &b2);
    if constexpr (NB > 3) UpdateBlock<T, kTail>(pv, iv, row + 3 * W, tm, &b3);
  }
  const double* DHMM_RESTRICT lb = log_b_row + j0;
  double* DHMM_RESTRICT d = delta_out + j0;
  int* DHMM_RESTRICT p = psi_out + j0;
  StoreBlock<T, kMask0>(b0, lb, tm, d, p);
  if constexpr (NB > 1) StoreBlock<T, kMask1>(b1, lb + W, tm, d + W, p + W);
  if constexpr (NB > 2) {
    StoreBlock<T, kMask2>(b2, lb + 2 * W, tm, d + 2 * W, p + 2 * W);
  }
  if constexpr (NB > 3) {
    StoreBlock<T, kTail>(b3, lb + 3 * W, tm, d + 3 * W, p + 3 * W);
  }
}

// Full 4W-state chunks, then one chunk of the remaining 1..4 blocks with a
// masked last block.
template <class T>
void ViterbiStep(const double* DHMM_RESTRICT prev,
                 const double* DHMM_RESTRICT log_a,
                 const double* DHMM_RESTRICT log_b_row, std::size_t k,
                 double* DHMM_RESTRICT delta_out, int* DHMM_RESTRICT psi_out) {
  constexpr std::size_t W = T::kLanes;
  using Chunk = void (*)(const double*, const double*, const double*,
                         std::size_t, std::size_t, std::size_t, double*, int*);
  constexpr Chunk kTailChunks[4] = {
      &ViterbiBlocks<T, 1, true>, &ViterbiBlocks<T, 2, true>,
      &ViterbiBlocks<T, 3, true>, &ViterbiBlocks<T, 4, true>};
  std::size_t j0 = 0;
  for (; j0 + 4 * W <= k; j0 += 4 * W) {
    ViterbiBlocks<T, 4, false>(prev, log_a, log_b_row, k, j0, W, delta_out,
                               psi_out);
  }
  if (j0 == k) return;
  const std::size_t rem = k - j0;
  kTailChunks[(rem - 1) / W](prev, log_a, log_b_row, k, j0, (rem - 1) % W + 1,
                             delta_out, psi_out);
}

// The row-sweep members, where a whole emission/backward row is streamed.
template <class T>
constexpr void UseVectorRowSweeps(KernelTable* t) {
  t->mul_row_scaled_into = &MulRowScaledInto<T>;
  t->mat_vec_col = &MatVecCol<T>;
  t->mat_vec_col_mul = &MatVecColMul<T>;
  t->backward_fused = &BackwardFused<T>;
  t->exp_shift_row = &ExpShiftRow<T>;
}

template <class T>
constexpr KernelTable MakeGeneric() {
  KernelTable t{};
  t.sum_row = &SumRow<T>;
  t.dot = &Dot<T>;
  t.axpy_row = &AxpyRow<T>;
  t.viterbi_step = &ViterbiStep<T>;
  UseVectorRowSweeps<T>(&t);
  t.isa = T::kIsa;
  t.name = T::kNames[0];
  return t;
}

// Fixed-k tables start from the fully unrolled Tree instantiations
// (kernels_fixed_k.h), then — once K fills at least one W-lane vector —
// take the vector row sweeps (the horizontal reductions sum/dot/max stay
// Tree: at k <= 8 their log-depth unrolled form beats a vector loop plus
// lane reduction). The choice is constexpr per K, so each (ISA, k) cell is
// still one fixed variant resolved at startup.
template <class T, std::size_t K>
constexpr KernelTable MakeFixed() {
  KernelTable t = fixed_k::MakeFixedTable<K>(T::kIsa, T::kNames[K]);
  t.viterbi_step = &ViterbiStep<T>;
  if (K >= T::kLanes) UseVectorRowSweeps<T>(&t);
  return t;
}

template <class T>
constexpr KernelTable kGeneric = MakeGeneric<T>();

template <class T, std::size_t K>
constexpr KernelTable kFixed = MakeFixed<T, K>();

// Constant-initialized (no dynamic initializers), so dispatch resolution
// is safe even from another TU's static initializer.
template <class T>
constexpr internal::IsaTables kTables = {
    &kGeneric<T>,
    {&kGeneric<T>, &kFixed<T, 1>, &kFixed<T, 2>, &kFixed<T, 3>, &kFixed<T, 4>,
     &kFixed<T, 5>, &kFixed<T, 6>, &kFixed<T, 7>, &kFixed<T, 8>}};

}  // namespace
}  // namespace dhmm::linalg::kernels::simd

#endif  // DHMM_LINALG_KERNELS_SIMD_H_

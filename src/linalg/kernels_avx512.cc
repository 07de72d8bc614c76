// AVX-512F kernel variants. Compiled with -mavx512f -mfma (per-file
// flags, see src/CMakeLists.txt); without those flags this TU is the
// nullptr stub at the bottom. Only AVX-512F instructions are used (the
// 2^n scaling widens through cvtpd_epi32 + cvtepi32_epi64 precisely to
// avoid an AVX-512DQ dependency).
//
// Documented lane-accumulation contract of the avx512 variants — the
// stride doubles but the shape mirrors the avx2 contract:
//
//  - Reductions (SumRow, Dot, and the MaxRow scan that starts ExpShiftRow)
//    stream two 8-lane accumulators over stride-16 blocks: acc0 takes
//    elements [16b, 16b+8), acc1 takes [16b+8, 16b+16). A remaining >= 8
//    chunk folds into acc0. The accumulators combine as acc0 (+) acc1
//    lanewise, then a butterfly: the low and high 256-bit halves add
//    lanewise, then (l0 + l2) + (l1 + l3). The scalar tail (< 8 elements)
//    folds into that total in ascending order, one fused multiply-add per
//    element for Dot (plain add for SumRow, running strict-> max for
//    MaxRow).
//  - Dot lanes accumulate with FMA — explicit in the source with the
//    order above, never compiler contraction (-ffp-contract=off stays).
//  - Elementwise kernels are per-element fixed sequences identical to the
//    avx2 contract: AxpyRow out[i] = fma(s, x[i], out[i]); MulRowScaledInto
//    out[i] = (x[i] * y[i]) * s (no FMA — bitwise equal to the scalar
//    oracle). Vector body and scalar tail apply the same per-element ops.
//  - MatVecCol / MatVecColMul / BackwardFused iterate rows ascending with
//    a *single* 8-lane accumulator per row over stride-8 blocks (one
//    chain per row; four interleaved rows hide FMA latency), the final
//    partial block loaded through a lane mask (a masked lane contributes
//    an exact 0 * 0 — no scalar tail chain), then one 8-lane butterfly
//    reduce. Rows are processed in groups of four sharing the loads of x;
//    grouping never changes a row's accumulation order. BackwardFused's
//    beta is therefore bitwise equal to MatVecCol's; its xi update applies
//    xi[j] = fma(s * a[j], u[j], xi[j]) under the same mask, sharing each
//    row's loads with the beta dot.
//  - ExpShiftRow is MaxRow followed by the shared PolyExp per element
//    (lanes and tail evaluate the identical operation sequence).
//  - ViterbiStep is the avx2 row-broadcast contract at 8 lanes per block:
//    up to four blocks (32 successor states) per chunk, last block
//    lane-masked, candidates prev[i] + log_a[i][j], strict-> select of
//    best and of the (64-bit) index lanes — bitwise equal to the scalar
//    oracle.
//
// NaN semantics of MaxRow match the scalar oracle (vmaxpd keeps the
// accumulator when the data operand is NaN). Loads/stores are
// unconditionally unaligned-tolerant; control flow depends only on
// lengths, never on buffer addresses.
#include "linalg/kernels_dispatch.h"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/kernels_fixed_k.h"
#include "linalg/kernels_poly_exp.h"

namespace dhmm::linalg::kernels {
namespace {

inline double ReduceAdd512(__m512d v) {
  const __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  const __m256d quad = _mm256_add_pd(lo, hi);
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(quad),
                                  _mm256_extractf128_pd(quad, 1));
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

inline double ReduceMax512(__m512d v) {
  const __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  const __m256d quad = _mm256_max_pd(lo, hi);
  const __m128d pair = _mm_max_pd(_mm256_castpd256_pd128(quad),
                                  _mm256_extractf128_pd(quad, 1));
  return _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double SumRowAvx512(const double* DHMM_RESTRICT x, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(x + i));
    acc1 = _mm512_add_pd(acc1, _mm512_loadu_pd(x + i + 8));
  }
  if (i + 8 <= n) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(x + i));
    i += 8;
  }
  double s = ReduceAdd512(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

double DotAvx512(const double* DHMM_RESTRICT x, const double* DHMM_RESTRICT y,
                 std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 8),
                           _mm512_loadu_pd(y + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
    i += 8;
  }
  double s = ReduceAdd512(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

double MaxRowAvx512(const double* DHMM_RESTRICT x, std::size_t n) {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  __m512d acc0 = _mm512_set1_pd(kNegInf);
  __m512d acc1 = acc0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Data operand first: a NaN element keeps the accumulator, matching
    // the scalar oracle's strict-> running max.
    acc0 = _mm512_max_pd(_mm512_loadu_pd(x + i), acc0);
    acc1 = _mm512_max_pd(_mm512_loadu_pd(x + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm512_max_pd(_mm512_loadu_pd(x + i), acc0);
    i += 8;
  }
  double m = ReduceMax512(_mm512_max_pd(acc0, acc1));
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void MulRowScaledIntoAvx512(const double* DHMM_RESTRICT x,
                            const double* DHMM_RESTRICT y, double s,
                            std::size_t n, double* DHMM_RESTRICT out) {
  const __m512d sv = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod =
        _mm512_mul_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    _mm512_storeu_pd(out + i, _mm512_mul_pd(prod, sv));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i] * s;
}

void AxpyRowAvx512(double s, const double* DHMM_RESTRICT x, std::size_t n,
                   double* DHMM_RESTRICT out) {
  const __m512d sv = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        out + i,
        _mm512_fmadd_pd(sv, _mm512_loadu_pd(x + i), _mm512_loadu_pd(out + i)));
  }
  for (; i < n; ++i) out[i] = std::fma(s, x[i], out[i]);
}

// Mask keeping the low n % 8 lanes (all-zero when 8 divides n). The
// mat-vec family loads its final partial block through this mask so the
// tail rides the vector accumulator (a masked lane contributes an exact
// 0 * 0) instead of a serial per-element fma chain after the reduction.
inline __mmask8 TailMask512(std::size_t n) {
  return static_cast<__mmask8>((1u << (n & 7)) - 1);
}

// Per-row dot with the MatVecCol row order: ONE 8-lane accumulator over
// stride-8 blocks, final partial block masked, one butterfly reduce
// (single chain per row so four interleaved rows hide the FMA latency).
// Identical whether the row is processed in a 4-row group or alone.
inline double MatRowDotAvx512(const double* DHMM_RESTRICT row,
                              const double* DHMM_RESTRICT x, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(row + j), _mm512_loadu_pd(x + j),
                          acc);
  }
  const __mmask8 tm = TailMask512(n);
  if (tm) {
    acc = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tm, row + j),
                          _mm512_maskz_loadu_pd(tm, x + j), acc);
  }
  return ReduceAdd512(acc);
}

// Shared MatVecCol/MatVecColMul body: rows ascending, in groups of four
// independent accumulator chains sharing the loads of x; grouping never
// changes a row's accumulation order, so results are independent of m.
template <bool kMulW>
inline void MatVecColBodyAvx512(const double* DHMM_RESTRICT a,
                                const double* DHMM_RESTRICT x,
                                const double* DHMM_RESTRICT w, std::size_t m,
                                std::size_t n, double* DHMM_RESTRICT out) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* DHMM_RESTRICT r0 = a + i * n;
    const double* DHMM_RESTRICT r1 = r0 + n;
    const double* DHMM_RESTRICT r2 = r1 + n;
    const double* DHMM_RESTRICT r3 = r2 + n;
    __m512d a0 = _mm512_setzero_pd();
    __m512d a1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd();
    __m512d a3 = _mm512_setzero_pd();
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m512d xv = _mm512_loadu_pd(x + j);
      a0 = _mm512_fmadd_pd(_mm512_loadu_pd(r0 + j), xv, a0);
      a1 = _mm512_fmadd_pd(_mm512_loadu_pd(r1 + j), xv, a1);
      a2 = _mm512_fmadd_pd(_mm512_loadu_pd(r2 + j), xv, a2);
      a3 = _mm512_fmadd_pd(_mm512_loadu_pd(r3 + j), xv, a3);
    }
    const __mmask8 tm = TailMask512(n);
    if (tm) {
      const __m512d xv = _mm512_maskz_loadu_pd(tm, x + j);
      a0 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tm, r0 + j), xv, a0);
      a1 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tm, r1 + j), xv, a1);
      a2 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tm, r2 + j), xv, a2);
      a3 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tm, r3 + j), xv, a3);
    }
    const double s0 = ReduceAdd512(a0);
    const double s1 = ReduceAdd512(a1);
    const double s2 = ReduceAdd512(a2);
    const double s3 = ReduceAdd512(a3);
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
    const double s = MatRowDotAvx512(a + i * n, x, n);
    out[i] = kMulW ? s * w[i] : s;
  }
}

void MatVecColAvx512(const double* DHMM_RESTRICT a,
                     const double* DHMM_RESTRICT x, std::size_t m,
                     std::size_t n, double* DHMM_RESTRICT out) {
  MatVecColBodyAvx512<false>(a, x, nullptr, m, n, out);
}

void MatVecColMulAvx512(const double* DHMM_RESTRICT a,
                        const double* DHMM_RESTRICT x,
                        const double* DHMM_RESTRICT w, std::size_t m,
                        std::size_t n, double* DHMM_RESTRICT out) {
  MatVecColBodyAvx512<true>(a, x, w, m, n, out);
}

// One pass over A for the backward frame pair (see kernels.h): each row's
// beta dot accumulates exactly as MatRowDotAvx512 (single accumulator,
// stride-8, masked final block), so beta equals MatVecColAvx512 bitwise,
// and each xi update applies fma(s * a, u, xi) with the same masked final
// block, sharing the loads of a(i,.) between the two.
void BackwardFusedAvx512(const double* DHMM_RESTRICT a,
                         const double* DHMM_RESTRICT u,
                         const double* DHMM_RESTRICT s, std::size_t m,
                         std::size_t n, double* DHMM_RESTRICT beta_out,
                         double* DHMM_RESTRICT xi) {
  const __mmask8 tm = TailMask512(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* DHMM_RESTRICT row = a + i * n;
    const double si = s[i];
    if (si == 0.0) {
      beta_out[i] = MatRowDotAvx512(row, u, n);
      continue;
    }
    double* DHMM_RESTRICT xrow = xi + i * n;
    const __m512d sv = _mm512_set1_pd(si);
    __m512d acc = _mm512_setzero_pd();
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m512d av = _mm512_loadu_pd(row + j);
      const __m512d uv = _mm512_loadu_pd(u + j);
      acc = _mm512_fmadd_pd(av, uv, acc);
      const __m512d sx = _mm512_mul_pd(sv, av);
      _mm512_storeu_pd(xrow + j,
                       _mm512_fmadd_pd(sx, uv, _mm512_loadu_pd(xrow + j)));
    }
    if (tm) {
      const __m512d av = _mm512_maskz_loadu_pd(tm, row + j);
      const __m512d uv = _mm512_maskz_loadu_pd(tm, u + j);
      acc = _mm512_fmadd_pd(av, uv, acc);
      const __m512d sx = _mm512_mul_pd(sv, av);
      _mm512_mask_storeu_pd(
          xrow + j, tm,
          _mm512_fmadd_pd(sx, uv, _mm512_maskz_loadu_pd(tm, xrow + j)));
    }
    beta_out[i] = ReduceAdd512(acc);
  }
}

// 8-lane PolyExp: vector evaluation of the exact operation sequence in
// kernels_poly_exp.h, so a lane is bitwise equal to PolyExp of the same
// input.
inline __m512d PolyExpVec(__m512d y) {
  const __m512d uflow = _mm512_set1_pd(kPolyExpUnderflow);
  const __mmask8 keep = _mm512_cmp_pd_mask(y, uflow, _CMP_NLT_UQ);
  const __mmask8 unord = _mm512_cmp_pd_mask(y, y, _CMP_UNORD_Q);
  const __m512d yc = _mm512_max_pd(y, uflow);
  const __m512d nf = _mm512_roundscale_pd(
      _mm512_add_pd(_mm512_mul_pd(yc, _mm512_set1_pd(kPolyExpLog2e)),
                    _mm512_set1_pd(0.5)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_sub_pd(yc, _mm512_mul_pd(nf, _mm512_set1_pd(kPolyExpC1)));
  r = _mm512_sub_pd(r, _mm512_mul_pd(nf, _mm512_set1_pd(kPolyExpC2)));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d p = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kPolyExpP0), r2),
                            _mm512_set1_pd(kPolyExpP1));
  p = _mm512_add_pd(_mm512_mul_pd(p, r2), _mm512_set1_pd(kPolyExpP2));
  p = _mm512_mul_pd(r, p);
  __m512d q = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kPolyExpQ0), r2),
                            _mm512_set1_pd(kPolyExpQ1));
  q = _mm512_add_pd(_mm512_mul_pd(q, r2), _mm512_set1_pd(kPolyExpQ2));
  q = _mm512_add_pd(_mm512_mul_pd(q, r2), _mm512_set1_pd(kPolyExpQ3));
  const __m512d e = _mm512_add_pd(
      _mm512_set1_pd(1.0),
      _mm512_div_pd(_mm512_mul_pd(_mm512_set1_pd(2.0), p),
                    _mm512_sub_pd(q, p)));
  // 2^n through the exponent field: nf is integral in [-1021, 1], so the
  // int32 path is exact and needs only AVX-512F.
  const __m256i n32 = _mm512_cvtpd_epi32(nf);
  const __m512i n64 = _mm512_cvtepi32_epi64(n32);
  const __m512i bits =
      _mm512_slli_epi64(_mm512_add_epi64(n64, _mm512_set1_epi64(1023)), 52);
  const __m512d pow2 = _mm512_castsi512_pd(bits);
  // Underflowed lanes flush to exactly 0.0; NaN lanes propagate their
  // input NaN, exactly as scalar PolyExp.
  __m512d res = _mm512_maskz_mul_pd(keep, e, pow2);
  res = _mm512_mask_mov_pd(res, unord, y);
  return res;
}

double ExpShiftRowAvx512(const double* DHMM_RESTRICT x, std::size_t n,
                         double* DHMM_RESTRICT out) {
  const double m = MaxRowAvx512(x, n);
  if (m == -std::numeric_limits<double>::infinity()) return m;
  const __m512d mv = _mm512_set1_pd(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i,
                     PolyExpVec(_mm512_sub_pd(_mm512_loadu_pd(x + i), mv)));
  }
  for (; i < n; ++i) out[i] = PolyExp(x[i] - m);
  return m;
}

// Running best and argmax of one block of 8 successor states. The index
// lanes are 64-bit so they blend under the compare's __mmask8 directly
// (a 32-bit blend would need a 16-bit mask, which costs a round trip
// through a general register per block without AVX-512DQ); the store
// narrows them with vpmovqd.
struct ViterbiBlock512 {
  __m512d best;
  __m512i arg;
};

template <bool kMasked>
inline __m512d LoadBlock512(const double* DHMM_RESTRICT p, __mmask8 tm) {
  return kMasked ? _mm512_maskz_loadu_pd(tm, p) : _mm512_loadu_pd(p);
}

// Predecessor 0 seeds the block: best = prev[0] + log_a[0][j], arg = 0.
template <bool kMasked>
inline void SeedBlock512(__m512d p0, const double* DHMM_RESTRICT row,
                         __mmask8 tm, ViterbiBlock512* blk) {
  blk->best = _mm512_add_pd(p0, LoadBlock512<kMasked>(row, tm));
  blk->arg = _mm512_setzero_si512();
}

// Predecessor i: where cand = prev[i] + log_a[i][j] is strictly greater
// than best (ordered compare: a NaN candidate never wins), take cand and
// i. vmaxpd(cand, best) returns cand exactly when cand > best (a NaN on
// either side, or equality, keeps best), so it is that strict-> select
// with best off the compare's latency chain; arg blends under the mask.
template <bool kMasked>
inline void UpdateBlock512(__m512d pv, __m512i iv,
                           const double* DHMM_RESTRICT row, __mmask8 tm,
                           ViterbiBlock512* blk) {
  const __m512d cand = _mm512_add_pd(pv, LoadBlock512<kMasked>(row, tm));
  const __mmask8 gt = _mm512_cmp_pd_mask(cand, blk->best, _CMP_GT_OQ);
  blk->best = _mm512_max_pd(cand, blk->best);
  blk->arg = _mm512_mask_blend_epi64(gt, blk->arg, iv);
}

// delta = best + log_b and the narrowed backpointers for the block.
template <bool kMasked>
inline void StoreBlock512(const ViterbiBlock512& blk,
                          const double* DHMM_RESTRICT log_b_row, __mmask8 tm,
                          double* DHMM_RESTRICT delta_out,
                          int* DHMM_RESTRICT psi_out) {
  const __m512d d =
      _mm512_add_pd(blk.best, LoadBlock512<kMasked>(log_b_row, tm));
  if (kMasked) {
    _mm512_mask_storeu_pd(delta_out, tm, d);
    _mm512_mask_cvtepi64_storeu_epi32(psi_out, tm, blk.arg);
  } else {
    _mm512_storeu_pd(delta_out, d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(psi_out),
                        _mm512_cvtepi64_epi32(blk.arg));
  }
}

// Row-broadcast Viterbi over NB <= 4 blocks of 8 successor states starting
// at column j0, each block's best and arg held in registers across the
// whole predecessor loop (named locals, not an array, so they stay out of
// memory). With kTail the last block is loaded and stored through `tm`.
template <int NB, bool kTail>
void ViterbiBlocksAvx512(const double* DHMM_RESTRICT prev,
                         const double* DHMM_RESTRICT log_a,
                         const double* DHMM_RESTRICT log_b_row, std::size_t k,
                         std::size_t j0, __mmask8 tm,
                         double* DHMM_RESTRICT delta_out,
                         int* DHMM_RESTRICT psi_out) {
  constexpr bool kMask0 = kTail && NB == 1;
  constexpr bool kMask1 = kTail && NB == 2;
  constexpr bool kMask2 = kTail && NB == 3;
  [[maybe_unused]] ViterbiBlock512 b0{}, b1{}, b2{}, b3{};
  const __m512d p0 = _mm512_set1_pd(prev[0]);
  const double* DHMM_RESTRICT row0 = log_a + j0;
  SeedBlock512<kMask0>(p0, row0, tm, &b0);
  if constexpr (NB > 1) SeedBlock512<kMask1>(p0, row0 + 8, tm, &b1);
  if constexpr (NB > 2) SeedBlock512<kMask2>(p0, row0 + 16, tm, &b2);
  if constexpr (NB > 3) SeedBlock512<kTail>(p0, row0 + 24, tm, &b3);
  for (std::size_t i = 1; i < k; ++i) {
    const __m512d pv = _mm512_set1_pd(prev[i]);
    const __m512i iv = _mm512_set1_epi64(static_cast<long long>(i));
    const double* DHMM_RESTRICT row = log_a + i * k + j0;
    UpdateBlock512<kMask0>(pv, iv, row, tm, &b0);
    if constexpr (NB > 1) UpdateBlock512<kMask1>(pv, iv, row + 8, tm, &b1);
    if constexpr (NB > 2) UpdateBlock512<kMask2>(pv, iv, row + 16, tm, &b2);
    if constexpr (NB > 3) UpdateBlock512<kTail>(pv, iv, row + 24, tm, &b3);
  }
  const double* DHMM_RESTRICT lb = log_b_row + j0;
  double* DHMM_RESTRICT d = delta_out + j0;
  int* DHMM_RESTRICT p = psi_out + j0;
  StoreBlock512<kMask0>(b0, lb, tm, d, p);
  if constexpr (NB > 1) StoreBlock512<kMask1>(b1, lb + 8, tm, d + 8, p + 8);
  if constexpr (NB > 2) StoreBlock512<kMask2>(b2, lb + 16, tm, d + 16, p + 16);
  if constexpr (NB > 3) StoreBlock512<kTail>(b3, lb + 24, tm, d + 24, p + 24);
}

// Full 32-state chunks, then one chunk of the remaining 1..4 blocks with
// a masked last block (k = 25..31 is a lone four-block chunk).
void ViterbiStepAvx512(const double* DHMM_RESTRICT prev,
                       const double* DHMM_RESTRICT log_a,
                       const double* DHMM_RESTRICT log_b_row, std::size_t k,
                       double* DHMM_RESTRICT delta_out,
                       int* DHMM_RESTRICT psi_out) {
  using Chunk = void (*)(const double*, const double*, const double*,
                         std::size_t, std::size_t, __mmask8, double*, int*);
  constexpr Chunk kTailChunks[4] = {
      &ViterbiBlocksAvx512<1, true>, &ViterbiBlocksAvx512<2, true>,
      &ViterbiBlocksAvx512<3, true>, &ViterbiBlocksAvx512<4, true>};
  std::size_t j0 = 0;
  for (; j0 + 32 <= k; j0 += 32) {
    ViterbiBlocksAvx512<4, false>(prev, log_a, log_b_row, k, j0, 0xFF,
                                  delta_out, psi_out);
  }
  if (j0 == k) return;
  const std::size_t rem = k - j0;
  const __mmask8 tm = static_cast<__mmask8>((1u << ((rem - 1) % 8 + 1)) - 1);
  kTailChunks[(rem - 1) / 8](prev, log_a, log_b_row, k, j0, tm, delta_out,
                             psi_out);
}

// Constant-initialized (no dynamic initializers): dispatch resolution is
// safe even from another TU's static initializer.
constexpr KernelTable kAvx512Generic = {
    &SumRowAvx512,
    &DotAvx512,
    &MulRowScaledIntoAvx512,
    &AxpyRowAvx512,
    &MatVecColAvx512,
    &MatVecColMulAvx512,
    &BackwardFusedAvx512,
    &ExpShiftRowAvx512,
    &ViterbiStepAvx512,
    Isa::kAvx512,
    "avx512",
    0};

// Fixed-k tables start from the fully unrolled Tree instantiations, then —
// once K fills at least one 8-lane vector — take this TU's vector kernels
// for the row-sweep ops, where a whole emission/backward row is streamed
// (the horizontal reductions sum/dot/max stay Tree: at k <= 8 their
// log-depth unrolled form beats a vector loop plus lane reduction). The
// choice is constexpr per K, so each (ISA, k) cell is still one fixed
// variant resolved at startup.
template <std::size_t K>
constexpr KernelTable MakeFixed() {
  KernelTable t =
      fixed_k::MakeFixedTable<K>(Isa::kAvx512, fixed_k::kAvx512FixedNames[K]);
  t.viterbi_step = &ViterbiStepAvx512;
  if (K >= 8) {
    t.mul_row_scaled_into = &MulRowScaledIntoAvx512;
    t.mat_vec_col = &MatVecColAvx512;
    t.mat_vec_col_mul = &MatVecColMulAvx512;
    t.backward_fused = &BackwardFusedAvx512;
    t.exp_shift_row = &ExpShiftRowAvx512;
  }
  return t;
}

template <std::size_t K>
constexpr KernelTable kFixed = MakeFixed<K>();

constexpr internal::IsaTables kTables = {
    &kAvx512Generic,
    {&kAvx512Generic, &kFixed<1>, &kFixed<2>, &kFixed<3>, &kFixed<4>,
     &kFixed<5>, &kFixed<6>, &kFixed<7>, &kFixed<8>}};

}  // namespace

namespace internal {
const IsaTables* Avx512Tables() { return &kTables; }
}  // namespace internal

}  // namespace dhmm::linalg::kernels

#else  // !(__AVX512F__ && __FMA__)

namespace dhmm::linalg::kernels::internal {
const IsaTables* Avx512Tables() { return nullptr; }
}  // namespace dhmm::linalg::kernels::internal

#endif

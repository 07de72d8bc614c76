// AVX2+FMA kernel variants. Compiled with -mavx2 -mfma (per-file flags,
// see src/CMakeLists.txt); without those flags this TU is the nullptr stub
// at the bottom, so the portable build never references an AVX
// instruction.
//
// Documented lane-accumulation contract of the avx2 variants (the fixed
// order that makes them bitwise reproducible across calls, thread counts,
// and buffer reuse):
//
//  - Reductions (SumRow, Dot, and the MaxRow scan that starts ExpShiftRow)
//    stream two 4-lane accumulators over stride-8 blocks: acc0 takes
//    elements [8b, 8b+4), acc1 takes [8b+4, 8b+8). A remaining >= 4 chunk
//    folds into acc0. The accumulators combine as acc0 (+) acc1 lanewise,
//    then a butterfly: (l0 + l2) + (l1 + l3). The scalar tail (< 4
//    elements) then folds into that total in ascending order, one fused
//    multiply-add per element for Dot (plain add for SumRow, running
//    strict-> max for MaxRow).
//  - Dot lanes accumulate with FMA (one rounding per element); this is the
//    FMA use the -ffp-contract=off build contract allows: explicit in the
//    source with the order documented here, never compiler contraction.
//  - Elementwise kernels are per-element fixed sequences: AxpyRow
//    out[i] = fma(s, x[i], out[i]); MulRowScaledInto
//    out[i] = (x[i] * y[i]) * s (no FMA — bitwise equal to the scalar
//    oracle). Vector body and scalar tail apply the same per-element ops.
//  - MatVecCol / MatVecColMul / BackwardFused iterate rows ascending with
//    a *single* 4-lane accumulator per row over stride-4 blocks (not
//    Dot's two-accumulator stream: one chain per row lets four
//    interleaved rows hide FMA latency), the final partial block loaded
//    through a vmaskmovpd lane mask (a masked lane contributes an exact
//    0 * 0 — no scalar tail chain), then one butterfly reduce
//    (l0 + l2) + (l1 + l3). Rows are processed in groups of four sharing
//    the loads of x; grouping never changes a row's accumulation order,
//    so results are independent of m. BackwardFused's beta is therefore
//    bitwise equal to MatVecCol's; its xi update applies
//    xi[j] = fma(s * a[j], u[j], xi[j]) under the same mask, sharing each
//    row's loads with the beta dot.
//  - ExpShiftRow is the MaxRow contract followed by the shared PolyExp
//    per element (vector lanes and scalar tail evaluate the identical
//    operation sequence; see kernels_poly_exp.h).
//  - ViterbiStep has no reduction: successor states j are the lanes, up
//    to four 4-lane blocks (16 states) per chunk stay in registers for
//    the whole predecessor loop, the last block lane-masked. Predecessor
//    0 seeds best = prev[0] + log_a[0][j]; each later i ascending forms
//    prev[i] + log_a[i][j] and takes it, with index i, where it is
//    strictly greater than best (a NaN candidate never wins). That is the
//    scalar oracle's per-element expression and order, so the result is
//    bitwise equal to it.
//
// NaN semantics of MaxRow match the scalar oracle: a NaN candidate never
// replaces the running max (vmaxpd(x, acc) keeps acc when x is NaN).
// Loads/stores are unconditionally unaligned-tolerant (vmovupd): kernel
// selection and control flow depend only on (pointer-free) lengths, never
// on buffer addresses.
#include "linalg/kernels_dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/kernels_fixed_k.h"
#include "linalg/kernels_poly_exp.h"

namespace dhmm::linalg::kernels {
namespace {

inline double ReduceAdd(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // (l0 + l2, l1 + l3)
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

inline double ReduceMax(__m256d v) {
  // max is insensitive to grouping for non-NaN inputs; NaN lanes cannot
  // arise here because the accumulators already filtered them (see below).
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double SumRowAvx2(const double* DHMM_RESTRICT x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(x + i + 4));
  }
  if (i + 4 <= n) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    i += 4;
  }
  double s = ReduceAdd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

double DotAvx2(const double* DHMM_RESTRICT x, const double* DHMM_RESTRICT y,
               std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    i += 4;
  }
  double s = ReduceAdd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

double MaxRowAvx2(const double* DHMM_RESTRICT x, std::size_t n) {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  __m256d acc0 = _mm256_set1_pd(kNegInf);
  __m256d acc1 = acc0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Operand order matters: vmaxpd(a, b) returns b when a is NaN, so
    // putting the data first makes a NaN element keep the accumulator —
    // the scalar oracle's strict-> semantics.
    acc0 = _mm256_max_pd(_mm256_loadu_pd(x + i), acc0);
    acc1 = _mm256_max_pd(_mm256_loadu_pd(x + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_max_pd(_mm256_loadu_pd(x + i), acc0);
    i += 4;
  }
  double m = ReduceMax(_mm256_max_pd(acc0, acc1));
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void MulRowScaledIntoAvx2(const double* DHMM_RESTRICT x,
                          const double* DHMM_RESTRICT y, double s,
                          std::size_t n, double* DHMM_RESTRICT out) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(prod, sv));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i] * s;
}

void AxpyRowAvx2(double s, const double* DHMM_RESTRICT x, std::size_t n,
                 double* DHMM_RESTRICT out) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_fmadd_pd(sv, _mm256_loadu_pd(x + i), _mm256_loadu_pd(out + i)));
  }
  for (; i < n; ++i) out[i] = std::fma(s, x[i], out[i]);
}

// Lane-mask table for the final partial block of the mat-vec family:
// kTailMask + (4 - rem) keeps the low rem lanes under vmaskmovpd, so the
// tail rides the vector accumulator (a masked lane contributes an exact
// 0 * 0) instead of a serial per-element fma chain after the reduction.
alignas(32) constexpr long long kTailMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

inline __m256i TailMaskAvx2(std::size_t n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + (4 - (n & 3))));
}

// Per-row dot with the MatVecCol row order: ONE 4-lane accumulator over
// stride-4 blocks, final partial block through the lane mask, one
// butterfly reduce. A single chain per row (unlike Dot's two) so four
// interleaved rows supply the FMA pipeline; the row result is identical
// whether the row is processed in a 4-row group or alone.
inline double MatRowDotAvx2(const double* DHMM_RESTRICT row,
                            const double* DHMM_RESTRICT x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(row + j), _mm256_loadu_pd(x + j),
                          acc);
  }
  if (j < n) {
    const __m256i tm = TailMaskAvx2(n);
    acc = _mm256_fmadd_pd(_mm256_maskload_pd(row + j, tm),
                          _mm256_maskload_pd(x + j, tm), acc);
  }
  return ReduceAdd(acc);
}

// Shared MatVecCol/MatVecColMul body: rows in ascending order, processed
// in groups of four so the four independent accumulator chains hide the
// FMA latency of one another (each row still accumulates exactly as
// MatRowDotAvx2 — the grouping shares only the loads of x).
template <bool kMulW>
inline void MatVecColBodyAvx2(const double* DHMM_RESTRICT a,
                              const double* DHMM_RESTRICT x,
                              const double* DHMM_RESTRICT w, std::size_t m,
                              std::size_t n, double* DHMM_RESTRICT out) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* DHMM_RESTRICT r0 = a + i * n;
    const double* DHMM_RESTRICT r1 = r0 + n;
    const double* DHMM_RESTRICT r2 = r1 + n;
    const double* DHMM_RESTRICT r3 = r2 + n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d xv = _mm256_loadu_pd(x + j);
      a0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j), xv, a0);
      a1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j), xv, a1);
      a2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + j), xv, a2);
      a3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + j), xv, a3);
    }
    if (j < n) {
      const __m256i tm = TailMaskAvx2(n);
      const __m256d xv = _mm256_maskload_pd(x + j, tm);
      a0 = _mm256_fmadd_pd(_mm256_maskload_pd(r0 + j, tm), xv, a0);
      a1 = _mm256_fmadd_pd(_mm256_maskload_pd(r1 + j, tm), xv, a1);
      a2 = _mm256_fmadd_pd(_mm256_maskload_pd(r2 + j, tm), xv, a2);
      a3 = _mm256_fmadd_pd(_mm256_maskload_pd(r3 + j, tm), xv, a3);
    }
    const double s0 = ReduceAdd(a0);
    const double s1 = ReduceAdd(a1);
    const double s2 = ReduceAdd(a2);
    const double s3 = ReduceAdd(a3);
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
    const double s = MatRowDotAvx2(a + i * n, x, n);
    out[i] = kMulW ? s * w[i] : s;
  }
}

void MatVecColAvx2(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT x,
                   std::size_t m, std::size_t n, double* DHMM_RESTRICT out) {
  MatVecColBodyAvx2<false>(a, x, nullptr, m, n, out);
}

void MatVecColMulAvx2(const double* DHMM_RESTRICT a,
                      const double* DHMM_RESTRICT x,
                      const double* DHMM_RESTRICT w, std::size_t m,
                      std::size_t n, double* DHMM_RESTRICT out) {
  MatVecColBodyAvx2<true>(a, x, w, m, n, out);
}

// One pass over A for the backward frame pair (see kernels.h): each row's
// beta dot accumulates exactly as MatRowDotAvx2 (single accumulator,
// stride-4, masked final block), so beta equals MatVecColAvx2 bitwise, and
// each xi update applies fma(s * a, u, xi) with the same masked final
// block, sharing the loads of a(i,.) between the two.
void BackwardFusedAvx2(const double* DHMM_RESTRICT a,
                       const double* DHMM_RESTRICT u,
                       const double* DHMM_RESTRICT s, std::size_t m,
                       std::size_t n, double* DHMM_RESTRICT beta_out,
                       double* DHMM_RESTRICT xi) {
  const __m256i tm = TailMaskAvx2(n);
  const bool has_tail = (n & 3) != 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* DHMM_RESTRICT row = a + i * n;
    const double si = s[i];
    if (si == 0.0) {
      beta_out[i] = MatRowDotAvx2(row, u, n);
      continue;
    }
    double* DHMM_RESTRICT xrow = xi + i * n;
    const __m256d sv = _mm256_set1_pd(si);
    __m256d acc = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d av = _mm256_loadu_pd(row + j);
      const __m256d uv = _mm256_loadu_pd(u + j);
      acc = _mm256_fmadd_pd(av, uv, acc);
      const __m256d sx = _mm256_mul_pd(sv, av);
      _mm256_storeu_pd(xrow + j,
                       _mm256_fmadd_pd(sx, uv, _mm256_loadu_pd(xrow + j)));
    }
    if (has_tail) {
      const __m256d av = _mm256_maskload_pd(row + j, tm);
      const __m256d uv = _mm256_maskload_pd(u + j, tm);
      acc = _mm256_fmadd_pd(av, uv, acc);
      const __m256d sx = _mm256_mul_pd(sv, av);
      _mm256_maskstore_pd(
          xrow + j, tm,
          _mm256_fmadd_pd(sx, uv, _mm256_maskload_pd(xrow + j, tm)));
    }
    beta_out[i] = ReduceAdd(acc);
  }
}

// 4-lane PolyExp: the vector evaluation of the exact operation sequence in
// kernels_poly_exp.h (every mul/add/div separately rounded, no FMA), so a
// lane result is bitwise equal to PolyExp of the same input.
inline __m256d PolyExpVec(__m256d y) {
  const __m256d keep =
      _mm256_cmp_pd(y, _mm256_set1_pd(kPolyExpUnderflow), _CMP_NLT_UQ);
  const __m256d yc = _mm256_max_pd(y, _mm256_set1_pd(kPolyExpUnderflow));
  const __m256d nf = _mm256_floor_pd(
      _mm256_add_pd(_mm256_mul_pd(yc, _mm256_set1_pd(kPolyExpLog2e)),
                    _mm256_set1_pd(0.5)));
  __m256d r = _mm256_sub_pd(yc, _mm256_mul_pd(nf, _mm256_set1_pd(kPolyExpC1)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(nf, _mm256_set1_pd(kPolyExpC2)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kPolyExpP0), r2),
                            _mm256_set1_pd(kPolyExpP1));
  p = _mm256_add_pd(_mm256_mul_pd(p, r2), _mm256_set1_pd(kPolyExpP2));
  p = _mm256_mul_pd(r, p);
  __m256d q = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kPolyExpQ0), r2),
                            _mm256_set1_pd(kPolyExpQ1));
  q = _mm256_add_pd(_mm256_mul_pd(q, r2), _mm256_set1_pd(kPolyExpQ2));
  q = _mm256_add_pd(_mm256_mul_pd(q, r2), _mm256_set1_pd(kPolyExpQ3));
  const __m256d e = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), p),
                    _mm256_sub_pd(q, p)));
  // 2^n through the exponent field: nf is integral in [-1021, 1].
  const __m128i n32 = _mm256_cvtpd_epi32(nf);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  const __m256d pow2 = _mm256_castsi256_pd(bits);
  // Lanes below the underflow threshold flush to exactly 0.0 (the masked
  // lanes went through the clamped yc, so no garbage propagates); NaN
  // lanes propagate their input NaN, exactly as scalar PolyExp.
  const __m256d res = _mm256_and_pd(_mm256_mul_pd(e, pow2), keep);
  const __m256d unord = _mm256_cmp_pd(y, y, _CMP_UNORD_Q);
  return _mm256_blendv_pd(res, y, unord);
}

double ExpShiftRowAvx2(const double* DHMM_RESTRICT x, std::size_t n,
                       double* DHMM_RESTRICT out) {
  const double m = MaxRowAvx2(x, n);
  if (m == -std::numeric_limits<double>::infinity()) return m;
  const __m256d mv = _mm256_set1_pd(m);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     PolyExpVec(_mm256_sub_pd(_mm256_loadu_pd(x + i), mv)));
  }
  for (; i < n; ++i) out[i] = PolyExp(x[i] - m);
  return m;
}

// The same tail-mask table as 32-bit lanes, for the backpointer stores.
alignas(32) constexpr int kTailMask32[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

// Running best and argmax of one block of 4 successor states. The index
// lanes are held as doubles (a predecessor index is exact in a double), so
// they blend under the same compare mask as best; the store converts them
// once with cvttpd.
struct ViterbiBlock256 {
  __m256d best;
  __m256d arg;
};

template <bool kMasked>
inline __m256d LoadBlock256(const double* DHMM_RESTRICT p, __m256i tm) {
  return kMasked ? _mm256_maskload_pd(p, tm) : _mm256_loadu_pd(p);
}

// Predecessor 0 seeds the block: best = prev[0] + log_a[0][j], arg = 0.
template <bool kMasked>
inline void SeedBlock256(__m256d p0, const double* DHMM_RESTRICT row,
                         __m256i tm, ViterbiBlock256* blk) {
  blk->best = _mm256_add_pd(p0, LoadBlock256<kMasked>(row, tm));
  blk->arg = _mm256_setzero_pd();
}

// Predecessor i: where cand = prev[i] + log_a[i][j] is strictly greater
// than best (ordered compare: a NaN candidate never wins), take cand and
// i. vmaxpd(cand, best) returns cand exactly when cand > best (a NaN on
// either side, or equality, keeps best), so it is that strict-> select
// with best off the compare's latency chain; arg blends under the mask.
template <bool kMasked>
inline void UpdateBlock256(__m256d pv, __m256d iv,
                           const double* DHMM_RESTRICT row, __m256i tm,
                           ViterbiBlock256* blk) {
  const __m256d cand = _mm256_add_pd(pv, LoadBlock256<kMasked>(row, tm));
  const __m256d gt = _mm256_cmp_pd(cand, blk->best, _CMP_GT_OQ);
  blk->best = _mm256_max_pd(cand, blk->best);
  blk->arg = _mm256_blendv_pd(blk->arg, iv, gt);
}

// delta = best + log_b and the converted backpointers for the block; with
// kMasked only its low `lanes` lanes are written.
template <bool kMasked>
inline void StoreBlock256(const ViterbiBlock256& blk,
                          const double* DHMM_RESTRICT log_b_row,
                          std::size_t lanes, double* DHMM_RESTRICT delta_out,
                          int* DHMM_RESTRICT psi_out) {
  const __m128i idx = _mm256_cvttpd_epi32(blk.arg);
  if (kMasked) {
    const __m256i tm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTailMask + (4 - lanes)));
    const __m128i tm32 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kTailMask32 + (4 - lanes)));
    _mm256_maskstore_pd(
        delta_out, tm,
        _mm256_add_pd(blk.best, _mm256_maskload_pd(log_b_row, tm)));
    _mm_maskstore_epi32(psi_out, tm32, idx);
  } else {
    _mm256_storeu_pd(delta_out,
                     _mm256_add_pd(blk.best, _mm256_loadu_pd(log_b_row)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(psi_out), idx);
  }
}

// Row-broadcast Viterbi over NB <= 4 blocks of 4 successor states starting
// at column j0, each block's best and arg held in registers across the
// whole predecessor loop (named locals, not an array, so they stay out of
// memory). With kTail the last block keeps only its low `lanes` (1..4)
// lanes, through vmaskmovpd.
template <int NB, bool kTail>
void ViterbiBlocksAvx2(const double* DHMM_RESTRICT prev,
                       const double* DHMM_RESTRICT log_a,
                       const double* DHMM_RESTRICT log_b_row, std::size_t k,
                       std::size_t j0, std::size_t lanes,
                       double* DHMM_RESTRICT delta_out,
                       int* DHMM_RESTRICT psi_out) {
  constexpr bool kMask0 = kTail && NB == 1;
  constexpr bool kMask1 = kTail && NB == 2;
  constexpr bool kMask2 = kTail && NB == 3;
  const __m256i tm = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + (4 - lanes)));
  [[maybe_unused]] ViterbiBlock256 b0{}, b1{}, b2{}, b3{};
  const __m256d p0 = _mm256_set1_pd(prev[0]);
  const double* DHMM_RESTRICT row0 = log_a + j0;
  SeedBlock256<kMask0>(p0, row0, tm, &b0);
  if constexpr (NB > 1) SeedBlock256<kMask1>(p0, row0 + 4, tm, &b1);
  if constexpr (NB > 2) SeedBlock256<kMask2>(p0, row0 + 8, tm, &b2);
  if constexpr (NB > 3) SeedBlock256<kTail>(p0, row0 + 12, tm, &b3);
  for (std::size_t i = 1; i < k; ++i) {
    const __m256d pv = _mm256_set1_pd(prev[i]);
    const __m256d iv = _mm256_set1_pd(static_cast<double>(i));
    const double* DHMM_RESTRICT row = log_a + i * k + j0;
    UpdateBlock256<kMask0>(pv, iv, row, tm, &b0);
    if constexpr (NB > 1) UpdateBlock256<kMask1>(pv, iv, row + 4, tm, &b1);
    if constexpr (NB > 2) UpdateBlock256<kMask2>(pv, iv, row + 8, tm, &b2);
    if constexpr (NB > 3) UpdateBlock256<kTail>(pv, iv, row + 12, tm, &b3);
  }
  const double* DHMM_RESTRICT lb = log_b_row + j0;
  double* DHMM_RESTRICT d = delta_out + j0;
  int* DHMM_RESTRICT p = psi_out + j0;
  StoreBlock256<kMask0>(b0, lb, lanes, d, p);
  if constexpr (NB > 1) StoreBlock256<kMask1>(b1, lb + 4, lanes, d + 4, p + 4);
  if constexpr (NB > 2) StoreBlock256<kMask2>(b2, lb + 8, lanes, d + 8, p + 8);
  if constexpr (NB > 3) {
    StoreBlock256<kTail>(b3, lb + 12, lanes, d + 12, p + 12);
  }
}

// Full 16-state chunks, then one chunk of the remaining 1..4 blocks with a
// masked last block.
void ViterbiStepAvx2(const double* DHMM_RESTRICT prev,
                     const double* DHMM_RESTRICT log_a,
                     const double* DHMM_RESTRICT log_b_row, std::size_t k,
                     double* DHMM_RESTRICT delta_out,
                     int* DHMM_RESTRICT psi_out) {
  using Chunk = void (*)(const double*, const double*, const double*,
                         std::size_t, std::size_t, std::size_t, double*, int*);
  constexpr Chunk kTailChunks[4] = {
      &ViterbiBlocksAvx2<1, true>, &ViterbiBlocksAvx2<2, true>,
      &ViterbiBlocksAvx2<3, true>, &ViterbiBlocksAvx2<4, true>};
  std::size_t j0 = 0;
  for (; j0 + 16 <= k; j0 += 16) {
    ViterbiBlocksAvx2<4, false>(prev, log_a, log_b_row, k, j0, 4, delta_out,
                                psi_out);
  }
  if (j0 == k) return;
  const std::size_t rem = k - j0;
  kTailChunks[(rem - 1) / 4](prev, log_a, log_b_row, k, j0, (rem - 1) % 4 + 1,
                             delta_out, psi_out);
}

// All tables below are constant-initialized (no dynamic initializers), so
// dispatch resolution is safe even from another TU's static initializer.
constexpr KernelTable kAvx2Generic = {
    &SumRowAvx2,
    &DotAvx2,
    &MulRowScaledIntoAvx2,
    &AxpyRowAvx2,
    &MatVecColAvx2,
    &MatVecColMulAvx2,
    &BackwardFusedAvx2,
    &ExpShiftRowAvx2,
    &ViterbiStepAvx2,
    Isa::kAvx2,
    "avx2",
    0};

// Fixed-k tables start from the fully unrolled Tree instantiations, then —
// once K fills at least one 4-lane vector — take this TU's vector kernels
// for the row-sweep ops, where a whole emission/backward row is streamed
// (the horizontal reductions sum/dot/max stay Tree: at k <= 8 their
// log-depth unrolled form beats a vector loop plus lane reduction). The
// choice is constexpr per K, so each (ISA, k) cell is still one fixed
// variant resolved at startup.
template <std::size_t K>
constexpr KernelTable MakeFixed() {
  KernelTable t =
      fixed_k::MakeFixedTable<K>(Isa::kAvx2, fixed_k::kAvx2FixedNames[K]);
  t.viterbi_step = &ViterbiStepAvx2;
  if (K >= 4) {
    t.mul_row_scaled_into = &MulRowScaledIntoAvx2;
    t.mat_vec_col = &MatVecColAvx2;
    t.mat_vec_col_mul = &MatVecColMulAvx2;
    t.backward_fused = &BackwardFusedAvx2;
    t.exp_shift_row = &ExpShiftRowAvx2;
  }
  return t;
}

template <std::size_t K>
constexpr KernelTable kFixed = MakeFixed<K>();

constexpr internal::IsaTables kTables = {
    &kAvx2Generic,
    {&kAvx2Generic, &kFixed<1>, &kFixed<2>, &kFixed<3>, &kFixed<4>,
     &kFixed<5>, &kFixed<6>, &kFixed<7>, &kFixed<8>}};

}  // namespace

namespace internal {
const IsaTables* Avx2Tables() { return &kTables; }
}  // namespace internal

}  // namespace dhmm::linalg::kernels

#else  // !(__AVX2__ && __FMA__)

namespace dhmm::linalg::kernels::internal {
const IsaTables* Avx2Tables() { return nullptr; }
}  // namespace dhmm::linalg::kernels::internal

#endif

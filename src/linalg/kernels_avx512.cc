// AVX-512F kernel variants: the lane traits kernels_simd.h instantiates
// its kernels over. Compiled with -mavx512f -mfma (per-file flags, see
// src/CMakeLists.txt); without those flags this TU is the nullptr stub at
// the bottom. Only AVX-512F instructions are used (Pow2 widens through
// cvtpd_epi32 + cvtepi32_epi64 precisely to avoid an AVX-512DQ
// dependency).
//
// What is ISA-specific here (the lane-order contract is in kernels_simd.h):
//
//  - Lane fold: ReduceAdd/ReduceMax fold the 8 lanes as a butterfly: the
//    low and high 256-bit halves combine lanewise, then
//    (l0 + l2) + (l1 + l3).
//  - Masks: partial blocks and compares both use __mmask8 (masked
//    loads zero the lanes outside the mask).
//  - Viterbi index lanes are 64-bit integers, so they blend under the
//    compare's __mmask8 directly (a 32-bit blend would need a 16-bit mask,
//    which costs a round trip through a general register per block
//    without AVX-512DQ); the store narrows them with vpmovqd.
#include "linalg/kernels_dispatch.h"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>

#include "linalg/kernels_simd.h"

namespace dhmm::linalg::kernels {
namespace {

struct Avx512 {
  static constexpr std::size_t kLanes = 8;
  static constexpr Isa kIsa = Isa::kAvx512;
  static constexpr const char* kNames[kMaxFixedK + 1] = {
      "avx512",    "avx512/k1", "avx512/k2", "avx512/k3", "avx512/k4",
      "avx512/k5", "avx512/k6", "avx512/k7", "avx512/k8"};

  using V = __m512d;
  using C = __mmask8;
  using I = __m512i;
  using M = __mmask8;

  static V Zero() { return _mm512_setzero_pd(); }
  static V Set(double v) { return _mm512_set1_pd(v); }
  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static M FirstN(std::size_t n) { return static_cast<M>((1u << n) - 1); }
  static V MaskedLoad(M m, const double* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void MaskedStore(double* p, M m, V v) {
    _mm512_mask_storeu_pd(p, m, v);
  }

  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm512_div_pd(a, b); }
  // vmaxpd returns b when a is NaN (and on equality).
  static V Max(V a, V b) { return _mm512_max_pd(a, b); }
  static V MulAdd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V Floor(V v) {
    return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }

  static double ReduceAdd(V v) {
    const __m256d lo = _mm512_castpd512_pd256(v);
    const __m256d quad = _mm256_add_pd(lo, _mm512_extractf64x4_pd(v, 1));
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(quad),
                                    _mm256_extractf128_pd(quad, 1));
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
  static double ReduceMax(V v) {
    const __m256d lo = _mm512_castpd512_pd256(v);
    const __m256d quad = _mm256_max_pd(lo, _mm512_extractf64x4_pd(v, 1));
    const __m128d pair = _mm_max_pd(_mm256_castpd256_pd128(quad),
                                    _mm256_extractf128_pd(quad, 1));
    return _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }

  static C Gt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
  static C NotLt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_NLT_UQ); }
  static C IsNaN(V v) { return _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q); }
  static V IfThenElse(C c, V yes, V no) {
    return _mm512_mask_mov_pd(no, c, yes);
  }
  static V IfThenElseZero(C c, V yes) { return _mm512_maskz_mov_pd(c, yes); }

  // 2^n through the exponent field: n is integral in [-1021, 1], so the
  // int32 path is exact and needs only AVX-512F.
  static V Pow2(V n) {
    const __m512i n64 = _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(n));
    const __m512i biased = _mm512_add_epi64(n64, _mm512_set1_epi64(1023));
    return _mm512_castsi512_pd(_mm512_slli_epi64(biased, 52));
  }

  static I IndexZero() { return _mm512_setzero_si512(); }
  static I IndexSet(std::size_t i) {
    return _mm512_set1_epi64(static_cast<long long>(i));
  }
  static I IndexIfThenElse(C c, I yes, I no) {
    return _mm512_mask_blend_epi64(c, no, yes);
  }
  static void StoreIndex(int* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm512_cvtepi64_epi32(v));
  }
  static void MaskedStoreIndex(int* p, M m, I v) {
    _mm512_mask_cvtepi64_storeu_epi32(p, m, v);
  }
};

}  // namespace

namespace internal {
const IsaTables* Avx512Tables() { return &simd::kTables<Avx512>; }
}  // namespace internal

}  // namespace dhmm::linalg::kernels

#else  // !(__AVX512F__ && __FMA__)

namespace dhmm::linalg::kernels::internal {
const IsaTables* Avx512Tables() { return nullptr; }
}  // namespace dhmm::linalg::kernels::internal

#endif

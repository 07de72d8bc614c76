// AVX2+FMA kernel variants: the lane traits kernels_simd.h instantiates
// its kernels over. Compiled with -mavx2 -mfma (per-file flags, see
// src/CMakeLists.txt); without those flags this TU is the nullptr stub at
// the bottom, so the portable build never references an AVX instruction.
//
// What is ISA-specific here (the lane-order contract is in kernels_simd.h):
//
//  - Lane fold: ReduceAdd/ReduceMax fold the 4 lanes as a butterfly,
//    (l0 + l2) + (l1 + l3).
//  - Masks: a partial block's lanes come from a vmaskmovpd lane-mask table
//    (kTailMask); compare masks are all-ones/all-zero double lanes
//    (vcmppd), selected with vblendvpd.
//  - Viterbi index lanes are doubles (a predecessor index is exact in a
//    double), so they blend under the same compare mask as best; the store
//    converts them once with cvttpd, through kTailMask32 for a partial
//    block.
#include "linalg/kernels_dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>

#include "linalg/kernels_simd.h"

namespace dhmm::linalg::kernels {
namespace {

// kTailMask + (4 - n) keeps the low n 64-bit lanes, kTailMask32 + (4 - n)
// the low n 32-bit lanes.
alignas(32) constexpr long long kTailMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
alignas(32) constexpr int kTailMask32[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

struct Avx2 {
  static constexpr std::size_t kLanes = 4;
  static constexpr Isa kIsa = Isa::kAvx2;
  static constexpr const char* kNames[kMaxFixedK + 1] = {
      "avx2",    "avx2/k1", "avx2/k2", "avx2/k3", "avx2/k4",
      "avx2/k5", "avx2/k6", "avx2/k7", "avx2/k8"};

  using V = __m256d;
  using C = __m256d;
  using I = __m256d;
  // A partial block's mask in both lane widths; a kernel that never
  // stores backpointers leaves `i32` dead and the compiler drops its load.
  struct M {
    __m256i f64;
    __m128i i32;
  };

  static V Zero() { return _mm256_setzero_pd(); }
  static V Set(double v) { return _mm256_set1_pd(v); }
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static M FirstN(std::size_t n) {
    const auto* f64 = reinterpret_cast<const __m256i*>(kTailMask + (4 - n));
    const auto* i32 = reinterpret_cast<const __m128i*>(kTailMask32 + (4 - n));
    return {_mm256_loadu_si256(f64), _mm_loadu_si128(i32)};
  }
  static V MaskedLoad(M m, const double* p) {
    return _mm256_maskload_pd(p, m.f64);
  }
  static void MaskedStore(double* p, M m, V v) {
    _mm256_maskstore_pd(p, m.f64, v);
  }

  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm256_div_pd(a, b); }
  // vmaxpd returns b when a is NaN (and on equality).
  static V Max(V a, V b) { return _mm256_max_pd(a, b); }
  static V MulAdd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V Floor(V v) { return _mm256_floor_pd(v); }

  static double ReduceAdd(V v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);  // (l0 + l2, l1 + l3)
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
  // max is insensitive to grouping for non-NaN inputs; NaN lanes cannot
  // arise here because the accumulators already filtered them.
  static double ReduceMax(V v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_max_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }

  static C Gt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static C NotLt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_NLT_UQ); }
  static C IsNaN(V v) { return _mm256_cmp_pd(v, v, _CMP_UNORD_Q); }
  static V IfThenElse(C c, V yes, V no) { return _mm256_blendv_pd(no, yes, c); }
  static V IfThenElseZero(C c, V yes) { return _mm256_and_pd(yes, c); }

  // 2^n through the exponent field: n is integral in [-1021, 1].
  static V Pow2(V n) {
    const __m256i n64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
    const __m256i biased = _mm256_add_epi64(n64, _mm256_set1_epi64x(1023));
    return _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52));
  }

  static I IndexZero() { return _mm256_setzero_pd(); }
  static I IndexSet(std::size_t i) {
    return _mm256_set1_pd(static_cast<double>(i));
  }
  static I IndexIfThenElse(C c, I yes, I no) {
    return _mm256_blendv_pd(no, yes, c);
  }
  static void StoreIndex(int* p, I v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(v));
  }
  static void MaskedStoreIndex(int* p, M m, I v) {
    _mm_maskstore_epi32(p, m.i32, _mm256_cvttpd_epi32(v));
  }
};

}  // namespace

namespace internal {
const IsaTables* Avx2Tables() { return &simd::kTables<Avx2>; }
}  // namespace internal

}  // namespace dhmm::linalg::kernels

#else  // !(__AVX2__ && __FMA__)

namespace dhmm::linalg::kernels::internal {
const IsaTables* Avx2Tables() { return nullptr; }
}  // namespace dhmm::linalg::kernels::internal

#endif

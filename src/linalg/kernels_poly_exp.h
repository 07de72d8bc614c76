// Polynomial exp() shared by the vectorized ExpShiftRow variants.
//
// The SIMD kernels (kernels_simd.h) cannot call libm's exp per lane
// without serializing the whole row, so they evaluate the classic Cephes
// rational approximation instead:
//
//   exp(y) = 2^n * (1 + 2 p / (q - p)),  n = floor(y * log2(e) + 0.5),
//   r = y - n (C1 + C2),  p = r P(r^2),  q = Q(r^2),
//
// accurate to ~1-2 ulp on the reduced range, far inside the <= 1e-12
// cross-variant parity budget. PolyExp below is the scalar evaluation of
// that exact operation sequence (every multiply/add/divide separately
// rounded, no FMA anywhere): a vector lane computing the same input through
// the vector ops produces bitwise the same result, so the SIMD variants use
// PolyExp for their remainder tails without breaking their fixed per-element
// semantics. Inputs are the shifted log emissions y = x - max(x) <= 0;
// anything below kPolyExpUnderflow flushes to exactly 0.0 (libm would give
// a denormal there, a <= 1e-308 absolute difference), NaN propagates.
//
// The scalar oracle in kernels.cc keeps calling std::exp — this header is
// deliberately used only by the vector variants (PolyExpVec in
// kernels_simd.h, and the fixed-k cells). PolyExpPow2/PolyExp live in an
// anonymous namespace for the linkage reason given in kernels_simd.h; the
// fixed operation order makes every TU's copy bitwise identical anyway.
#ifndef DHMM_LINALG_KERNELS_POLY_EXP_H_
#define DHMM_LINALG_KERNELS_POLY_EXP_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace dhmm::linalg::kernels {

// Cephes exp() constants (Moshier, Netlib cephes/cmath/exp.c).
inline constexpr double kPolyExpLog2e = 1.4426950408889634073599;
inline constexpr double kPolyExpC1 = 6.93145751953125e-1;
inline constexpr double kPolyExpC2 = 1.42860682030941723212e-6;
inline constexpr double kPolyExpP0 = 1.26177193074810590878e-4;
inline constexpr double kPolyExpP1 = 3.02994407707441961300e-2;
inline constexpr double kPolyExpP2 = 9.99999999999999999910e-1;
inline constexpr double kPolyExpQ0 = 3.00198505138664455042e-6;
inline constexpr double kPolyExpQ1 = 2.52448340349684104192e-3;
inline constexpr double kPolyExpQ2 = 2.27265548208155028766e-1;
inline constexpr double kPolyExpQ3 = 2.00000000000000000005e0;

/// Flush-to-zero threshold: below this exp() is < 2^-1021 and the variants
/// return exactly 0.0 instead of entering the denormal range.
inline constexpr double kPolyExpUnderflow = -708.0;

namespace {

/// 2^n for integral n in [-1021, 1], via the IEEE-754 exponent field.
inline double PolyExpPow2(long long n) {
  const uint64_t bits = static_cast<uint64_t>(n + 1023) << 52;
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// exp(y) for y <= 0 with the fixed operation order documented above.
/// y < kPolyExpUnderflow returns exactly 0.0; NaN returns NaN.
inline double PolyExp(double y) {
  if (!(y >= kPolyExpUnderflow)) return y < 0.0 ? 0.0 : y;  // 0 or NaN
  const double nf = std::floor(kPolyExpLog2e * y + 0.5);
  double r = y - nf * kPolyExpC1;
  r -= nf * kPolyExpC2;
  const double r2 = r * r;
  const double p = r * ((kPolyExpP0 * r2 + kPolyExpP1) * r2 + kPolyExpP2);
  const double q = ((kPolyExpQ0 * r2 + kPolyExpQ1) * r2 + kPolyExpQ2) * r2 +
                   kPolyExpQ3;
  const double e = 1.0 + 2.0 * p / (q - p);
  return e * PolyExpPow2(static_cast<long long>(nf));
}

}  // namespace

}  // namespace dhmm::linalg::kernels

#endif  // DHMM_LINALG_KERNELS_POLY_EXP_H_

// Fully unrolled fixed-k kernel instantiations (k <= kMaxFixedK).
//
// The paper's experiments live in the small-k regime (Tables 1-3 use
// k ~ 2..50, the per-domain shapes are k = 5/15/26), where the
// variable-length vector kernels spend most of their time in remainder
// handling: a k = 5 dot never fills even one AVX2 vector. The fixed-k
// variants are templates over K with every loop fully unrolled at compile
// time, reduced in a *balanced binary tree* order:
//
//   reduce(x[0..K)) = reduce(x[0..K/2)) + reduce(x[K/2..K))
//
// (tie-broken left at every split; K = 1 is the element itself). The tree
// order is the documented lane-accumulation contract of these variants:
// it is a compile-time property of the template, independent of the ISA
// flags of the including TU, so the avx2 and avx512 instantiations produce
// bitwise-identical results — the compiler is free to SLP-vectorize the
// unrolled tree precisely because the grouping is already explicit in the
// source (no reassociation needed, strict IEEE semantics preserved).
//
// Elementwise kernels (axpy, mul) keep the scalar per-element operation
// order; ExpShiftRow uses the shared PolyExp evaluation (every element
// independent, see kernels_poly_exp.h). This header is included only by
// the ISA variant TUs — the scalar oracle never routes through it.
//
// Everything below that generates code sits in an anonymous namespace ON
// PURPOSE: the including TUs are compiled with different ISA flags
// (-mavx2 vs -mavx512f), and ordinary template instantiations would get
// vague (COMDAT) linkage — the linker would keep ONE arbitrary copy per
// symbol, so an AVX-512-codegen copy could be linked into the AVX2
// dispatch tables and SIGILL on AVX2-only CPUs. Internal linkage gives
// each variant TU its own ISA-consistent instantiations (distinct
// symbols, never merged). The duplication is intended and the results
// are still bitwise identical across TUs: the tree grouping is explicit
// in the source, so strict IEEE semantics pin every rounding.
#ifndef DHMM_LINALG_KERNELS_FIXED_K_H_
#define DHMM_LINALG_KERNELS_FIXED_K_H_

#include <cstddef>
#include <limits>

#include "linalg/kernels_dispatch.h"
#include "linalg/kernels_poly_exp.h"

namespace dhmm::linalg::kernels::fixed_k {

// Pure constant data (no codegen) — safe to share across the variant TUs,
// so these two stay outside the anonymous namespace below.
/// Display names for the fixed-k tables, indexable by K ([0] = generic).
inline constexpr const char* kAvx2FixedNames[kMaxFixedK + 1] = {
    "avx2",    "avx2/k1", "avx2/k2", "avx2/k3", "avx2/k4",
    "avx2/k5", "avx2/k6", "avx2/k7", "avx2/k8"};
inline constexpr const char* kAvx512FixedNames[kMaxFixedK + 1] = {
    "avx512",    "avx512/k1", "avx512/k2", "avx512/k3", "avx512/k4",
    "avx512/k5", "avx512/k6", "avx512/k7", "avx512/k8"};

namespace {

namespace detail {

// Balanced-tree reductions; the recursion grouping is the documented
// accumulation order.
template <std::size_t K>
struct Tree {
  static constexpr std::size_t kLo = K / 2;
  static constexpr std::size_t kHi = K - kLo;

  static inline double Sum(const double* DHMM_RESTRICT x) {
    return Tree<kLo>::Sum(x) + Tree<kHi>::Sum(x + kLo);
  }
  static inline double Dot(const double* DHMM_RESTRICT x,
                           const double* DHMM_RESTRICT y) {
    return Tree<kLo>::Dot(x, y) + Tree<kHi>::Dot(x + kLo, y + kLo);
  }
  // Ties and NaN resolve like the scalar oracle's running max: a later
  // candidate replaces the current max only on a strict >.
  static inline double Max(const double* DHMM_RESTRICT x) {
    const double a = Tree<kLo>::Max(x);
    const double b = Tree<kHi>::Max(x + kLo);
    return b > a ? b : a;
  }
};

template <>
struct Tree<1> {
  static inline double Sum(const double* DHMM_RESTRICT x) { return x[0]; }
  static inline double Dot(const double* DHMM_RESTRICT x,
                           const double* DHMM_RESTRICT y) {
    return x[0] * y[0];
  }
  static inline double Max(const double* DHMM_RESTRICT x) { return x[0]; }
};

}  // namespace detail

// Function-pointer-compatible wrappers. The trailing size arguments are
// part of the KernelTable signature; ForK(k) only hands out the K table
// for rows of exactly length k, so they are intentionally unused.
template <std::size_t K>
struct FixedK {
  static double SumRow(const double* DHMM_RESTRICT x, std::size_t) {
    return detail::Tree<K>::Sum(x);
  }

  static double Dot(const double* DHMM_RESTRICT x,
                    const double* DHMM_RESTRICT y, std::size_t) {
    return detail::Tree<K>::Dot(x, y);
  }

  static void MulRowScaledInto(const double* DHMM_RESTRICT x,
                               const double* DHMM_RESTRICT y, double s,
                               std::size_t, double* DHMM_RESTRICT out) {
    for (std::size_t i = 0; i < K; ++i) out[i] = x[i] * y[i] * s;
  }

  static void AxpyRow(double s, const double* DHMM_RESTRICT x, std::size_t,
                      double* DHMM_RESTRICT out) {
    for (std::size_t i = 0; i < K; ++i) out[i] += s * x[i];
  }

  static void AxpyMulRow(double s, const double* DHMM_RESTRICT x,
                         const double* DHMM_RESTRICT y, std::size_t,
                         double* DHMM_RESTRICT out) {
    for (std::size_t i = 0; i < K; ++i) out[i] += s * x[i] * y[i];
  }

  static void MatVecCol(const double* DHMM_RESTRICT a,
                        const double* DHMM_RESTRICT x, std::size_t,
                        std::size_t, double* DHMM_RESTRICT out) {
    for (std::size_t i = 0; i < K; ++i) {
      out[i] = detail::Tree<K>::Dot(a + i * K, x);
    }
  }

  static void MatVecColMul(const double* DHMM_RESTRICT a,
                           const double* DHMM_RESTRICT x,
                           const double* DHMM_RESTRICT w, std::size_t,
                           std::size_t, double* DHMM_RESTRICT out) {
    for (std::size_t i = 0; i < K; ++i) {
      out[i] = detail::Tree<K>::Dot(a + i * K, x) * w[i];
    }
  }

  // m = n = K; beta is bitwise MatVecCol's, rows with s[i] == 0 skip the
  // xi update (see kernels.h).
  static void BackwardFused(const double* DHMM_RESTRICT a,
                            const double* DHMM_RESTRICT u,
                            const double* DHMM_RESTRICT s, std::size_t,
                            std::size_t, double* DHMM_RESTRICT beta_out,
                            double* DHMM_RESTRICT xi) {
    for (std::size_t i = 0; i < K; ++i) {
      const double* DHMM_RESTRICT row = a + i * K;
      beta_out[i] = detail::Tree<K>::Dot(row, u);
      if (s[i] != 0.0) AxpyMulRow(s[i], row, u, K, xi + i * K);
    }
  }

  static double ExpShiftRow(const double* DHMM_RESTRICT x, std::size_t,
                            double* DHMM_RESTRICT out) {
    const double m = detail::Tree<K>::Max(x);
    if (m == -std::numeric_limits<double>::infinity()) return m;
    for (std::size_t i = 0; i < K; ++i) out[i] = PolyExp(x[i] - m);
    return m;
  }
};

/// Builds the (isa, K) table entry; `name` must outlive the table.
/// constexpr so the per-ISA tables are constant-initialized (no static
/// initialization order hazards when dispatch resolves during another
/// TU's static initializer). viterbi_step is left for the including TU to
/// point at its generic vector entry: one or two masked vector blocks
/// cover a k <= 8 row, and a fixed-K instantiation measured no faster.
template <std::size_t K>
constexpr KernelTable MakeFixedTable(Isa isa, const char* name) {
  KernelTable t{};
  t.sum_row = &FixedK<K>::SumRow;
  t.dot = &FixedK<K>::Dot;
  t.mul_row_scaled_into = &FixedK<K>::MulRowScaledInto;
  t.axpy_row = &FixedK<K>::AxpyRow;
  t.mat_vec_col = &FixedK<K>::MatVecCol;
  t.mat_vec_col_mul = &FixedK<K>::MatVecColMul;
  t.backward_fused = &FixedK<K>::BackwardFused;
  t.exp_shift_row = &FixedK<K>::ExpShiftRow;
  t.isa = isa;
  t.name = name;
  t.fixed_k = K;
  return t;
}

}  // namespace

}  // namespace dhmm::linalg::kernels::fixed_k

#endif  // DHMM_LINALG_KERNELS_FIXED_K_H_

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
// independent, see kernels_poly_exp.h). Only kernels_simd.h includes this
// header: its MakeFixed starts each (ISA, k) table from MakeFixedTable
// below. Everything that generates code sits in an anonymous namespace for
// the linkage reason given there; the copies in the two variant TUs are
// bitwise identical anyway, because the tree grouping is explicit in the
// source and strict IEEE semantics pin every rounding.
#ifndef DHMM_LINALG_KERNELS_FIXED_K_H_
#define DHMM_LINALG_KERNELS_FIXED_K_H_

#include <cstddef>
#include <limits>

#include "linalg/kernels_dispatch.h"
#include "linalg/kernels_poly_exp.h"

namespace dhmm::linalg::kernels::fixed_k {
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
/// TU's static initializer). viterbi_step is left for MakeFixed to point
/// at the ISA's generic vector entry: one or two masked vector blocks
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

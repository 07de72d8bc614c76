#include "linalg/kernels.h"

#include <cmath>
#include <limits>

namespace dhmm::linalg::kernels {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

double SumRow(const double* DHMM_RESTRICT x, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i];
    s1 += x[i + 1];
    s2 += x[i + 2];
    s3 += x[i + 3];
  }
  for (; i < n; ++i) s0 += x[i];
  return (s0 + s1) + (s2 + s3);
}

double Dot(const double* DHMM_RESTRICT x, const double* DHMM_RESTRICT y,
           std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

double MaxRow(const double* DHMM_RESTRICT x, std::size_t n) {
  double m = kNegInf;
  for (std::size_t i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void MulRowScaledInto(const double* DHMM_RESTRICT x,
                      const double* DHMM_RESTRICT y, double s, std::size_t n,
                      double* DHMM_RESTRICT out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * y[i] * s;
}

void AxpyRow(double s, const double* DHMM_RESTRICT x, std::size_t n,
             double* DHMM_RESTRICT out) {
  for (std::size_t i = 0; i < n; ++i) out[i] += s * x[i];
}

void AxpyMulRow(double s, const double* DHMM_RESTRICT x,
                const double* DHMM_RESTRICT y, std::size_t n,
                double* DHMM_RESTRICT out) {
  for (std::size_t i = 0; i < n; ++i) out[i] += s * x[i] * y[i];
}

void MatVecCol(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT x,
               std::size_t m, std::size_t n, double* DHMM_RESTRICT out) {
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = Dot(a + i * n, x, n);
  }
}

void MatVecColMul(const double* DHMM_RESTRICT a,
                  const double* DHMM_RESTRICT x,
                  const double* DHMM_RESTRICT w, std::size_t m, std::size_t n,
                  double* DHMM_RESTRICT out) {
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = Dot(a + i * n, x, n) * w[i];
  }
}

void BackwardFused(const double* DHMM_RESTRICT a, const double* DHMM_RESTRICT u,
                   const double* DHMM_RESTRICT s, std::size_t m, std::size_t n,
                   double* DHMM_RESTRICT beta_out, double* DHMM_RESTRICT xi) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* DHMM_RESTRICT row = a + i * n;
    beta_out[i] = Dot(row, u, n);
    if (s[i] != 0.0) AxpyMulRow(s[i], row, u, n, xi + i * n);
  }
}

void ViterbiStep(const double* DHMM_RESTRICT prev,
                 const double* DHMM_RESTRICT log_a,
                 const double* DHMM_RESTRICT log_b_row, std::size_t k,
                 double* DHMM_RESTRICT delta_out, int* DHMM_RESTRICT psi_out) {
  for (std::size_t j = 0; j < k; ++j) {
    double best = prev[0] + log_a[j];
    int arg = 0;
    for (std::size_t i = 1; i < k; ++i) {
      const double v = prev[i] + log_a[i * k + j];
      if (v > best) {
        best = v;
        arg = static_cast<int>(i);
      }
    }
    delta_out[j] = best + log_b_row[j];
    psi_out[j] = arg;
  }
}

double ExpShiftRow(const double* DHMM_RESTRICT x, std::size_t n,
                   double* DHMM_RESTRICT out) {
  const double m = MaxRow(x, n);
  if (m == kNegInf) return m;
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i] - m);
  return m;
}

void TransposeInto(const double* DHMM_RESTRICT a, std::size_t m,
                   std::size_t n, double* DHMM_RESTRICT out) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* DHMM_RESTRICT row = a + i * n;
    for (std::size_t j = 0; j < n; ++j) out[j * m + i] = row[j];
  }
}

}  // namespace dhmm::linalg::kernels

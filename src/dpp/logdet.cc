#include "dpp/logdet.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace dhmm::dpp {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Factorizes the unnormalized kernel held in ws->kernel and returns the
// normalized log-det via the diagonal correction; -inf when the kernel is
// not numerically positive definite (a Gram matrix, so that is exactly the
// singular case the prior penalizes). Both the probe-only overload and the
// fused entry point funnel through here so their values are bitwise
// identical.
double LogDetFromFactoredKernel(KernelWorkspace* ws) {
  if (!ws->chol.FactorizeInto(ws->kernel)) return kNegInf;
  double diag_correction = 0.0;
  const size_t k = ws->kernel.rows();
  for (size_t i = 0; i < k; ++i) {
    diag_correction += std::log(ws->kernel(i, i));
  }
  return ws->chol.LogDeterminant() - diag_correction;
}

}  // namespace

double LogDetNormalizedKernel(const linalg::Matrix& rows, double rho) {
  KernelWorkspace ws;
  return LogDetNormalizedKernel(rows, rho, &ws);
}

double LogDetNormalizedKernel(const linalg::Matrix& rows, double rho,
                              KernelWorkspace* ws) {
  DHMM_CHECK(ws != nullptr);
  ProductKernel(rows, rho, ws);
  return LogDetFromFactoredKernel(ws);
}

bool LogDetAndGrad(const linalg::Matrix& rows, double rho, KernelWorkspace* ws,
                   double* log_det, linalg::Matrix* grad) {
  DHMM_CHECK(ws != nullptr && log_det != nullptr && grad != nullptr);
  DHMM_CHECK(rho > 0.0);
  ProductKernel(rows, rho, ws);
  *log_det = LogDetFromFactoredKernel(ws);
  if (*log_det == kNegInf) return false;
  GradLogDetFromFactoredWorkspace(rows, rho, ws, grad);
  return true;
}

void GradLogDetFromFactoredWorkspace(const linalg::Matrix& rows, double rho,
                                     KernelWorkspace* ws,
                                     linalg::Matrix* grad) {
  DHMM_CHECK(ws != nullptr && grad != nullptr);
  DHMM_CHECK(ws->chol.ok());
  const size_t k = rows.rows();
  const size_t d = rows.cols();

  // M = K^{-1} P by direct solves on the factorization already in hand (K
  // symmetric, so this equals the needed sum over n).
  ws->chol.SolveInto(ws->powed, &ws->kinv_p);

  grad->Resize(k, d);
  const bool bhattacharyya = rho == 0.5;
  for (size_t i = 0; i < k; ++i) {
    const double inv_kii = 1.0 / ws->kernel(i, i);  // hoisted row divide
    for (size_t j = 0; j < d; ++j) {
      double a = rows(i, j);
      if (a < kProbFloor) {
        (*grad)(i, j) = 0.0;  // flat (floored) region of the kernel
        continue;
      }
      double p = ws->powed(i, j);
      // rho = 0.5: a^{rho-1} = 1/sqrt(a), and sqrt(a) is already in powed.
      double a_pow = bhattacharyya ? 1.0 / p : std::pow(a, rho - 1.0);
      (*grad)(i, j) =
          2.0 * rho * a_pow * (ws->kinv_p(i, j) - p * inv_kii);
    }
  }
}

bool GradLogDetNormalizedKernel(const linalg::Matrix& rows, double rho,
                                linalg::Matrix* grad) {
  DHMM_CHECK(grad != nullptr);
  // One code path for the gradient: delegating to the fused entry point
  // keeps the separate and fused APIs bitwise identical by construction.
  KernelWorkspace ws;
  double log_det = 0.0;
  if (!LogDetAndGrad(rows, rho, &ws, &log_det, grad)) {
    grad->Resize(rows.rows(), rows.cols());
    grad->Fill(0.0);
    return false;
  }
  return true;
}

bool PaperGradLogDet(const linalg::Matrix& rows, linalg::Matrix* grad) {
  DHMM_CHECK(grad != nullptr);
  const size_t k = rows.rows();
  const size_t d = rows.cols();
  *grad = linalg::Matrix(k, d);

  KernelWorkspace ws;
  NormalizedKernel(rows, /*rho=*/0.5, &ws);
  if (!ws.chol.FactorizeInto(ws.kernel)) return false;
  // K~ is symmetric, so sum_m [K~^{-1}]_mi sqrt(A_mj) = [K~^{-1} P]_ij with
  // P = ws.powed (floored square roots): one solve, no explicit inverse.
  ws.chol.SolveInto(ws.powed, &ws.kinv_p);

  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (rows(i, j) < kProbFloor) continue;  // flat (floored) region
      (*grad)(i, j) = 0.5 * ws.kinv_p(i, j) / ws.powed(i, j);
    }
  }
  return true;
}

}  // namespace dhmm::dpp

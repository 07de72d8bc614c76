// Per-state univariate Gaussian emissions (the toy experiment, §4.1).
#ifndef DHMM_PROB_GAUSSIAN_EMISSION_H_
#define DHMM_PROB_GAUSSIAN_EMISSION_H_

#include <memory>

#include "prob/emission.h"

namespace dhmm::prob {

/// \brief Y | X=i ~ Normal(mu_i, sigma_i^2), scalar observations.
///
/// The EM update is the posterior-weighted mean/variance (paper Eqs. 11-12).
/// Variances are floored to keep the likelihood bounded — exactly the
/// singular-estimate failure mode the paper's prior addresses cannot be
/// allowed to produce NaNs in the baseline.
class GaussianEmission : public EmissionModel<double> {
 public:
  /// Constructs with explicit parameters; sizes must match and sigmas > 0.
  GaussianEmission(linalg::Vector mu, linalg::Vector sigma,
                   double sigma_floor = 1e-4);

  /// Random initialization: mu_i ~ Normal(mu0, mu_spread), sigma_i ~
  /// Gamma(2, sigma_scale) (matching the paper's toy initialization).
  static GaussianEmission RandomInit(size_t k, Rng& rng, double mu0 = 3.0,
                                     double mu_spread = 2.0,
                                     double sigma_scale = 0.5);

  size_t num_states() const override { return mu_.size(); }
  void LogProbRow(const double& y, double* out) const override;
  double Sample(size_t state, Rng& rng) const override;

  void BeginAccumulate() override;
  void Accumulate(const double& y, const linalg::Vector& q) override;
  void FinishAccumulate() override;

  std::unique_ptr<EmissionModel<double>> Clone() const override;

  const linalg::Vector& mu() const { return mu_; }
  const linalg::Vector& sigma() const { return sigma_; }
  /// M-step variance floor (binary store round-trips it).
  double sigma_floor() const { return sigma_floor_; }

 private:
  void RefreshLogSigma();

  linalg::Vector mu_;
  linalg::Vector sigma_;
  linalg::Vector log_sigma_;  // log sigma_i, refreshed with sigma_
  double sigma_floor_;
  // Sufficient statistics: sum q, sum q*y, sum q*y^2 per state.
  linalg::Vector acc_w_, acc_y_, acc_yy_;
};

}  // namespace dhmm::prob

#endif  // DHMM_PROB_GAUSSIAN_EMISSION_H_

#include "prob/gaussian_emission.h"

#include <cmath>

#include "util/check.h"

namespace dhmm::prob {

namespace {
constexpr double kLogSqrt2Pi = 0.9189385332046727;  // log(sqrt(2*pi))
}

GaussianEmission::GaussianEmission(linalg::Vector mu, linalg::Vector sigma,
                                   double sigma_floor)
    : mu_(std::move(mu)), sigma_(std::move(sigma)),
      sigma_floor_(sigma_floor) {
  DHMM_CHECK(mu_.size() == sigma_.size());
  DHMM_CHECK(sigma_floor_ > 0.0);
  for (size_t i = 0; i < sigma_.size(); ++i) {
    DHMM_CHECK_MSG(sigma_[i] > 0.0, "sigma must be positive");
    if (sigma_[i] < sigma_floor_) sigma_[i] = sigma_floor_;
  }
  RefreshLogSigma();
}

GaussianEmission GaussianEmission::RandomInit(size_t k, Rng& rng, double mu0,
                                              double mu_spread,
                                              double sigma_scale) {
  linalg::Vector mu(k), sigma(k);
  for (size_t i = 0; i < k; ++i) {
    mu[i] = rng.Gaussian(mu0, mu_spread);
    sigma[i] = rng.Gamma(2.0, sigma_scale);
  }
  return GaussianEmission(std::move(mu), std::move(sigma));
}

void GaussianEmission::RefreshLogSigma() {
  log_sigma_.Resize(sigma_.size());
  for (size_t i = 0; i < sigma_.size(); ++i) {
    log_sigma_[i] = std::log(sigma_[i]);
  }
}

// The divide stays: a cached 1 / sigma would change the bits of z.
void GaussianEmission::LogProbRow(const double& y, double* out) const {
  const double obs = y;  // a local, so the stores below cannot alias it
  const double* mu = mu_.data();
  const double* sigma = sigma_.data();
  const double* log_sigma = log_sigma_.data();
  for (size_t i = 0; i < mu_.size(); ++i) {
    double z = (obs - mu[i]) / sigma[i];
    out[i] = -0.5 * z * z - log_sigma[i] - kLogSqrt2Pi;
  }
}

double GaussianEmission::Sample(size_t state, Rng& rng) const {
  DHMM_DCHECK(state < mu_.size());
  return rng.Gaussian(mu_[state], sigma_[state]);
}

void GaussianEmission::BeginAccumulate() {
  acc_w_ = linalg::Vector(num_states());
  acc_y_ = linalg::Vector(num_states());
  acc_yy_ = linalg::Vector(num_states());
}

void GaussianEmission::Accumulate(const double& y, const linalg::Vector& q) {
  DHMM_DCHECK(q.size() == num_states());
  for (size_t i = 0; i < q.size(); ++i) {
    acc_w_[i] += q[i];
    acc_y_[i] += q[i] * y;
    acc_yy_[i] += q[i] * y * y;
  }
}

void GaussianEmission::FinishAccumulate() {
  DHMM_CHECK_MSG(acc_w_.size() == num_states(),
                 "FinishAccumulate without BeginAccumulate");
  for (size_t i = 0; i < num_states(); ++i) {
    if (acc_w_[i] <= 0.0) continue;  // state never used: keep old parameters
    double mean = acc_y_[i] / acc_w_[i];
    double var = acc_yy_[i] / acc_w_[i] - mean * mean;
    mu_[i] = mean;
    sigma_[i] = std::sqrt(std::max(var, sigma_floor_ * sigma_floor_));
  }
  RefreshLogSigma();
}

std::unique_ptr<EmissionModel<double>> GaussianEmission::Clone() const {
  return std::make_unique<GaussianEmission>(*this);
}

}  // namespace dhmm::prob

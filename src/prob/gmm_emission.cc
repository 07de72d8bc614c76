#include "prob/gmm_emission.h"

#include <cmath>

#include "prob/logsumexp.h"
#include "util/check.h"

namespace dhmm::prob {

namespace {
constexpr double kLogSqrt2Pi = 0.9189385332046727;

double GaussianLogDensity(double y, double mu, double sigma) {
  double z = (y - mu) / sigma;
  return -0.5 * z * z - std::log(sigma) - kLogSqrt2Pi;
}
}  // namespace

GmmEmission::GmmEmission(linalg::Matrix weights, linalg::Matrix mu,
                         linalg::Matrix sigma, double sigma_floor)
    : weights_(std::move(weights)), mu_(std::move(mu)),
      sigma_(std::move(sigma)), sigma_floor_(sigma_floor) {
  DHMM_CHECK(sigma_floor_ > 0.0);
  DHMM_CHECK(weights_.rows() == mu_.rows() && mu_.rows() == sigma_.rows());
  DHMM_CHECK(weights_.cols() == mu_.cols() && mu_.cols() == sigma_.cols());
  DHMM_CHECK_MSG(weights_.IsRowStochastic(1e-6),
                 "mixture weights must be row-stochastic");
  weights_.NormalizeRows();
  for (size_t i = 0; i < sigma_.rows(); ++i) {
    for (size_t m = 0; m < sigma_.cols(); ++m) {
      DHMM_CHECK_MSG(sigma_(i, m) > 0.0, "sigmas must be positive");
      if (sigma_(i, m) < sigma_floor_) sigma_(i, m) = sigma_floor_;
    }
  }
}

GmmEmission GmmEmission::RandomInit(size_t k, size_t components, Rng& rng,
                                    double mu_lo, double mu_hi) {
  DHMM_CHECK(k > 0 && components > 0);
  linalg::Matrix weights(k, components, 1.0 / static_cast<double>(components));
  linalg::Matrix mu(k, components), sigma(k, components);
  for (size_t i = 0; i < k; ++i) {
    for (size_t m = 0; m < components; ++m) {
      mu(i, m) = rng.Uniform(mu_lo, mu_hi);
      sigma(i, m) = rng.Gamma(2.0, 0.5);
    }
  }
  return GmmEmission(std::move(weights), std::move(mu), std::move(sigma));
}

void GmmEmission::ComponentLogDensities(size_t state, double y,
                                        linalg::Vector* out) const {
  const size_t m_count = num_components();
  DHMM_DCHECK(out->size() == m_count);
  for (size_t m = 0; m < m_count; ++m) {
    double w = weights_(state, m);
    (*out)[m] = w > 0.0
                    ? std::log(w) + GaussianLogDensity(y, mu_(state, m),
                                                       sigma_(state, m))
                    : kNegInf;
  }
}

double GmmEmission::LogProb(size_t state, const double& y) const {
  DHMM_DCHECK(state < num_states());
  linalg::Vector comp(num_components());
  ComponentLogDensities(state, y, &comp);
  return LogSumExp(comp);
}

double GmmEmission::Sample(size_t state, Rng& rng) const {
  DHMM_DCHECK(state < num_states());
  size_t m = rng.Categorical(weights_.Row(state));
  return rng.Gaussian(mu_(state, m), sigma_(state, m));
}

void GmmEmission::BeginAccumulate() {
  acc_w_ = linalg::Matrix(num_states(), num_components());
  acc_y_ = linalg::Matrix(num_states(), num_components());
  acc_yy_ = linalg::Matrix(num_states(), num_components());
}

void GmmEmission::Accumulate(const double& y, const linalg::Vector& q) {
  DHMM_DCHECK(q.size() == num_states());
  const size_t m_count = num_components();
  linalg::Vector comp(m_count);
  for (size_t i = 0; i < num_states(); ++i) {
    if (q[i] == 0.0) continue;
    // Component responsibilities within state i.
    ComponentLogDensities(i, y, &comp);
    double norm = LogSumExp(comp);
    if (norm == kNegInf) continue;
    for (size_t m = 0; m < m_count; ++m) {
      double r = q[i] * std::exp(comp[m] - norm);
      acc_w_(i, m) += r;
      acc_y_(i, m) += r * y;
      acc_yy_(i, m) += r * y * y;
    }
  }
}

void GmmEmission::FinishAccumulate() {
  DHMM_CHECK_MSG(acc_w_.rows() == num_states(),
                 "FinishAccumulate without BeginAccumulate");
  for (size_t i = 0; i < num_states(); ++i) {
    double state_weight = 0.0;
    for (size_t m = 0; m < num_components(); ++m) {
      state_weight += acc_w_(i, m);
    }
    if (state_weight <= 0.0) continue;  // unused state keeps its parameters
    for (size_t m = 0; m < num_components(); ++m) {
      double w = acc_w_(i, m);
      weights_(i, m) = w / state_weight;
      if (w <= 0.0) continue;  // dead component: keep location, zero weight
      double mean = acc_y_(i, m) / w;
      double var = acc_yy_(i, m) / w - mean * mean;
      mu_(i, m) = mean;
      sigma_(i, m) = std::sqrt(std::max(var, sigma_floor_ * sigma_floor_));
    }
  }
}

std::unique_ptr<EmissionModel<double>> GmmEmission::Clone() const {
  return std::make_unique<GmmEmission>(*this);
}

}  // namespace dhmm::prob

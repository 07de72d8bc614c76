#include "prob/gmm_emission.h"

#include <cmath>
#include <limits>

#include "prob/logsumexp.h"
#include "util/check.h"

namespace dhmm::prob {

namespace {
constexpr double kLogSqrt2Pi = 0.9189385332046727;
}  // namespace

GmmEmission::GmmEmission(linalg::Matrix weights, linalg::Matrix mu,
                         linalg::Matrix sigma, double sigma_floor,
                         bool normalize_weights)
    : weights_(std::move(weights)), mu_(std::move(mu)),
      sigma_(std::move(sigma)), sigma_floor_(sigma_floor) {
  DHMM_CHECK(sigma_floor_ > 0.0);
  DHMM_CHECK(weights_.rows() == mu_.rows() && mu_.rows() == sigma_.rows());
  DHMM_CHECK(weights_.cols() == mu_.cols() && mu_.cols() == sigma_.cols());
  DHMM_CHECK_MSG(weights_.IsRowStochastic(1e-6),
                 "mixture weights must be row-stochastic");
  if (normalize_weights) weights_.NormalizeRows();
  for (size_t i = 0; i < sigma_.rows(); ++i) {
    for (size_t m = 0; m < sigma_.cols(); ++m) {
      DHMM_CHECK_MSG(sigma_(i, m) > 0.0, "sigmas must be positive");
      if (sigma_(i, m) < sigma_floor_) sigma_(i, m) = sigma_floor_;
    }
  }
  RefreshLogs();
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

void GmmEmission::RefreshLogs() {
  log_w_.Resize(weights_.rows(), weights_.cols());
  log_sigma_.Resize(sigma_.rows(), sigma_.cols());
  for (size_t i = 0; i < weights_.rows(); ++i) {
    for (size_t m = 0; m < weights_.cols(); ++m) {
      const double w = weights_(i, m);
      log_w_(i, m) = w > 0.0 ? std::log(w) : kNegInf;
      log_sigma_(i, m) = std::log(sigma_(i, m));
    }
  }
}

double GmmEmission::ComponentLogDensity(size_t state, size_t m,
                                        double y) const {
  if (!(weights_(state, m) > 0.0)) return kNegInf;
  double z = (y - mu_(state, m)) / sigma_(state, m);
  return log_w_(state, m) +
         (-0.5 * z * z - log_sigma_(state, m) - kLogSqrt2Pi);
}

// A log-sum-exp over the components: a NaN check and max scan, then the
// ascending sum of exp(v - max) (tests/prob_test.cc pins it term for term
// against its scalar oracle). Each term is recomputed rather than staged,
// so no scratch is needed and concurrent readers of one const model share
// nothing mutable.
double GmmEmission::StateLogProb(size_t state, double y) const {
  const size_t m_count = num_components();
  double mx = kNegInf;
  for (size_t m = 0; m < m_count; ++m) {
    const double v = ComponentLogDensity(state, m, y);
    if (std::isnan(v)) return std::numeric_limits<double>::quiet_NaN();
    mx = v > mx ? v : mx;
  }
  if (mx == kNegInf) return kNegInf;
  double s = 0.0;
  for (size_t m = 0; m < m_count; ++m) {
    s += std::exp(ComponentLogDensity(state, m, y) - mx);
  }
  return mx + std::log(s);
}

void GmmEmission::LogProbRow(const double& y, double* out) const {
  for (size_t i = 0; i < num_states(); ++i) out[i] = StateLogProb(i, y);
}

double GmmEmission::Sample(size_t state, Rng& rng) const {
  DHMM_DCHECK(state < num_states());
  size_t m = rng.Categorical(weights_.row_data(state), weights_.cols());
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
  for (size_t i = 0; i < num_states(); ++i) {
    if (q[i] == 0.0) continue;
    // Component responsibilities within state i.
    double norm = StateLogProb(i, y);
    if (norm == kNegInf) continue;
    for (size_t m = 0; m < m_count; ++m) {
      double r = q[i] * std::exp(ComponentLogDensity(i, m, y) - norm);
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
  RefreshLogs();
}

std::unique_ptr<EmissionModel<double>> GmmEmission::Clone() const {
  return std::make_unique<GmmEmission>(*this);
}

}  // namespace dhmm::prob

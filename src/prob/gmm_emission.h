// Per-state Gaussian *mixture* emissions — the continuous-density HMM
// (CD-HMM) emission family the paper's related work builds on (Sha & Saul
// [43] model acoustic vectors with per-state GMMs). Each hidden state owns a
// mixture of M univariate Gaussians; the EM accumulation computes component
// responsibilities nested inside the state posteriors.
#ifndef DHMM_PROB_GMM_EMISSION_H_
#define DHMM_PROB_GMM_EMISSION_H_

#include <memory>

#include "prob/emission.h"

namespace dhmm::prob {

/// \brief Y | X=i ~ sum_m w_{i,m} Normal(mu_{i,m}, sigma_{i,m}^2).
class GmmEmission : public EmissionModel<double> {
 public:
  /// Constructs with explicit parameters: all matrices are k x M; rows of
  /// `weights` on the simplex, sigmas positive.
  GmmEmission(linalg::Matrix weights, linalg::Matrix mu, linalg::Matrix sigma,
              double sigma_floor = 1e-4);

  /// Random initialization: means spread over [mu_lo, mu_hi], uniform
  /// weights, moderate sigmas.
  static GmmEmission RandomInit(size_t k, size_t components, Rng& rng,
                                double mu_lo = 0.0, double mu_hi = 6.0);

  size_t num_states() const override { return weights_.rows(); }
  size_t num_components() const { return weights_.cols(); }

  void LogProbRow(const double& y, double* out) const override;
  double Sample(size_t state, Rng& rng) const override;

  void BeginAccumulate() override;
  void Accumulate(const double& y, const linalg::Vector& q) override;
  void FinishAccumulate() override;

  std::unique_ptr<EmissionModel<double>> Clone() const override;

  const linalg::Matrix& weights() const { return weights_; }
  const linalg::Matrix& mu() const { return mu_; }
  const linalg::Matrix& sigma() const { return sigma_; }
  /// M-step variance floor (binary store round-trips it).
  double sigma_floor() const { return sigma_floor_; }

 private:
  void RefreshLogs();
  /// log w + log N(y; mu, sigma) of component m of state i, -inf for a
  /// zero-weight component.
  double ComponentLogDensity(size_t state, size_t m, double y) const;
  /// log p(y | X = state): the log-sum-exp over the state's components.
  double StateLogProb(size_t state, double y) const;

  linalg::Matrix weights_;    // k x M, row-stochastic
  linalg::Matrix mu_;         // k x M
  linalg::Matrix sigma_;      // k x M, positive
  linalg::Matrix log_w_;      // k x M, log weights_ (-inf where zero)
  linalg::Matrix log_sigma_;  // k x M, log sigma_
  double sigma_floor_;
  // Sufficient statistics per (state, component): weight, sum y, sum y^2.
  linalg::Matrix acc_w_, acc_y_, acc_yy_;
};

}  // namespace dhmm::prob

#endif  // DHMM_PROB_GMM_EMISSION_H_

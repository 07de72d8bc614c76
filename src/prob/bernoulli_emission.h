// Per-state product-of-Bernoullis emissions over binary feature vectors
// (the OCR experiment, §4.2.2: 16x8 binary glyphs -> 128-dim vectors).
#ifndef DHMM_PROB_BERNOULLI_EMISSION_H_
#define DHMM_PROB_BERNOULLI_EMISSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "prob/emission.h"

namespace dhmm::prob {

/// Binary observation vector (one glyph image, flattened).
using BinaryObs = std::vector<uint8_t>;

/// \brief Y | X=i ~ prod_d Bernoulli(p_{i,d})  (naive-Bayes pixels).
///
/// Parameters are a k x D matrix of pixel-on probabilities, clamped to
/// [p_floor, 1 - p_floor] so single contradicting pixels cannot veto a state.
/// The log terms are kept pixel-major: a frame's emission row adds one
/// contiguous k-row per pixel, picked by the pixel's value. An observation
/// whose length is not D has probability 0 under every state.
class BernoulliEmission : public EmissionModel<BinaryObs> {
 public:
  /// Constructs from a k x D probability matrix (entries in [0, 1]).
  explicit BernoulliEmission(linalg::Matrix p, double p_floor = 1e-3);

  /// Random initialization with probabilities uniform in [0.25, 0.75].
  static BernoulliEmission RandomInit(size_t k, size_t dims, Rng& rng,
                                      double p_floor = 1e-3);

  size_t num_states() const override { return p_.rows(); }
  size_t dims() const { return p_.cols(); }

  void LogProbRow(const BinaryObs& y, double* out) const override;
  BinaryObs Sample(size_t state, Rng& rng) const override;

  void BeginAccumulate() override;
  void Accumulate(const BinaryObs& y, const linalg::Vector& q) override;
  void FinishAccumulate() override;

  std::unique_ptr<EmissionModel<BinaryObs>> Clone() const override;

  /// Pixel-on probability table (k x D).
  const linalg::Matrix& p() const { return p_; }
  /// M-step probability floor (binary store round-trips it).
  double p_floor() const { return p_floor_; }

 private:
  void Clamp();
  void RebuildLogTerms();

  linalg::Matrix p_;
  // 2D x k: row 2d is log(1 - p_{., d}), row 2d + 1 is log p_{., d}.
  linalg::Matrix log_terms_;
  double p_floor_;
  linalg::Matrix acc_on_;    // expected on-counts, k x D
  linalg::Vector acc_w_;     // expected total weight per state
};

}  // namespace dhmm::prob

#endif  // DHMM_PROB_BERNOULLI_EMISSION_H_

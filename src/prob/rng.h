// Deterministic pseudo-random number generation and samplers.
//
// A self-contained xoshiro256++ generator plus the samplers the paper's
// experiments need (uniform, Gaussian, gamma, Dirichlet, categorical). Using
// our own generator keeps every experiment bit-reproducible across platforms
// and standard libraries.
#ifndef DHMM_PROB_RNG_H_
#define DHMM_PROB_RNG_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace dhmm::prob {

/// \brief xoshiro256++ PRNG with distribution samplers.
class Rng {
 public:
  /// Seeds via splitmix64 expansion of the given seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box–Muller (cached second value).
  double Gaussian();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double Gaussian(double mean, double sigma);

  /// Gamma(shape, scale=1) via Marsaglia–Tsang; shape > 0.
  double Gamma(double shape);

  /// Gamma with shape and scale.
  double Gamma(double shape, double scale);

  /// Dirichlet draw with per-component concentrations.
  linalg::Vector Dirichlet(const linalg::Vector& alpha);

  /// Symmetric Dirichlet Dir(concentration, ..., concentration) of size n.
  linalg::Vector DirichletSymmetric(size_t n, double concentration);

  /// Categorical draw from (possibly unnormalized, non-negative) weights.
  size_t Categorical(const linalg::Vector& weights);

  /// Categorical draw from weights w[0..n), read in place (e.g. a matrix
  /// row); the same draw as the Vector form on equal weights.
  size_t Categorical(const double* w, size_t n);

  /// Weights per running-sum checkpoint of a checkpointed categorical draw.
  static constexpr size_t kCategoricalStride = 64;

  /// Checkpoints over n weights: one per kCategoricalStride, rounded up.
  static constexpr size_t CategoricalCheckpointCount(size_t n) {
    return (n + kCategoricalStride - 1) / kCategoricalStride;
  }

  /// Writes the running sums of w[0..n) at every kCategoricalStride-th
  /// weight and at the last one, CategoricalCheckpointCount(n) of them: the
  /// sums the scan of Categorical(w, n) reaches, from 0.0 in ascending order.
  static void BuildCategoricalCheckpoints(const double* w, size_t n,
                                          double* checkpoints);

  /// Categorical(w, n) by indexed search: a binary search over the
  /// checkpoints built from w, then a scan of at most kCategoricalStride
  /// weights. The same draw and the same generator state as the scan.
  size_t Categorical(const double* w, size_t n, const double* checkpoints);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Row-stochastic matrix with rows drawn Dir(concentration,...).
  linalg::Matrix RandomStochasticMatrix(size_t rows, size_t cols,
                                        double concentration);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace dhmm::prob

#endif  // DHMM_PROB_RNG_H_

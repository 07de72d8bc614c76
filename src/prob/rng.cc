#include "prob/rng.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dhmm::prob {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// The inversion loop of every categorical draw: adds w[begin..end) to acc in
// ascending order and returns the first index whose running sum exceeds u,
// or end when none does.
size_t FirstSumAbove(const double* w, size_t begin, size_t end, double acc,
                     double u) {
  for (size_t i = begin; i < end; ++i) {
    acc += w[i];
    if (u < acc) return i;
  }
  return end;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // Avoid the all-zero state (cannot occur via splitmix64, but be safe).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> [0,1) double.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  DHMM_CHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return v % n;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double sigma) {
  DHMM_CHECK(sigma >= 0.0);
  return mean + sigma * Gaussian();
}

double Rng::Gamma(double shape) {
  DHMM_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    double u;
    do {
      u = Uniform();
    } while (u <= 0.0);
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = Gaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    double u = Uniform();
    if (u < 1.0 - 0.0331 * (x * x) * (x * x)) return d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Gamma(double shape, double scale) {
  DHMM_CHECK(scale > 0.0);
  return Gamma(shape) * scale;
}

linalg::Vector Rng::Dirichlet(const linalg::Vector& alpha) {
  DHMM_CHECK(!alpha.empty());
  linalg::Vector v(alpha.size());
  double total = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    v[i] = Gamma(alpha[i]);
    total += v[i];
  }
  if (total <= 0.0) {
    // Pathologically tiny draws; fall back to uniform.
    for (size_t i = 0; i < v.size(); ++i) v[i] = 1.0 / v.size();
    return v;
  }
  for (size_t i = 0; i < v.size(); ++i) v[i] /= total;
  return v;
}

linalg::Vector Rng::DirichletSymmetric(size_t n, double concentration) {
  return Dirichlet(linalg::Vector(n, concentration));
}

size_t Rng::Categorical(const linalg::Vector& weights) {
  return Categorical(weights.data(), weights.size());
}

size_t Rng::Categorical(const double* w, size_t n) {
  DHMM_CHECK(n > 0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    DHMM_DCHECK(w[i] >= 0.0);
    total += w[i];
  }
  DHMM_CHECK_MSG(total > 0.0, "categorical weights must have positive mass");
  const double u = Uniform() * total;
  // No sum exceeds u on the numerical edge u == total: n - 1.
  return std::min(FirstSumAbove(w, 0, n, 0.0, u), n - 1);
}

void Rng::BuildCategoricalCheckpoints(const double* w, size_t n,
                                      double* checkpoints) {
  double acc = 0.0;
  for (size_t begin = 0; begin < n; begin += kCategoricalStride) {
    const size_t end = std::min(begin + kCategoricalStride, n);
    for (size_t i = begin; i < end; ++i) {
      DHMM_DCHECK(w[i] >= 0.0);
      acc += w[i];
    }
    *checkpoints++ = acc;
  }
}

size_t Rng::Categorical(const double* w, size_t n, const double* checkpoints) {
  DHMM_CHECK(n > 0);
  const size_t count = CategoricalCheckpointCount(n);
  const double total = checkpoints[count - 1];
  DHMM_CHECK_MSG(total > 0.0, "categorical weights must have positive mass");
  const double u = Uniform() * total;
  // Running sums never decrease, so the scan's first sum above u lies in the
  // first block whose checkpoint exceeds u. The in-block scan restarts from
  // the previous checkpoint, the scan's own sum there, and reaches the
  // block's checkpoint at its last weight, so it stops inside the block.
  const size_t block =
      std::upper_bound(checkpoints, checkpoints + count, u) - checkpoints;
  if (block == count) return n - 1;  // the scan's u == total edge
  const size_t begin = block * kCategoricalStride;
  const size_t end = std::min(begin + kCategoricalStride, n);
  const double acc = block > 0 ? checkpoints[block - 1] : 0.0;
  return FirstSumAbove(w, begin, end, acc, u);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = UniformInt(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

linalg::Matrix Rng::RandomStochasticMatrix(size_t rows, size_t cols,
                                           double concentration) {
  linalg::Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    m.SetRow(r, DirichletSymmetric(cols, concentration));
  }
  return m;
}

}  // namespace dhmm::prob

// Per-state categorical (multinomial) emissions over a discrete vocabulary
// (the PoS-tagging experiment, §4.2.1).
#ifndef DHMM_PROB_CATEGORICAL_EMISSION_H_
#define DHMM_PROB_CATEGORICAL_EMISSION_H_

#include <memory>

#include "prob/emission.h"

namespace dhmm::prob {

/// \brief Y | X=i ~ Categorical(b_i) over symbols {0, ..., V-1}.
///
/// Parameters are a k x V row-stochastic matrix B. The EM update is the
/// normalized expected symbol count (paper's multinomial M-step), with an
/// optional Laplace pseudo-count to keep unseen symbols finite-likelihood.
/// The log table and the expected counts are kept symbol-major (V x k), so
/// a frame's emission row is one contiguous k-read and its accumulation
/// one contiguous k-add. A symbol outside [0, V) has probability 0 under
/// every state. `Sample` draws by indexed search over each row's running-sum
/// checkpoints (`Rng::BuildCategoricalCheckpoints`, k * ceil(V / 64)
/// doubles), the same draws as `Rng::Categorical` over the row; they are
/// rebuilt with the log table and never stored.
class CategoricalEmission : public EmissionModel<int> {
 public:
  /// Constructs from a row-stochastic k x V matrix.
  explicit CategoricalEmission(linalg::Matrix b, double pseudo_count = 0.0);

  /// Random initialization: rows drawn from a symmetric Dirichlet.
  static CategoricalEmission RandomInit(size_t k, size_t vocab, Rng& rng,
                                        double concentration = 1.0,
                                        double pseudo_count = 0.0);

  size_t num_states() const override { return b_.rows(); }
  size_t vocab_size() const { return b_.cols(); }

  void LogProbRow(const int& y, double* out) const override;
  int Sample(size_t state, Rng& rng) const override;

  void BeginAccumulate() override;
  void Accumulate(const int& y, const linalg::Vector& q) override;
  void FinishAccumulate() override;

  std::unique_ptr<EmissionModel<int>> Clone() const override;

  /// The k x V probability table.
  const linalg::Matrix& b() const { return b_; }
  /// Additive smoothing used by the M-step (binary store round-trips it).
  double pseudo_count() const { return pseudo_count_; }

 private:
  void RebuildTables();

  linalg::Matrix b_;       // probabilities, k x V
  linalg::Matrix log_bt_;  // log b_, symbol-major: V x k
  linalg::Matrix sums_;    // sampling checkpoints of b_ rows: k x ceil(V/64)
  double pseudo_count_;
  linalg::Matrix acc_;     // expected counts, symbol-major: V x k
};

}  // namespace dhmm::prob

#endif  // DHMM_PROB_CATEGORICAL_EMISSION_H_

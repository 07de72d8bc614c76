// Emission-model interface shared by the HMM and dHMM trainers.
//
// Inference code (forward-backward, Viterbi) is observation-type-agnostic:
// it consumes only per-frame log-probability tables. EmissionModel<Obs>
// bridges typed observations to those tables and accumulates expected
// sufficient statistics for the EM M-step.
#ifndef DHMM_PROB_EMISSION_H_
#define DHMM_PROB_EMISSION_H_

#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "prob/rng.h"

namespace dhmm::prob {

/// \brief Per-state emission distribution with EM sufficient statistics.
///
/// Lifecycle during one EM iteration:
///   BeginAccumulate();
///   for every frame y_t:  Accumulate(y_t, q(X_t = .));
///   FinishAccumulate();   // replaces parameters by the M-step update
template <typename Obs>
class EmissionModel {
 public:
  virtual ~EmissionModel() = default;

  /// Number of hidden states k.
  virtual size_t num_states() const = 0;

  /// Writes the emission row: out[i] = log p(y | X = i) for all
  /// num_states() states. Every inference path reads emissions through
  /// this call, one frame at a time, from concurrent threads on one const
  /// model: it must not touch mutable state. Families fold what depends
  /// only on the parameters into per-state constants, refreshed by the
  /// constructor and FinishAccumulate. An observation outside the
  /// family's domain (an out-of-vocabulary symbol, a vector of the wrong
  /// length) yields a row of -inf, which the recursions answer as an
  /// impossible frame.
  virtual void LogProbRow(const Obs& y, double* out) const = 0;

  /// Draws an observation from state's emission distribution.
  virtual Obs Sample(size_t state, Rng& rng) const = 0;

  /// Resets the EM sufficient statistics.
  virtual void BeginAccumulate() = 0;

  /// Adds one frame with posterior state weights q (size k, entries >= 0).
  virtual void Accumulate(const Obs& y, const linalg::Vector& q) = 0;

  /// Replaces the parameters with the M-step update of the accumulated stats.
  virtual void FinishAccumulate() = 0;

  /// Deep copy.
  virtual std::unique_ptr<EmissionModel<Obs>> Clone() const = 0;

  /// Fills a T x k table of log p(y_t | X_t = i) for a whole sequence.
  linalg::Matrix LogProbTable(const std::vector<Obs>& seq) const {
    linalg::Matrix table;
    LogProbTableInto(seq, &table);
    return table;
  }

  /// Allocation-free variant: resizes *table to T x k (reusing its storage
  /// when possible) and writes row t with one LogProbRow call. This is the
  /// hot-path entry point used by the batched EM engine's per-thread
  /// workspaces.
  void LogProbTableInto(const std::vector<Obs>& seq,
                        linalg::Matrix* table) const {
    table->Resize(seq.size(), num_states());
    for (size_t t = 0; t < seq.size(); ++t) {
      LogProbRow(seq[t], table->row_data(t));
    }
  }
};

}  // namespace dhmm::prob

#endif  // DHMM_PROB_EMISSION_H_

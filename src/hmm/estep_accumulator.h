// The one E-step sufficient-statistics accumulator shared by batch and
// online (stepwise) EM.
//
// Factored out of BatchEmEngine so that both ways of gathering posteriors
// — a full-dataset batch E-step, or live fixed-lag posteriors streaming
// out of serve::SessionManager — land in the same accumulator type and
// drive the same M-step. An accumulator is
// a plain bag of grow-only buffers: Reset(k) re-zeros it in place, every
// Add* entry point is allocation-free after the first Reset at a given k,
// and addition order is the caller's responsibility (the batch engine adds
// sequences in ascending index order, which is what makes its fits
// bitwise thread-count-invariant).
//
// Emission sufficient statistics deliberately do NOT live here: the
// emission families accumulate internally between BeginAccumulate() /
// FinishAccumulate() (prob/emission.h). The caller brackets one EM round
// with that pair and passes the emission model into AddSequence /
// AddStreamFrame, so batch EM (one bracket per iteration) and stream EM
// (one bracket spanning many Accumulate calls) share the code path.
#ifndef DHMM_HMM_ESTEP_ACCUMULATOR_H_
#define DHMM_HMM_ESTEP_ACCUMULATOR_H_

#include <cstdint>
#include <cstring>

#include "hmm/inference.h"
#include "hmm/sequence.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "prob/emission.h"

namespace dhmm::hmm {

/// \brief Sufficient statistics of an E-step in progress (or completed).
///
/// Also the return type of BatchEmEngine::EStep under its historical name
/// EStepStats — one full-data batch is just an accumulator that saw every
/// sequence exactly once.
struct EStepAccumulator {
  linalg::Vector pi_acc;     ///< k — summed gamma(0, .) over sequences
  linalg::Matrix trans_acc;  ///< k x k — summed xi over sequences
  double log_likelihood = 0.0;  ///< total log-likelihood of batch adds
  uint64_t frames = 0;          ///< frames accumulated since Reset
  uint64_t sequences = 0;       ///< sequences (or streams) started

  /// Re-zeros in place for state count k. Grow-only: no heap allocation
  /// once the high-water k has been reached.
  void Reset(size_t k) {
    pi_acc.Resize(k);
    double* pi = pi_acc.data();
    for (size_t i = 0; i < k; ++i) pi[i] = 0.0;
    trans_acc.Resize(k, k);
    trans_acc.Fill(0.0);
    log_likelihood = 0.0;
    frames = 0;
    sequences = 0;
  }

  /// \brief Adds one sequence's exact forward-backward statistics — the
  /// reduction step of the batch engine, verbatim: log-likelihood, then
  /// gamma(0, .), then xi_sum, then per-frame emission posteriors in frame
  /// order. `qrow` is caller-owned scratch (the engine shares one across
  /// sequences) so this stays allocation-free.
  template <typename Obs>
  void AddSequence(const ForwardBackwardResult& fb, const Sequence<Obs>& seq,
                   prob::EmissionModel<Obs>* emission_acc,
                   linalg::Vector* qrow) {
    const size_t k = pi_acc.size();
    log_likelihood += fb.log_likelihood;
    for (size_t i = 0; i < k; ++i) pi_acc[i] += fb.gamma(0, i);
    trans_acc += fb.xi_sum;
    if (emission_acc != nullptr) {
      for (size_t t = 0; t < seq.length(); ++t) {
        std::memcpy(qrow->data(), fb.gamma.row_data(t), k * sizeof(double));
        emission_acc->Accumulate(seq.obs[t], *qrow);
      }
    }
    frames += seq.length();
    ++sequences;
  }

  /// \brief Checkpointed-sweep counterpart of AddSequence: the chain
  /// statistics arrive as scalars and rows (the T x k gamma never exists)
  /// but land in the same per-sequence order — log-likelihood, then
  /// gamma(0, .), then xi_sum — so batches mixing checkpointed and full
  /// sequences keep the bitwise-stable reduction. The per-frame emission
  /// feed happens inside the sweep's ascending replay
  /// (BatchEmEngine::AddCheckpointed); emission statistics live in a
  /// separate accumulator, so that interleaving is bitwise-neutral.
  void AddSequenceStats(double seq_log_likelihood, const double* gamma0,
                        const linalg::Matrix& xi_sum, uint64_t seq_frames) {
    const size_t k = pi_acc.size();
    log_likelihood += seq_log_likelihood;
    for (size_t i = 0; i < k; ++i) pi_acc[i] += gamma0[i];
    trans_acc += xi_sum;
    frames += seq_frames;
    ++sequences;
  }

  /// \brief Adds one live-stream frame's smoothed posterior gamma (length
  /// k, normalized — serve/stream_math.h leaves exactly this in its gamma
  /// scratch row). Pi statistics accumulate only from each stream's first
  /// frame, mirroring gamma(0, .) in the batch path. The caller feeds the
  /// same gamma to the emission model itself (it needs the raw
  /// observation, which this layer never sees).
  void AddStreamFrame(const double* gamma, bool first_frame) {
    const size_t k = pi_acc.size();
    if (first_frame) {
      for (size_t i = 0; i < k; ++i) pi_acc[i] += gamma[i];
      ++sequences;
    }
    ++frames;
  }

  /// \brief Adds one fixed-lag transition posterior. `alpha` is the scaled
  /// forward message at the emitted frame f, `frame_u` the hoisted
  /// backward product btilde(f+1) * beta_hat(f+1) / c(f+1) left behind by
  /// the smoothing sweep (serve/stream_math.h): the unnormalized xi is
  /// w(i, j) = alpha(i) a(i, j) frame_u(j), normalized here to sum to one
  /// like every offline xi_t slice. A vanished mass is skipped — the
  /// stream layer already poisons such frames.
  void AddStreamTransition(const double* alpha, const linalg::Matrix& a,
                           const double* frame_u) {
    const size_t k = pi_acc.size();
    double total = 0.0;
    for (size_t i = 0; i < k; ++i) {
      const double* a_row = a.row_data(i);
      double row_sum = 0.0;
      for (size_t j = 0; j < k; ++j) row_sum += a_row[j] * frame_u[j];
      total += alpha[i] * row_sum;
    }
    if (!(total > 0.0)) return;
    const double inv = 1.0 / total;
    for (size_t i = 0; i < k; ++i) {
      const double* a_row = a.row_data(i);
      double* acc_row = trans_acc.row_data(i);
      const double w = alpha[i] * inv;
      for (size_t j = 0; j < k; ++j) acc_row[j] += w * a_row[j] * frame_u[j];
    }
  }
};

/// Historical name for one completed full-data E-step.
using EStepStats = EStepAccumulator;

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_ESTEP_ACCUMULATOR_H_

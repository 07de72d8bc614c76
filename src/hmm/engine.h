// The batched inference engine: data-parallel, allocation-free E-steps.
//
// One BatchEmEngine owns a persistent worker pool plus one InferenceWorkspace
// per worker and a per-sequence result slot per dataset entry. Sequences fan
// out across the pool dynamically (long sequences self-balance), every
// per-sequence statistic lands in its own slot, and all reductions —
// pi_acc, trans_acc, and emission sufficient statistics — run on the calling
// thread in ascending sequence order. That fixed reduction order makes the
// engine's output bitwise-identical for every thread count, including the
// inline single-threaded path, which tests/engine_test.cc pins.
//
// After the first pass over a dataset the engine performs no heap
// allocations: workspaces and result slots are Resize()d in place and only
// grow (see linalg::Matrix::Resize).
#ifndef DHMM_HMM_ENGINE_H_
#define DHMM_HMM_ENGINE_H_

#include <cstring>
#include <utility>
#include <vector>

#include "hmm/emission_rows.h"
#include "hmm/estep_accumulator.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/sequence.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace dhmm::hmm {

/// Options for the batched engine.
struct BatchOptions {
  /// Worker threads for the E-step / decode fan-out, including the calling
  /// thread. 1 runs inline; <= 0 selects std::thread::hardware_concurrency().
  /// Results are identical for every value.
  int num_threads = 1;

  /// Sequences at least this many frames long run the forward-backward
  /// sweep (hmm/inference.h) with ceil(sqrt(T))-frame panels, streaming
  /// gamma into the accumulators: O(sqrt(T) * k) workspace instead of
  /// O(T * k), bitwise-identical statistics, ~2.5x the frame work. Shorter
  /// sequences run it with one panel. 0 keeps one panel for every length.
  size_t checkpoint_threshold_frames = kDefaultCheckpointThresholdFrames;
};

/// \brief Reusable batched driver for E-steps, likelihoods, and decodes.
///
/// Thread-compatible, not thread-safe: one engine serves one training loop.
template <typename Obs>
class BatchEmEngine {
 public:
  explicit BatchEmEngine(const BatchOptions& options = {})
      : pool_(options.num_threads),
        workspaces_(static_cast<size_t>(pool_.num_threads())),
        checkpoint_threshold_frames_(options.checkpoint_threshold_frames) {}

  /// Resolved thread count (after the <= 0 -> hardware mapping).
  int num_threads() const { return pool_.num_threads(); }

  /// Sequence length at which the checkpointed sweep engages (0 = never).
  size_t checkpoint_threshold_frames() const {
    return checkpoint_threshold_frames_;
  }

  /// \brief Runs one exact E-step (scaled forward-backward per sequence).
  ///
  /// When `emission_acc` is non-null the engine calls BeginAccumulate() and
  /// feeds every frame's posterior into it in (sequence, frame) order; the
  /// caller runs FinishAccumulate() as part of its M-step. The model's
  /// LogProbRow must be const-thread-safe: workers evaluate rows of one
  /// const model concurrently (all in-tree emission families are: their
  /// per-state constants are read-only between M-steps).
  EStepStats EStep(const HmmModel<Obs>& model, const Dataset<Obs>& data,
                   prob::EmissionModel<Obs>* emission_acc = nullptr) {
    EStepStats stats;
    stats.Reset(model.num_states());
    if (emission_acc != nullptr) emission_acc->BeginAccumulate();
    AccumulateEStep(model, data, &stats, emission_acc);
    return stats;
  }

  /// \brief The stepwise / mini-batch entry point: one exact E-step over
  /// `data` *added into* an existing accumulator. Does not Reset the
  /// accumulator and does not bracket the emission model — the caller owns
  /// the EM round (Reset + BeginAccumulate once, then any number of
  /// mini-batches, then the M-step + FinishAccumulate). EStep above is
  /// exactly one such round over one batch, so mini-batch EM whose batches
  /// tile the dataset in order reproduces batch EM bitwise
  /// (tests/session_test.cc pins this through core::IncrementalEmTrainer).
  void AccumulateEStep(const HmmModel<Obs>& model, const Dataset<Obs>& data,
                       EStepAccumulator* acc,
                       prob::EmissionModel<Obs>* emission_acc = nullptr) {
    per_seq_.resize(data.size());
    // Each worker's workspace carries a TransitionCache: the first sequence a
    // worker sees after an M-step rebuilds A^T once, every later sequence
    // revalidates with a k*k memcmp and reuses it. Sequences long enough
    // for the checkpointed sweep are skipped here and handled inline by
    // the reduction below: their gamma rows stream straight into the
    // accumulators, so there is no per-sequence result slot to fan out.
    pool_.ParallelFor(data.size(), [&](int worker, size_t s) {
      InferenceWorkspace& ws = workspaces_[static_cast<size_t>(worker)];
      const Sequence<Obs>& seq = data[s];
      DHMM_CHECK_MSG(seq.length() > 0, "dataset contains an empty sequence");
      if (Checkpointed(seq.length())) return;
      model.emission->LogProbTableInto(seq.obs, &ws.log_b);
      const Status st =
          TryForwardBackward(model.pi, model.a, ws.log_b, &ws, &per_seq_[s]);
      DHMM_CHECK_MSG(st.ok(), st.message().c_str());
    });

    qrow_.Resize(model.num_states());
    for (size_t s = 0; s < data.size(); ++s) {
      if (Checkpointed(data[s].length())) {
        AddCheckpointed(model, data[s], acc, emission_acc);
      } else {
        acc->AddSequence(per_seq_[s], data[s], emission_acc, &qrow_);
      }
    }
  }

  /// \brief Total dataset log-likelihood (forward passes fan out; the sum
  /// runs in sequence order, so it too is thread-count-invariant). Each
  /// forward pass reads one emission row at a time: O(k) workspace at every
  /// length, the same bits as a pass over the T x k table.
  double LogLikelihood(const HmmModel<Obs>& model, const Dataset<Obs>& data) {
    seq_loglik_.resize(data.size());
    pool_.ParallelFor(data.size(), [&](int worker, size_t s) {
      InferenceWorkspace& ws = workspaces_[static_cast<size_t>(worker)];
      EmissionLogBRows<Obs> rows{model.emission.get(), &data[s].obs,
                                 &ws.log_b_row};
      const Status st = TryLogLikelihoodRows(model.pi, model.a, rows.View(),
                                             &ws, &seq_loglik_[s]);
      DHMM_CHECK_MSG(st.ok(), st.message().c_str());
    });
    double total = 0.0;
    for (double ll : seq_loglik_) total += ll;
    return total;
  }

  /// \brief Viterbi-decodes every sequence across the pool.
  std::vector<std::vector<int>> Decode(const HmmModel<Obs>& model,
                                       const Dataset<Obs>& data) {
    std::vector<std::vector<int>> paths(data.size());
    pool_.ParallelFor(data.size(), [&](int worker, size_t s) {
      InferenceWorkspace& ws = workspaces_[static_cast<size_t>(worker)];
      model.emission->LogProbTableInto(data[s].obs, &ws.log_b);
      ViterbiResult res;
      const Status st = TryViterbi(model.pi, model.a, ws.log_b, &ws, &res);
      DHMM_CHECK_MSG(st.ok(), st.message().c_str());
      paths[s] = std::move(res.path);
    });
    return paths;
  }

 private:
  bool Checkpointed(size_t frames) const {
    return checkpoint_threshold_frames_ != 0 &&
           frames >= checkpoint_threshold_frames_;
  }

  // One long sequence's E-step via the checkpointed sweep, inline on the
  // reduction thread. The sweep's descending pass captures gamma(0, .) and
  // xi; its ascending replay feeds the emission accumulator in frame order
  // — the exact order AddSequence uses — so checkpointed fits are bitwise
  // equal to full-path fits and trivially thread-count-invariant.
  void AddCheckpointed(const HmmModel<Obs>& model, const Sequence<Obs>& seq,
                       EStepAccumulator* acc,
                       prob::EmissionModel<Obs>* emission_acc) {
    const size_t k = model.num_states();
    InferenceWorkspace& ws = workspaces_[0];
    EmissionLogBRows<Obs> rows{model.emission.get(), &seq.obs,
                               &ws.log_b_row};
    cp_gamma0_.Resize(k);
    struct DescCtx {
      double* gamma0;
      size_t k;
    } desc{cp_gamma0_.data(), k};
    CheckpointedGammaSinks sinks;
    sinks.on_gamma = [](void* c, size_t t, const double* gamma_row) {
      auto* d = static_cast<DescCtx*>(c);
      if (t == 0) std::memcpy(d->gamma0, gamma_row, d->k * sizeof(double));
    };
    sinks.gamma_ctx = &desc;
    struct AscCtx {
      prob::EmissionModel<Obs>* em;
      const std::vector<Obs>* obs;
      linalg::Vector* qrow;
      size_t k;
    } asc{emission_acc, &seq.obs, &qrow_, k};
    if (emission_acc != nullptr) {
      sinks.on_gamma_ascending = [](void* c, size_t t,
                                    const double* gamma_row) {
        auto* a = static_cast<AscCtx*>(c);
        std::memcpy(a->qrow->data(), gamma_row, a->k * sizeof(double));
        a->em->Accumulate((*a->obs)[t], *a->qrow);
      };
      sinks.ascending_ctx = &asc;
    }
    double loglik = 0.0;
    Status st = TryForwardBackwardCheckpointed(model.pi, model.a,
                                               rows.View(),
                                               /*panel_frames=*/0, &ws,
                                               sinks, &cp_xi_, &loglik);
    DHMM_CHECK_MSG(st.ok(), st.message().c_str());
    acc->AddSequenceStats(loglik, cp_gamma0_.data(), cp_xi_, seq.length());
  }

  util::ThreadPool pool_;
  std::vector<InferenceWorkspace> workspaces_;      // one per worker
  std::vector<ForwardBackwardResult> per_seq_;      // one slot per sequence
  std::vector<double> seq_loglik_;
  linalg::Vector qrow_;  // scratch posterior row for emission accumulation
  linalg::Vector cp_gamma0_;  // gamma(0, .) capture for checkpointed seqs
  linalg::Matrix cp_xi_;      // xi capture for checkpointed sequences
  size_t checkpoint_threshold_frames_ = kDefaultCheckpointThresholdFrames;
};

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_ENGINE_H_

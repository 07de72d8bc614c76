// Incremental (stepwise / mini-batch) EM for the diversified HMM: the
// train side of the train→serve loop.
//
// An IncrementalEmTrainer owns a mutable working model plus one
// hmm::EStepAccumulator. Posteriors flow in from two directions —
// AccumulateBatch() runs exact mini-batch E-steps on the batched engine,
// and the AccumulateStream* entry points ingest live fixed-lag posteriors
// straight out of serve::SessionManager — and Step() turns whatever has
// accumulated into one M-step: hmm::MStep, the one hmm::FitEm runs, with
// the paper's DPP-diversified transition update through the persistent
// core::TransitionUpdateWorkspace when alpha > 0 (alpha = 0 keeps the
// maximum-likelihood row normalization of hmm::FitEm). Each Step()
// publishes a fresh immutable snapshot for RCU hot-swap into
// serve::DecodeService / serve::ModelRegistry / serve::SessionManager —
// the paper's diversified training running continuously instead of
// offline.
//
// Contract (tests/session_test.cc): one AccumulateBatch over the full
// dataset followed by Step() reproduces one hmm::FitEm iteration
// **bitwise** — same accumulator type, same reduction order, same M-step
// function — for both the ML and the DPP-diversified transition update,
// and for every engine thread count. N such rounds reproduce N FitEm
// iterations.
//
// Thread-safe: stream accumulation arrives from many pusher threads; all
// entry points serialize on one internal mutex. Steady-state stream
// accumulation is allocation-free (scratch is grow-only).
#ifndef DHMM_CORE_INCREMENTAL_EM_H_
#define DHMM_CORE_INCREMENTAL_EM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "core/dhmm_trainer.h"
#include "core/transition_update.h"
#include "hmm/engine.h"
#include "hmm/estep_accumulator.h"
#include "hmm/model.h"
#include "hmm/sequence.h"
#include "hmm/trainer.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/status.h"

namespace dhmm::core {

/// Options for the incremental trainer. Validate()-checked POD, like the
/// serve options structs.
struct IncrementalEmOptions {
  /// Diversity weight (paper's alpha). 0 selects the exact Baum-Welch
  /// maximum-likelihood transition update of hmm::FitEm; > 0 runs the
  /// Algorithm-1 projected-gradient MAP update each Step().
  double alpha = 0.0;
  /// Product-kernel exponent (paper fixes 0.5).
  double rho = 0.5;
  /// Inner Algorithm-1 controls for the diversified transition update.
  optim::ProjectedGradientOptions ascent;
  /// Floor applied to transition rows after projection.
  double row_floor = 1e-10;
  bool update_pi = true;
  bool update_transitions = true;
  bool update_emission = true;
  /// E-step worker threads for AccumulateBatch (any value produces
  /// bitwise-identical statistics; purely a throughput knob).
  int num_threads = 1;
  /// Sequence length at which AccumulateBatch switches to the checkpointed
  /// forward-backward (see hmm::BatchOptions). 0 disables.
  size_t checkpoint_threshold_frames = hmm::kDefaultCheckpointThresholdFrames;

  Status Validate() const {
    if (!(alpha >= 0.0)) {
      return Status::InvalidArgument(
          "IncrementalEmOptions::alpha must be >= 0");
    }
    if (!(rho > 0.0)) {
      return Status::InvalidArgument(
          "IncrementalEmOptions::rho must be > 0");
    }
    if (!(row_floor >= 0.0)) {
      return Status::InvalidArgument(
          "IncrementalEmOptions::row_floor must be >= 0");
    }
    return Status::OK();
  }
};

/// \brief Stepwise EM driver: accumulate posteriors, Step(), hot-swap.
template <typename Obs>
class IncrementalEmTrainer {
 public:
  explicit IncrementalEmTrainer(
      std::shared_ptr<const hmm::HmmModel<Obs>> init,
      const IncrementalEmOptions& options = {})
      : options_(options),
        engine_(hmm::BatchOptions{options.num_threads,
                                  options.checkpoint_threshold_frames}),
        snapshot_(std::move(init)),
        model_(*snapshot_) {
    const Status opt_st = options.Validate();
    DHMM_CHECK_MSG(opt_st.ok(), opt_st.message().c_str());
    model_.Validate();
    m_step_.update_pi = options_.update_pi;
    m_step_.update_transitions = options_.update_transitions;
    m_step_.update_emission = options_.update_emission;
    if (options_.alpha > 0.0) {
      m_step_.transition_m_step = std::ref(diversified_);
    }
    acc_.Reset(model_.num_states());
    qrow_.Resize(model_.num_states());
    obs::Registry& reg = obs::Registry::Global();
    m_steps_ = reg.GetCounter("trainer.steps");
    m_snapshots_ = reg.GetCounter("trainer.snapshots_published");
    g_last_loglik_ = reg.GetGauge("trainer.last_round_loglik");
  }

  IncrementalEmTrainer(const IncrementalEmTrainer&) = delete;
  IncrementalEmTrainer& operator=(const IncrementalEmTrainer&) = delete;

  /// \brief One exact E-step over `batch`, added into the open round.
  /// Feeding the full dataset as one batch makes the following Step() a
  /// bitwise hmm::FitEm iteration; tiling it across calls is mini-batch EM
  /// with identical statistics.
  void AccumulateBatch(const hmm::Dataset<Obs>& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    OpenRoundLocked();
    engine_.AccumulateEStep(
        model_, batch, &acc_,
        options_.update_emission ? model_.emission.get() : nullptr);
  }

  /// \brief Ingests one live-stream frame: smoothed posterior `gamma`
  /// (length k, normalized — what serve/stream_math.h leaves in its gamma
  /// row) plus the raw observation for the emission statistics.
  /// Allocation-free at steady state.
  void AccumulateStreamFrame(const Obs& y, const double* gamma, size_t k,
                             bool first_frame) {
    std::lock_guard<std::mutex> lock(mu_);
    DHMM_DCHECK(k == model_.num_states());
    OpenRoundLocked();
    acc_.AddStreamFrame(gamma, first_frame);
    if (options_.update_emission) {
      double* q = qrow_.data();
      for (size_t i = 0; i < k; ++i) q[i] = gamma[i];
      model_.emission->Accumulate(y, qrow_);
    }
  }

  /// \brief Ingests one fixed-lag transition posterior: `alpha` is the
  /// scaled forward message at the emitted frame under the *serving*
  /// model whose transition matrix is `a`, and `frame_u` the hoisted
  /// backward product the smoothing sweep left behind (see
  /// hmm::EStepAccumulator::AddStreamTransition).
  void AccumulateStreamTransition(const double* alpha,
                                  const linalg::Matrix& a,
                                  const double* frame_u) {
    std::lock_guard<std::mutex> lock(mu_);
    DHMM_DCHECK(a.rows() == model_.num_states());
    OpenRoundLocked();
    acc_.AddStreamTransition(alpha, a, frame_u);
  }

  /// Frames accumulated in the open round.
  uint64_t frames_accumulated() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acc_.frames;
  }

  /// M-steps performed so far.
  uint64_t steps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return steps_;
  }

  /// Log-likelihood summed over the batch E-steps of the open round —
  /// the same quantity FitEm records per iteration (stream frames do not
  /// contribute; their likelihood lives on their sessions).
  double round_log_likelihood() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acc_.log_likelihood;
  }

  /// \brief Runs one M-step over everything accumulated since the last
  /// Step and publishes the resulting immutable snapshot (RCU: hand it to
  /// DecodeService::UpdateModel / ModelRegistry::UpdateModel /
  /// SessionManager::UpdateModel). A Step with zero accumulated frames is
  /// a no-op returning the current snapshot.
  std::shared_ptr<const hmm::HmmModel<Obs>> Step() {
    std::lock_guard<std::mutex> lock(mu_);
    if (acc_.frames == 0) return snapshot_;
    // FitEm's own M-step. Its guards keep what a round never touched: a
    // stream-only round in which no new stream started has no
    // initial-state evidence (pi accumulates only from first frames), and
    // a lag-0 round has no transition posteriors.
    hmm::MStep(m_step_, &acc_, &model_);
    round_open_ = false;
    // The round's batch log-likelihood, exported before the accumulator
    // reset wipes it (stream frames do not contribute; see
    // round_log_likelihood()).
    g_last_loglik_->Set(acc_.log_likelihood);
    acc_.Reset(model_.num_states());
    ++steps_;
    m_steps_->Add();
    snapshot_ = std::make_shared<const hmm::HmmModel<Obs>>(model_);
    m_snapshots_->Add();
    return snapshot_;
  }

  /// The latest published snapshot (the initial model before any Step).
  std::shared_ptr<const hmm::HmmModel<Obs>> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

 private:
  // Opens an EM round on first accumulation after a Step: emission
  // sufficient statistics live inside the emission model between
  // BeginAccumulate / FinishAccumulate, bracketed once per round so batch
  // and mini-batch rounds share one code path.
  void OpenRoundLocked() {
    if (round_open_) return;
    if (options_.update_emission) model_.emission->BeginAccumulate();
    round_open_ = true;
  }

  const IncrementalEmOptions options_;
  // The M-step's flags and transition step (FitEm's options; the loop
  // fields go unused).
  hmm::EmOptions m_step_;

  mutable std::mutex mu_;
  hmm::BatchEmEngine<Obs> engine_;
  hmm::EStepAccumulator acc_;
  std::shared_ptr<const hmm::HmmModel<Obs>> snapshot_;
  hmm::HmmModel<Obs> model_;  // mutable working copy the M-step updates
  TransitionUpdateWorkspace ws_;
  // The Algorithm-1 transition step over ws_, used when alpha > 0.
  DiversifiedMStep diversified_{options_, &ws_};
  linalg::Vector qrow_;  // scratch posterior row for stream frames
  bool round_open_ = false;
  uint64_t steps_ = 0;

  // Process-wide metrics (obs/metrics.h): registered once at construction.
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_snapshots_ = nullptr;
  obs::Gauge* g_last_loglik_ = nullptr;
};

}  // namespace dhmm::core

#endif  // DHMM_CORE_INCREMENTAL_EM_H_

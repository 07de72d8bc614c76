// Online sequential labeling: incremental forward recursion with fixed-lag
// posterior smoothing.
//
// StreamingDecoder consumes one observation per Push() and emits the
// smoothed posterior-argmax label for the frame `lag` steps behind the
// stream head: label(t - lag) = argmax_i q(X_{t-lag} = i | y_0..y_t). The
// arithmetic lives in serve/stream_math.h and is shared with the
// multi-stream serve::SessionManager: the forward pass is the same scaled
// recursion the offline kernels run (identical kernel calls on the cached
// transition transpose), so the running log-likelihood is
// bitwise-identical to offline hmm::LogLikelihood on every prefix; the
// backward smoothing pass over the lag window replays the offline fused
// backward ops, so with a lag that covers the whole sequence the labels
// from Finish() are bitwise-identical to offline hmm::PosteriorDecode
// (tests/serve_test.cc pins both).
//
// All window buffers are rings sized by (lag, k) and grow-only: after the
// first Push at a given shape, pushes perform zero heap allocations, and
// both Reset() overloads reuse the warm buffers (instrumented-new-pinned),
// so a finished or errored stream is recycled without reconstruction.
#ifndef DHMM_SERVE_STREAMING_DECODER_H_
#define DHMM_SERVE_STREAMING_DECODER_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hmm/inference.h"
#include "hmm/model.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "serve/stream_math.h"
#include "util/check.h"
#include "util/status.h"

namespace dhmm::serve {

/// Options for the streaming decoder. Designated-initializer-friendly POD
/// with a Validate() checked at construction — the shared shape of every
/// serve options struct (see the README options table).
struct StreamingDecoderOptions {
  /// Smoothing lag L: the label for frame t is emitted after seeing frame
  /// t + L. 0 emits filtered (forward-only) labels immediately; larger lags
  /// trade latency — and compute: exact fixed-lag smoothing re-runs the
  /// backward sweep over the window, O(L * k^2) per pushed frame — for
  /// accuracy. A lag >= T - 1 reproduces offline posterior decoding
  /// exactly (labels then all come from Finish(), one O(T * k^2) sweep).
  size_t lag = 8;

  /// Ring storage is (lag + 1) x k doubles: bound the lag so a config
  /// error (e.g. a negative flag cast to size_t) cannot overflow the
  /// window arithmetic or request an absurd allocation.
  Status Validate() const {
    if (lag > kMaxLag) {
      return Status::InvalidArgument(
          "StreamingDecoderOptions::lag is absurdly large");
    }
    return Status::OK();
  }
};

/// \brief Incremental fixed-lag posterior decoder over one live stream.
///
/// Thread-compatible: one decoder serves one stream. Reuse via Reset().
/// For many resident streams over one model, use serve::SessionManager,
/// which amortizes the per-stream footprint through a slab arena.
template <typename Obs>
class StreamingDecoder {
 public:
  explicit StreamingDecoder(std::shared_ptr<const hmm::HmmModel<Obs>> model,
                            const StreamingDecoderOptions& options = {})
      : options_(options) {
    const Status opt_st = options.Validate();
    DHMM_CHECK_MSG(opt_st.ok(), opt_st.message().c_str());
    DHMM_CHECK_MSG(model != nullptr, "StreamingDecoder requires a model");
    model->Validate();
    model_ = std::move(model);
    SizeBuffers();
    ResetStreamState();
  }

  // Non-copyable/movable: a_t_ points into this object's transition_
  // cache, so a relocated decoder would dangle.
  StreamingDecoder(const StreamingDecoder&) = delete;
  StreamingDecoder& operator=(const StreamingDecoder&) = delete;
  StreamingDecoder(StreamingDecoder&&) = delete;
  StreamingDecoder& operator=(StreamingDecoder&&) = delete;

  /// Clears stream state (frames, likelihood, labels, error/finish flags)
  /// but keeps the model and the warm buffers: a finished or poisoned
  /// stream is reusable with zero heap allocations
  /// (tests/serve_test.cc pins this with the instrumented allocator).
  void Reset() { ResetStreamState(); }

  /// Swaps in a new model snapshot and restarts the stream — the streaming
  /// analogue of the service's hot-swap (a chain posterior is not
  /// well-defined across two models, so the stream restarts). Allocation-
  /// free when the new model has the same state count: buffers and the
  /// transpose cache are grow-only and rebuilt in place.
  void Reset(std::shared_ptr<const hmm::HmmModel<Obs>> model) {
    DHMM_CHECK_MSG(model != nullptr, "StreamingDecoder requires a model");
    model->Validate();
    model_ = std::move(model);
    SizeBuffers();
    ResetStreamState();
  }

  /// \brief Consumes one observation. Returns true when a smoothed label
  /// became available (readable via last_label()).
  ///
  /// Returns false both while the label is still inside the lag window and
  /// when the frame was rejected — check ok()/status() to distinguish. A
  /// rejected frame (zero probability in every state, or a vanished
  /// forward message) is not consumed, poisons only this stream, and
  /// refuses further pushes until Reset(): one bad frame on a live stream
  /// must never abort the serving process (matching DecodeService's
  /// per-request error contract).
  bool Push(const Obs& y) {
    DHMM_CHECK_MSG(!finished_,
                   "Push after Finish — Reset() the decoder first");
    if (!status_.ok()) return false;
    const size_t t = frames_pushed_;
    double loglik_inc = 0.0;
    const stream::StepOutcome fwd = stream::ForwardStep(
        *model_, *a_t_, window_, t, Rings(), y, &loglik_inc);
    if (fwd == stream::StepOutcome::kImpossibleObservation) {
      status_ = Status::InvalidArgument(
          "observation has zero probability in every state at frame " +
          std::to_string(t));
      return false;
    }
    if (fwd == stream::StepOutcome::kForwardVanished) {
      status_ = Status::InvalidArgument(
          FrameError("forward message vanished", t));
      return false;
    }

    if (t < options_.lag) {
      log_likelihood_ += loglik_inc;
      frames_pushed_ = t + 1;
      return false;
    }
    // Smooth before committing the frame, so every rejection path leaves
    // the stream exactly as it was (the ring rows written above belong to
    // an already-retired frame).
    const int label =
        stream::SmoothedLabel(model_->a, model_->num_states(), window_,
                              Rings(), /*frame=*/t - options_.lag,
                              /*newest=*/t);
    if (label < 0) {
      status_ = Status::InvalidArgument(
          FrameError("posterior mass vanished", t - options_.lag));
      return false;
    }
    log_likelihood_ += loglik_inc;
    frames_pushed_ = t + 1;
    last_label_ = label;
    ++labels_emitted_;
    return true;
  }

  /// OK until a push was rejected; then the error until Reset().
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// \brief Flushes the lag: labels for the frames still inside the window
  /// (smoothed against the final frame) are appended to *tail in stream
  /// order, via one backward sweep over the window (O(lag * k^2) total).
  /// No-op on a poisoned stream; if the posterior vanishes mid-flush the
  /// stream is poisoned and nothing is appended. The decoder must be
  /// Reset() before further pushes.
  void Finish(std::vector<int>* tail) {
    DHMM_CHECK(tail != nullptr);
    finished_ = true;  // further pushes would re-emit flushed frames
    if (!status_.ok()) return;
    if (frames_pushed_ == 0) return;
    const size_t newest = frames_pushed_ - 1;
    const size_t first = labels_emitted_;  // oldest frame not yet labeled
    if (first > newest) return;
    const size_t base = tail->size();
    tail->resize(base + (newest - first + 1));
    const ptrdiff_t bad =
        stream::FinishSweep(model_->a, model_->num_states(), window_,
                            Rings(), first, newest, tail->data() + base);
    if (bad >= 0) {
      status_ = Status::InvalidArgument(
          FrameError("posterior mass vanished", static_cast<size_t>(bad)));
      tail->resize(base);
      return;
    }
    labels_emitted_ = newest + 1;
  }

  /// Label emitted by the most recent Push that returned true.
  int last_label() const { return last_label_; }
  /// Frames consumed so far.
  size_t frames_pushed() const { return frames_pushed_; }
  /// Labels emitted so far (Push + Finish).
  size_t labels_emitted() const { return labels_emitted_; }
  /// log P(y_0..y_{t-1}) — bitwise equal to offline LogLikelihood on the
  /// same prefix.
  double log_likelihood() const { return log_likelihood_; }
  /// The model snapshot in use.
  const hmm::HmmModel<Obs>& model() const { return *model_; }

 private:
  static std::string FrameError(const char* what, size_t t) {
    return hmm::internal::FrameError(what, t);
  }

  // Non-owning view over the member buffers for the shared math layer.
  stream::StreamRings Rings() {
    stream::StreamRings r;
    r.btilde = btilde_.data();
    r.alpha = alpha_.data();
    r.scale = scale_.data();
    r.logb = logb_row_.data();
    r.frame_u = frame_u_.data();
    r.beta_cur = beta_cur_.data();
    r.beta_next = beta_next_.data();
    r.gamma = gamma_.data();
    return r;
  }

  void SizeBuffers() {
    const size_t k = model_->num_states();
    // The model is fixed until the next Reset(model): build the transpose
    // once here instead of revalidating the cache on every push.
    a_t_ = &transition_.Transpose(model_->a);
    window_ = stream::Window(options_.lag);
    btilde_.Resize(window_, k);
    alpha_.Resize(window_, k);
    scale_.Resize(window_);
    logb_row_.Resize(k);
    frame_u_.Resize(k);
    beta_cur_.Resize(k);
    beta_next_.Resize(k);
    gamma_.Resize(k);
  }

  void ResetStreamState() {
    frames_pushed_ = 0;
    labels_emitted_ = 0;
    last_label_ = -1;
    log_likelihood_ = 0.0;
    status_ = Status::OK();
    finished_ = false;
  }

  const StreamingDecoderOptions options_;
  std::shared_ptr<const hmm::HmmModel<Obs>> model_;
  hmm::TransitionCache transition_;  // shared machinery with the workspaces
  const linalg::Matrix* a_t_ = nullptr;  // A^T, rebuilt on Reset(model)

  size_t window_ = 1;        // lag + 1 ring rows
  linalg::Matrix btilde_;    // window x k shifted emissions
  linalg::Matrix alpha_;     // window x k scaled forward messages
  linalg::Vector scale_;     // window forward normalizers
  linalg::Vector logb_row_;  // k scratch emission row
  linalg::Vector frame_u_;   // k hoisted backward frame product
  linalg::Vector beta_cur_;  // k backward message
  linalg::Vector beta_next_;
  linalg::Vector gamma_;     // k smoothed posterior at the emitted frame

  size_t frames_pushed_ = 0;
  size_t labels_emitted_ = 0;
  int last_label_ = -1;
  double log_likelihood_ = 0.0;
  Status status_;
  bool finished_ = false;
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_STREAMING_DECODER_H_

// The fixed-lag smoothing math of serve::SessionManager, over raw
// ring-buffer views.
//
// Each call runs the offline sweep's own per-frame steps
// (hmm/chain_steps.h: the scaled forward frame, the beta-only backward
// step, the gamma normalization) over the same per-frame layout, so a
// session's labels at full lag are bitwise-identical to offline
// hmm::TryPosteriorDecode and its running log-likelihood to offline
// hmm::TryLogLikelihoodRows *by construction*: they are the same instructions
// on the same bits. The session pool owns layout, state machines, and
// error policy; this header owns only ring indexing and the emission row.
//
// A stream's working set is a StreamRings view: two window x k row-major
// rings (shifted emissions, scaled forward messages), a window-length
// scale ring, and five k-length scratch rows. RingDoubles() gives the
// total footprint so a caller can carve a whole stream out of one
// contiguous 64-byte-aligned block (util::SlabArena).
#ifndef DHMM_SERVE_STREAM_MATH_H_
#define DHMM_SERVE_STREAM_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "hmm/chain_steps.h"
#include "hmm/model.h"
#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"
#include "linalg/matrix.h"
#include "prob/logsumexp.h"
#include "util/status.h"

namespace dhmm::serve {

/// Largest accepted smoothing lag (the ring holds lag + 1 frames). Bounds
/// SessionManagerOptions::lag so a config error (e.g. a negative flag cast
/// to size_t) cannot overflow the window arithmetic or request an absurd
/// allocation.
inline constexpr size_t kMaxLag = size_t{1} << 24;

}  // namespace dhmm::serve

namespace dhmm::serve::stream {

/// Ring rows needed for a smoothing lag: lag + 1 frames, but at least two
/// rows even at lag = 0 — the forward step's input alpha_{t-1} and output
/// alpha_t must never alias (the kernels take restrict pointers).
inline size_t Window(size_t lag) { return std::max<size_t>(lag + 1, 2); }

/// \brief Raw views over one stream's ring buffers. Non-owning.
struct StreamRings {
  double* btilde = nullptr;     ///< window x k shifted emissions
  double* alpha = nullptr;      ///< window x k scaled forward messages
  double* scale = nullptr;      ///< window forward normalizers
  double* logb = nullptr;       ///< k scratch emission row
  double* frame_u = nullptr;    ///< k hoisted backward frame product
  double* beta_cur = nullptr;   ///< k backward message
  double* beta_next = nullptr;  ///< k backward message (swap partner)
  double* gamma = nullptr;      ///< k smoothed posterior at emitted frame
};

/// Doubles needed to back a whole StreamRings at (window, k).
inline size_t RingDoubles(size_t window, size_t k) {
  return 2 * window * k + window + 5 * k;
}

/// Carves a StreamRings view over `base[0 .. RingDoubles(window, k))`.
inline StreamRings CarveRings(double* base, size_t window, size_t k) {
  StreamRings r;
  r.btilde = base;
  r.alpha = r.btilde + window * k;
  r.scale = r.alpha + window * k;
  r.logb = r.scale + window;
  r.frame_u = r.logb + k;
  r.beta_cur = r.frame_u + k;
  r.beta_next = r.beta_cur + k;
  r.gamma = r.beta_next + k;
  return r;
}

/// \brief Emission + scaled forward step for frame t, writing ring row
/// t % window. On OK, *loglik_inc holds log(c_t) + m_t, the stream
/// log-likelihood increment. An impossible observation or a vanished
/// forward message is the offline sweep's InvalidArgument for frame t, and
/// nothing logical changed: the ring rows written belong to the
/// already-retired frame t - window, so a rejected frame leaves the stream
/// exactly as it was. The OK path does not allocate.
template <typename Obs>
Status ForwardStep(const linalg::kernels::KernelTable& kt,
                   const hmm::HmmModel<Obs>& model, const linalg::Matrix& a_t,
                   size_t window, size_t t, const StreamRings& r, const Obs& y,
                   double* loglik_inc) {
  const size_t k = model.num_states();
  const size_t row = t % window;
  double* btilde_row = r.btilde + row * k;
  // Emission table row for this frame — the same per-frame shifted table
  // the offline workspace caches, maintained as a ring.
  model.emission->LogProbRow(y, r.logb);
  const double m = kt.exp_shift_row(r.logb, k, btilde_row);
  if (m == prob::kNegInf) return hmm::internal::ImpossibleFrame(t);
  const double* prev = t == 0 ? nullptr : r.alpha + ((t - 1) % window) * k;
  const double c = hmm::internal::ForwardFrame(kt, model.pi, a_t, t, prev,
                                               btilde_row, r.alpha + row * k);
  if (!(c > 0.0)) return hmm::internal::ForwardVanished(t);
  r.scale[row] = c;
  *loglik_inc = std::log(c) + m;
  return Status::OK();
}

/// \brief Gamma normalization and argmax at `frame` given its backward
/// message — the offline GammaRow + ArgMaxRow ops. Returns -1 when the
/// posterior mass vanished numerically (the caller poisons the stream).
/// The normalized posterior is left in r.gamma for consumers that feed
/// online E-step accumulators.
inline int GammaArgmax(const linalg::kernels::KernelTable& kt, size_t k,
                       size_t window, const StreamRings& r, size_t frame,
                       const double* beta) {
  if (!hmm::internal::GammaRow(kt, r.alpha + (frame % window) * k, beta, k,
                               r.gamma)) {
    return -1;
  }
  return static_cast<int>(linalg::kernels::ArgMaxRow(r.gamma, k));
}

/// \brief Backward pass from `newest` down to `frame` over the ring
/// (beta = 1 at the newest frame), then GammaArgmax at `frame`. After a
/// successful call with newest > frame, r.frame_u holds the hoisted
/// product for frame + 1 — exactly the term an online xi accumulator
/// needs (see hmm::EStepAccumulator::AddStreamTransition).
inline int SmoothedLabel(const linalg::kernels::KernelTable& kt,
                         const linalg::Matrix& a, size_t k, size_t window,
                         const StreamRings& r, size_t frame, size_t newest) {
  double* beta = r.beta_cur;
  double* beta_next = r.beta_next;
  for (size_t i = 0; i < k; ++i) beta[i] = 1.0;
  for (size_t t = newest; t-- > frame;) {
    const size_t next_row = (t + 1) % window;
    hmm::internal::BetaStep(kt, a, r.btilde + next_row * k, beta,
                            r.scale[next_row], r.frame_u, beta_next);
    std::swap(beta, beta_next);
  }
  return GammaArgmax(kt, k, window, r, frame, beta);
}

/// \brief Finish-time flush: one backward sweep labeling every frame in
/// [first, newest], written to out[0 .. newest - first]. Returns -1 on
/// success, or the frame whose posterior vanished (nothing useful was
/// written; the caller poisons the stream and discards `out`).
inline ptrdiff_t FinishSweep(const linalg::kernels::KernelTable& kt,
                             const linalg::Matrix& a, size_t k, size_t window,
                             const StreamRings& r, size_t first,
                             size_t newest, int* out) {
  double* beta = r.beta_cur;
  double* beta_next = r.beta_next;
  for (size_t i = 0; i < k; ++i) beta[i] = 1.0;
  for (size_t f = newest + 1; f-- > first;) {
    if (f != newest) {
      const size_t next_row = (f + 1) % window;
      hmm::internal::BetaStep(kt, a, r.btilde + next_row * k, beta,
                              r.scale[next_row], r.frame_u, beta_next);
      std::swap(beta, beta_next);
    }
    const int label = GammaArgmax(kt, k, window, r, f, beta);
    if (label < 0) return static_cast<ptrdiff_t>(f);
    out[f - first] = label;
  }
  return -1;
}

}  // namespace dhmm::serve::stream

#endif  // DHMM_SERVE_STREAM_MATH_H_

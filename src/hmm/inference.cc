#include "hmm/inference.h"

#include <cmath>
#include <cstring>
#include <string>

#include "hmm/chain_steps.h"
#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"
#include "prob/logsumexp.h"
#include "util/check.h"

namespace dhmm::hmm {

namespace klib = linalg::kernels;

// Every Try* entry point fetches its kernel table once via klib::ForK(k)
// — outside all per-frame loops — and passes it to the shared per-frame
// steps (hmm/chain_steps.h) or calls the fused backward and Viterbi
// kernels through it. The cheap inline scans (ArgMaxRow, ScaleRow,
// MulRowInto) stay direct calls: they are branchy or trivially cheap and
// identical across variants.

bool TransitionCache::Sync(const linalg::Matrix& a) {
  const size_t k = a.rows();
  DHMM_CHECK(a.cols() == k);
  if (a_copy_.rows() == k && a_copy_.cols() == k &&
      std::memcmp(a_copy_.data(), a.data(), k * k * sizeof(double)) == 0) {
    return false;
  }
  a_copy_.Resize(k, k);
  std::memcpy(a_copy_.data(), a.data(), k * k * sizeof(double));
  a_t_.Resize(k, k);
  klib::TransposeInto(a.data(), k, k, a_t_.data());
  log_valid_ = false;
  ++version_;
  return true;
}

const linalg::Matrix& TransitionCache::Transpose(const linalg::Matrix& a) {
  Sync(a);
  return a_t_;
}

const linalg::Matrix& TransitionCache::Log(const linalg::Matrix& a) {
  Sync(a);
  if (!log_valid_) {
    const size_t k = a.rows();
    log_a_.Resize(k, k);
    const double* src = a.data();
    double* dst = log_a_.data();
    for (size_t i = 0; i < k * k; ++i) {
      dst[i] = src[i] > 0.0 ? std::log(src[i]) : prob::kNegInf;
    }
    log_valid_ = true;
  }
  return log_a_;
}

namespace internal {

namespace {

Status FrameError(const char* what, size_t t) {
  return Status::InvalidArgument(std::string(what) + " at frame " +
                                 std::to_string(t));
}

}  // namespace

Status ImpossibleFrame(size_t t) {
  return FrameError("zero emission probability in every state", t);
}

Status ForwardVanished(size_t t) {
  return FrameError("forward message vanished", t);
}

Status PosteriorVanished(size_t t) {
  return FrameError("posterior mass vanished", t);
}

}  // namespace internal

using internal::BetaStep;
using internal::ForwardFrame;
using internal::ForwardVanished;
using internal::GammaRow;
using internal::ImpossibleFrame;
using internal::PosteriorVanished;

namespace {

// Smallest s with s * s >= n (panel width for the checkpointed sweep).
size_t CeilSqrt(size_t n) {
  size_t s = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  while (s * s < n) ++s;
  while (s > 1 && (s - 1) * (s - 1) >= n) --s;
  return s;
}

}  // namespace

Status TryForwardBackward(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b, InferenceWorkspace* ws,
                          ForwardBackwardResult* out) {
  DHMM_CHECK(out != nullptr);
  CheckpointedGammaSinks sinks;
  sinks.gamma_out = &out->gamma;
  return TryForwardBackwardCheckpointed(pi, a, MatrixLogBRows(log_b),
                                        log_b.rows(), ws, sinks, &out->xi_sum,
                                        &out->log_likelihood);
}

LogBRows MatrixLogBRows(const linalg::Matrix& log_b) {
  LogBRows rows;
  rows.row = [](void* ctx, size_t t) -> const double* {
    return static_cast<const linalg::Matrix*>(ctx)->row_data(t);
  };
  rows.ctx = const_cast<linalg::Matrix*>(&log_b);
  rows.frames = log_b.rows();
  rows.states = log_b.cols();
  return rows;
}

Status TryForwardBackwardCheckpointed(const linalg::Vector& pi,
                                      const linalg::Matrix& a,
                                      const LogBRows& log_b,
                                      size_t panel_frames,
                                      InferenceWorkspace* ws,
                                      const CheckpointedGammaSinks& sinks,
                                      linalg::Matrix* xi_sum,
                                      double* log_likelihood) {
  const size_t k = pi.size();
  const size_t big_t = log_b.frames;
  DHMM_CHECK(ws != nullptr && log_likelihood != nullptr);
  DHMM_CHECK(log_b.row != nullptr);
  DHMM_CHECK(a.rows() == k && a.cols() == k && log_b.states == k);
  DHMM_CHECK_MSG(big_t > 0, "empty sequence");

  size_t panel = panel_frames == 0 ? CeilSqrt(big_t) : panel_frames;
  if (panel > big_t) panel = big_t;
  const size_t num_panels = (big_t + panel - 1) / panel;
  const size_t last_t0 = (num_panels - 1) * panel;
  // With one panel nothing is ever replayed, so there are no checkpoints
  // and no frames outside the panel buffers.
  const bool replays = num_panels > 1;

  if (xi_sum != nullptr) {
    xi_sum->Resize(k, k);
    xi_sum->Fill(0.0);
  }
  ws->panel_alpha.Resize(panel, k);
  ws->panel_btilde.Resize(panel + 1, k);
  ws->cp_scale.Resize(big_t);
  ws->frame_u.Resize(k);
  ws->cp_beta_next.Resize(k);
  ws->cp_beta_cur.Resize(k);
  if (replays) {
    ws->cp_alpha.Resize(num_panels, k);
    ws->alpha.Resize(k);
    ws->alpha_next.Resize(k);
    ws->frame.Resize(k);
  }
  linalg::Vector& scale = ws->cp_scale;
  const linalg::Matrix& a_t = ws->transition.Transpose(a);
  const klib::KernelTable& kt = klib::ForK(k);

  // ---- Pass 1: forward over every frame, keeping all T scale factors and
  // (when panels replay) one scaled alpha row per panel start; log P(Y) =
  // sum_t (log c_t + m_t). The last panel's alpha rows and shifted
  // emissions are written straight into the panel buffers, so pass 2
  // starts on a resident panel; earlier frames ping-pong through two
  // k-vectors.
  {
    double loglik = 0.0;
    double* ping[2] = {ws->alpha.data(), ws->alpha_next.data()};
    const double* prev = nullptr;
    size_t next_checkpoint = replays ? 0 : big_t;
    for (size_t t = 0; t < big_t; ++t) {
      const bool resident = t >= last_t0;
      double* bt = resident ? ws->panel_btilde.row_data(t - last_t0)
                            : ws->frame.data();
      double* cur =
          resident ? ws->panel_alpha.row_data(t - last_t0) : ping[t & 1];
      const double m = kt.exp_shift_row(log_b.row(log_b.ctx, t), k, bt);
      if (m == prob::kNegInf) return ImpossibleFrame(t);
      const double c = ForwardFrame(kt, pi, a_t, t, prev, bt, cur);
      if (!(c > 0.0)) return ForwardVanished(t);
      scale[t] = c;
      loglik += std::log(c) + m;
      if (t == next_checkpoint) {
        std::memcpy(ws->cp_alpha.row_data(t / panel), cur,
                    k * sizeof(double));
        next_checkpoint += panel;
      }
      prev = cur;
    }
    *log_likelihood = loglik;
  }

  // Makes panel p (frames [t0, t1)) resident: refills panel_btilde for
  // frames [t0, hi] (inclusive — a panel's backward step also reads
  // btilde(t1)) and replays the alpha rows from the stored checkpoint. A
  // no-op for the panel already in the buffers, so the last panel is never
  // replayed and a one-panel sweep replays nothing. Pass 1 already vetted
  // every frame, but the emissions come back through the provider, so the
  // checks stay.
  size_t resident_panel = num_panels - 1;
  auto load_panel = [&](size_t p, size_t t0, size_t t1,
                        size_t hi) -> Status {
    if (p == resident_panel) return Status::OK();
    resident_panel = p;
    for (size_t t = t0; t <= hi; ++t) {
      const double m = kt.exp_shift_row(log_b.row(log_b.ctx, t), k,
                                        ws->panel_btilde.row_data(t - t0));
      if (m == prob::kNegInf) return ImpossibleFrame(t);
    }
    std::memcpy(ws->panel_alpha.row_data(0), ws->cp_alpha.row_data(p),
                k * sizeof(double));
    for (size_t t = t0 + 1; t < t1; ++t) {
      const double c = ForwardFrame(
          kt, pi, a_t, t, ws->panel_alpha.row_data(t - 1 - t0),
          ws->panel_btilde.row_data(t - t0), ws->panel_alpha.row_data(t - t0));
      if (!(c > 0.0)) return ForwardVanished(t);
    }
    return Status::OK();
  };

  // Gamma rows land in the caller's matrix when there is one, else in one
  // k-row of scratch that on_gamma reads before the next frame.
  linalg::Matrix* gamma_out = sinks.gamma_out;
  if (gamma_out != nullptr) {
    gamma_out->Resize(big_t, k);
  } else {
    ws->cp_gamma.Resize(k);
  }
  auto gamma_dst = [&](size_t t) {
    return gamma_out != nullptr ? gamma_out->row_data(t) : ws->cp_gamma.data();
  };

  // ---- Pass 2: backward / gamma sweep over panels in descending order. At
  // frame f the product u = btilde(f+1) * beta(f+1) / c_{f+1} is formed
  // once; with an xi sum it feeds both the backward row-dots and the xi
  // row-axpys while it is hot, and xi accumulates in globally descending f.
  const bool want_ascending = sinks.on_gamma_ascending != nullptr;
  if (want_ascending) ws->cp_beta.Resize(num_panels, k);
  double* beta_next = ws->cp_beta_next.data();  // beta_hat(f + 1) carry
  double* beta_cur = ws->cp_beta_cur.data();
  double* u = ws->frame_u.data();
  for (size_t p = num_panels; p-- > 0;) {
    const size_t t0 = p * panel;
    const size_t t1 = std::min(big_t, t0 + panel);
    const size_t hi = std::min(t1, big_t - 1);
    DHMM_RETURN_NOT_OK(load_panel(p, t0, t1, hi));
    size_t f = t1;  // next frame processed by the descent is f - 1
    if (p + 1 == num_panels) {
      // Backward base case: beta(T-1) = 1.
      for (size_t i = 0; i < k; ++i) beta_next[i] = 1.0;
      double* gamma_row = gamma_dst(big_t - 1);
      if (!GammaRow(kt, ws->panel_alpha.row_data(big_t - 1 - t0), beta_next,
                    k, gamma_row)) {
        return PosteriorVanished(big_t - 1);
      }
      if (sinks.on_gamma != nullptr) {
        sinks.on_gamma(sinks.gamma_ctx, big_t - 1, gamma_row);
      }
      f = big_t - 1;
    }
    while (f-- > t0) {
      const double* btilde_next = ws->panel_btilde.row_data(f + 1 - t0);
      const double* alpha_row = ws->panel_alpha.row_data(f - t0);
      if (xi_sum == nullptr) {
        BetaStep(kt, a, btilde_next, beta_next, scale[f + 1], u, beta_cur);
      } else {
        // beta(f) = A u and the frame's xi accumulation in one pass over A
        // (beta bitwise = mat_vec_col, as in BetaStep; A is read once, not
        // twice — the win that matters once k x k falls out of L1).
        kt.mul_row_scaled_into(btilde_next, beta_next, 1.0 / scale[f + 1], k,
                               u);
        kt.backward_fused(a.data(), u, alpha_row, k, k, beta_cur,
                          xi_sum->data());
      }
      double* gamma_row = gamma_dst(f);
      if (!GammaRow(kt, alpha_row, beta_cur, k, gamma_row)) {
        return PosteriorVanished(f);
      }
      if (sinks.on_gamma != nullptr) {
        sinks.on_gamma(sinks.gamma_ctx, f, gamma_row);
      }
      std::swap(beta_cur, beta_next);  // beta_next now holds beta_hat(f)
    }
    // beta_next left holding beta_hat(t0): the seed row the ascending
    // replay needs to rebuild this panel's betas without a second sweep.
    if (want_ascending) {
      std::memcpy(ws->cp_beta.row_data(p), beta_next, k * sizeof(double));
    }
  }

  // ---- Pass 3 (optional): ascending gamma replay for consumers whose
  // accumulation order matters bitwise (the E-step feeds emission
  // sufficient statistics in ascending frame order). Both message panels
  // replay from their stored seed rows; BetaStep's beta equals pass 2's
  // backward_fused beta bitwise, so the gamma rows equal the descending
  // pass bit for bit.
  if (want_ascending) {
    ws->panel_beta.Resize(panel, k);
    for (size_t p = 0; p < num_panels; ++p) {
      const size_t t0 = p * panel;
      const size_t t1 = std::min(big_t, t0 + panel);
      const size_t hi = std::min(t1, big_t - 1);
      DHMM_RETURN_NOT_OK(load_panel(p, t0, t1, hi));
      size_t f = t1;
      const double* seed = nullptr;  // beta_hat(t1) for non-final panels
      if (p + 1 == num_panels) {
        double* last = ws->panel_beta.row_data(t1 - 1 - t0);
        for (size_t i = 0; i < k; ++i) last[i] = 1.0;
        f = t1 - 1;
      } else {
        seed = ws->cp_beta.row_data(p + 1);
      }
      while (f-- > t0) {
        const double* beta_up =
            (f + 1 == t1) ? seed : ws->panel_beta.row_data(f + 1 - t0);
        BetaStep(kt, a, ws->panel_btilde.row_data(f + 1 - t0), beta_up,
                 scale[f + 1], u, ws->panel_beta.row_data(f - t0));
      }
      for (size_t t = t0; t < t1; ++t) {
        double* gamma_row = gamma_dst(t);
        if (!GammaRow(kt, ws->panel_alpha.row_data(t - t0),
                      ws->panel_beta.row_data(t - t0), k, gamma_row)) {
          return PosteriorVanished(t);
        }
        sinks.on_gamma_ascending(sinks.ascending_ctx, t, gamma_row);
      }
    }
  }
  return Status::OK();
}

Status TryLogLikelihoodRows(const linalg::Vector& pi, const linalg::Matrix& a,
                            const LogBRows& log_b, InferenceWorkspace* ws,
                            double* out) {
  const size_t k = pi.size();
  const size_t big_t = log_b.frames;
  DHMM_CHECK(ws != nullptr && out != nullptr && log_b.row != nullptr);
  DHMM_CHECK(a.rows() == k && a.cols() == k && log_b.states == k);
  DHMM_CHECK(big_t > 0);
  ws->alpha.Resize(k);
  ws->alpha_next.Resize(k);
  ws->frame.Resize(k);
  const linalg::Matrix& a_t = ws->transition.Transpose(a);
  const klib::KernelTable& kt = klib::ForK(k);

  // Pass 1 of the forward-backward sweep with nothing kept: one frame of
  // shifted emissions at a time, alpha ping-ponging between two k-vectors.
  double* ping[2] = {ws->alpha.data(), ws->alpha_next.data()};
  double* btilde = ws->frame.data();
  double loglik = 0.0;
  for (size_t t = 0; t < big_t; ++t) {
    const double m = kt.exp_shift_row(log_b.row(log_b.ctx, t), k, btilde);
    if (m == prob::kNegInf) return ImpossibleFrame(t);
    const double c =
        ForwardFrame(kt, pi, a_t, t, ping[(t + 1) & 1], btilde, ping[t & 1]);
    if (!(c > 0.0)) return ForwardVanished(t);
    loglik += std::log(c) + m;
  }
  *out = loglik;
  return Status::OK();
}

Status TryViterbi(const linalg::Vector& pi, const linalg::Matrix& a,
                  const linalg::Matrix& log_b, InferenceWorkspace* ws,
                  ViterbiResult* out) {
  const size_t k = pi.size();
  const size_t big_t = log_b.rows();
  DHMM_CHECK(ws != nullptr && out != nullptr);
  DHMM_CHECK(a.rows() == k && a.cols() == k && log_b.cols() == k);
  DHMM_CHECK(big_t > 0);

  ws->log_pi.Resize(k);
  for (size_t i = 0; i < k; ++i) {
    ws->log_pi[i] = pi[i] > 0.0 ? std::log(pi[i]) : prob::kNegInf;
  }
  // Row-major log A, rebuilt only when A changes (like the transpose).
  const linalg::Matrix& log_a = ws->transition.Log(a);
  const klib::KernelTable& kt = klib::ForK(k);

  ws->delta.Resize(big_t, k);
  // Backpointers as one flat row-major T*k buffer: psi[t * k + j] is the
  // best predecessor of state j at frame t.
  ws->psi.resize(big_t * k);
  linalg::Matrix& delta = ws->delta;
  std::vector<int>& psi = ws->psi;

  for (size_t i = 0; i < k; ++i) delta(0, i) = ws->log_pi[i] + log_b(0, i);
  for (size_t t = 1; t < big_t; ++t) {
    // Ascending predecessors with a strict > keep the lowest-index
    // predecessor on ties (pinned by tests/engine_test.cc).
    kt.viterbi_step(delta.row_data(t - 1), log_a.data(), log_b.row_data(t), k,
                    delta.row_data(t), psi.data() + t * k);
  }

  out->path.resize(big_t);
  const double* last = delta.row_data(big_t - 1);
  const size_t arg = klib::ArgMaxRow(last, k);
  // -inf: no state path has positive probability. NaN (a NaN emission
  // row) or +inf: the score is meaningless. Either way, no answer.
  if (!std::isfinite(last[arg])) {
    return Status::InvalidArgument(
        "no state path has a finite score for the sequence");
  }
  out->log_joint = last[arg];
  out->path[big_t - 1] = static_cast<int>(arg);
  for (size_t t = big_t - 1; t-- > 0;) {
    out->path[t] = psi[(t + 1) * k + out->path[t + 1]];
  }
  return Status::OK();
}

}  // namespace dhmm::hmm

#include "hmm/inference.h"

#include <cmath>
#include <cstring>
#include <string>

#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"
#include "prob/logsumexp.h"
#include "util/check.h"

namespace dhmm::hmm {

namespace klib = linalg::kernels;

// Every Try* entry point fetches its kernel table once via klib::ForK(k)
// — outside all per-frame loops — and calls the reduction/axpy/fused/
// Viterbi kernels through it. The cheap inline scans (ArgMaxRow, ScaleRow,
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

std::string FrameError(const char* what, size_t t) {
  return std::string(what) + " at frame " + std::to_string(t);
}

}  // namespace internal

using internal::FrameError;

namespace {

// Fills ws->btilde / ws->shift with the shifted emissions for every frame:
// btilde(t, i) = exp(log_b(t, i) - m_t) with m_t = max_i log_b(t, i), so at
// least one entry per row is exactly 1. Computed once per sequence and shared
// by the forward and the fused backward/xi loops (the seed code recomputed
// the same row up to three times per frame). Fails on a frame with zero
// emission probability in every state.
Status PrecomputeShiftedEmissions(const linalg::Matrix& log_b,
                                  const klib::KernelTable& kt,
                                  InferenceWorkspace* ws) {
  const size_t big_t = log_b.rows();
  const size_t k = log_b.cols();
  ws->btilde.Resize(big_t, k);
  ws->shift.Resize(big_t);
  for (size_t t = 0; t < big_t; ++t) {
    const double m =
        kt.exp_shift_row(log_b.row_data(t), k, ws->btilde.row_data(t));
    if (m == prob::kNegInf) {
      return Status::InvalidArgument(
          FrameError("zero emission probability in every state", t));
    }
    ws->shift[t] = m;
  }
  return Status::OK();
}

// gamma(t, .) = normalized alpha_hat(t, .) * beta_hat(t, .), with the
// division replaced by one hoisted reciprocal multiply. False when the
// posterior mass vanished (numerically impossible frame).
bool GammaRow(const klib::KernelTable& kt, const double* alpha_row,
              const double* beta_row, size_t k, double* gamma_row) {
  klib::MulRowInto(alpha_row, beta_row, k, gamma_row);
  const double norm = kt.sum_row(gamma_row, k);
  if (!(norm > 0.0)) return false;
  klib::ScaleRow(gamma_row, k, 1.0 / norm);
  return true;
}

// Smallest s with s * s >= n (panel width for the checkpointed sweep).
size_t CeilSqrt(size_t n) {
  size_t s = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  while (s * s < n) ++s;
  while (s > 1 && (s - 1) * (s - 1) >= n) --s;
  return s;
}

}  // namespace

Status TryForwardBackward(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b,
                          InferenceWorkspace* ws,
                          ForwardBackwardResult* out) {
  const size_t k = pi.size();
  const size_t big_t = log_b.rows();
  DHMM_CHECK(ws != nullptr && out != nullptr);
  DHMM_CHECK(a.rows() == k && a.cols() == k);
  DHMM_CHECK(log_b.cols() == k);
  DHMM_CHECK_MSG(big_t > 0, "empty sequence");

  out->gamma.Resize(big_t, k);
  out->xi_sum.Resize(k, k);
  out->xi_sum.Fill(0.0);

  const klib::KernelTable& kt = klib::ForK(k);
  DHMM_RETURN_NOT_OK(PrecomputeShiftedEmissions(log_b, kt, ws));
  ws->alpha_hat.Resize(big_t, k);
  ws->beta_hat.Resize(big_t, k);
  ws->scale.Resize(big_t);
  ws->frame_u.Resize(k);
  linalg::Matrix& alpha_hat = ws->alpha_hat;
  linalg::Matrix& beta_hat = ws->beta_hat;
  const linalg::Matrix& btilde = ws->btilde;
  linalg::Vector& scale = ws->scale;
  // Forward recursion reads A column-wise; dot against rows of the cached
  // transpose instead (rebuilt only when A changes, once per EM iteration).
  const linalg::Matrix& a_t = ws->transition.Transpose(a);

  // Forward pass with per-step normalization (scale c_t) and per-frame
  // emission shifts m_t: log P(Y) = sum_t (log c_t + m_t).
  double loglik = 0.0;
  double* alpha0 = alpha_hat.row_data(0);
  klib::MulRowInto(pi.data(), btilde.row_data(0), k, alpha0);
  double c = kt.sum_row(alpha0, k);
  if (!(c > 0.0)) {
    return Status::InvalidArgument(
        FrameError("forward message vanished", 0));
  }
  klib::ScaleRow(alpha0, k, 1.0 / c);
  scale[0] = c;
  loglik += std::log(c) + ws->shift[0];

  for (size_t t = 1; t < big_t; ++t) {
    double* cur = alpha_hat.row_data(t);
    // Fused step: cur[j] = dot(a_t row j, alpha_{t-1}) * btilde(t, j).
    kt.mat_vec_col_mul(a_t.data(), alpha_hat.row_data(t - 1),
                       btilde.row_data(t), k, k, cur);
    c = kt.sum_row(cur, k);
    if (!(c > 0.0)) {
      return Status::InvalidArgument(
          FrameError("forward message vanished", t));
    }
    klib::ScaleRow(cur, k, 1.0 / c);
    scale[t] = c;
    loglik += std::log(c) + ws->shift[t];
  }
  out->log_likelihood = loglik;

  // Fused backward / gamma / xi sweep. At step t the frame product
  // u = btilde(t+1,.) * beta_hat(t+1,.) / c_{t+1} is computed once (the seed
  // recomputed it k times and divided inside the innermost loop) and reused
  // by both the backward row-dots and the xi row-axpys while it is hot.
  double* beta_last = beta_hat.row_data(big_t - 1);
  for (size_t i = 0; i < k; ++i) beta_last[i] = 1.0;
  if (!GammaRow(kt, alpha_hat.row_data(big_t - 1), beta_last, k,
                out->gamma.row_data(big_t - 1))) {
    return Status::InvalidArgument(
        FrameError("posterior mass vanished", big_t - 1));
  }
  double* u = ws->frame_u.data();
  for (size_t t = big_t - 1; t-- > 0;) {
    kt.mul_row_scaled_into(btilde.row_data(t + 1), beta_hat.row_data(t + 1),
                           1.0 / scale[t + 1], k, u);
    const double* alpha_row = alpha_hat.row_data(t);
    double* beta_row = beta_hat.row_data(t);
    // beta(t) = A u and the frame's xi accumulation in one pass over A
    // (bitwise = mat_vec_col then axpy_mul_mat; A is read once, not
    // twice — the win that matters once k x k falls out of L1).
    kt.backward_fused(a.data(), u, alpha_row, k, k, beta_row,
                      out->xi_sum.data());
    if (!GammaRow(kt, alpha_row, beta_row, k, out->gamma.row_data(t))) {
      return Status::InvalidArgument(
          FrameError("posterior mass vanished", t));
    }
  }
  return Status::OK();
}

void ForwardBackward(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b, InferenceWorkspace* ws,
                     ForwardBackwardResult* out) {
  Status st = TryForwardBackward(pi, a, log_b, ws, out);
  DHMM_CHECK_MSG(st.ok(), st.message().c_str());
}

ForwardBackwardResult ForwardBackward(const linalg::Vector& pi,
                                      const linalg::Matrix& a,
                                      const linalg::Matrix& log_b) {
  InferenceWorkspace ws;
  ForwardBackwardResult out;
  ForwardBackward(pi, a, log_b, &ws, &out);
  return out;
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
  DHMM_CHECK(ws != nullptr && xi_sum != nullptr && log_likelihood != nullptr);
  DHMM_CHECK(log_b.row != nullptr && sinks.on_gamma != nullptr);
  DHMM_CHECK(a.rows() == k && a.cols() == k && log_b.states == k);
  DHMM_CHECK_MSG(big_t > 0, "empty sequence");

  size_t panel = panel_frames == 0 ? CeilSqrt(big_t) : panel_frames;
  if (panel > big_t) panel = big_t;
  const size_t num_panels = (big_t + panel - 1) / panel;

  xi_sum->Resize(k, k);
  xi_sum->Fill(0.0);
  ws->cp_alpha.Resize(num_panels, k);
  ws->panel_alpha.Resize(panel, k);
  ws->panel_btilde.Resize(panel + 1, k);
  ws->cp_scale.Resize(big_t);
  ws->frame_u.Resize(k);
  ws->cp_beta_next.Resize(k);
  ws->cp_beta_cur.Resize(k);
  ws->cp_gamma.Resize(k);
  ws->alpha.Resize(k);
  ws->alpha_next.Resize(k);
  ws->frame.Resize(k);
  linalg::Vector& scale = ws->cp_scale;
  const linalg::Matrix& a_t = ws->transition.Transpose(a);
  const klib::KernelTable& kt = klib::ForK(k);

  // ---- Pass 1: forward, keeping one scaled alpha row per panel plus all T
  // scale factors. The kernel-call sequence per frame is exactly the full
  // path's forward loop; only the destinations differ (ping-pong k-vectors
  // instead of a T x k table), so every retained row is bitwise equal to
  // the full path's corresponding alpha_hat row.
  {
    double loglik = 0.0;
    double* prev = ws->alpha.data();
    double* cur = ws->alpha_next.data();
    double* bt = ws->frame.data();
    for (size_t t = 0; t < big_t; ++t) {
      const double m = kt.exp_shift_row(log_b.row(log_b.ctx, t), k, bt);
      if (m == prob::kNegInf) {
        return Status::InvalidArgument(
            FrameError("zero emission probability in every state", t));
      }
      if (t == 0) {
        klib::MulRowInto(pi.data(), bt, k, cur);
      } else {
        kt.mat_vec_col_mul(a_t.data(), prev, bt, k, k, cur);
      }
      const double c = kt.sum_row(cur, k);
      if (!(c > 0.0)) {
        return Status::InvalidArgument(
            FrameError("forward message vanished", t));
      }
      klib::ScaleRow(cur, k, 1.0 / c);
      scale[t] = c;
      loglik += std::log(c) + m;
      if (t % panel == 0) {
        std::memcpy(ws->cp_alpha.row_data(t / panel), cur,
                    k * sizeof(double));
      }
      std::swap(prev, cur);
    }
    *log_likelihood = loglik;
  }

  // Refills panel_btilde for frames [t0, hi] (inclusive — a panel's backward
  // step also reads btilde(t1)) and replays the panel's alpha rows [t0, t1)
  // from the stored checkpoint. Recomputation feeds the identical input bits
  // through the identical deterministic kernels, so the replayed rows equal
  // the full path's bit for bit. Pass 1 already vetted every frame, but the
  // emissions come back through the provider, so the checks stay.
  auto replay_panel = [&](size_t p, size_t t0, size_t t1,
                          size_t hi) -> Status {
    for (size_t t = t0; t <= hi; ++t) {
      const double m = kt.exp_shift_row(log_b.row(log_b.ctx, t), k,
                                        ws->panel_btilde.row_data(t - t0));
      if (m == prob::kNegInf) {
        return Status::InvalidArgument(
            FrameError("zero emission probability in every state", t));
      }
    }
    std::memcpy(ws->panel_alpha.row_data(0), ws->cp_alpha.row_data(p),
                k * sizeof(double));
    for (size_t t = t0 + 1; t < t1; ++t) {
      double* row = ws->panel_alpha.row_data(t - t0);
      kt.mat_vec_col_mul(a_t.data(), ws->panel_alpha.row_data(t - 1 - t0),
                         ws->panel_btilde.row_data(t - t0), k, k, row);
      const double c = kt.sum_row(row, k);
      if (!(c > 0.0)) {
        return Status::InvalidArgument(
            FrameError("forward message vanished", t));
      }
      klib::ScaleRow(row, k, 1.0 / c);
    }
    return Status::OK();
  };

  // ---- Pass 2: fused backward / gamma / xi sweep over panels in
  // descending order. Per frame this runs the exact kernel calls of the
  // full path's fused sweep — u = btilde(t+1) * beta(t+1) / c_{t+1}, then
  // the row-dots and xi row-axpys — and xi accumulates in the same globally
  // descending t order, so xi_sum matches the full path bitwise.
  const bool want_ascending = sinks.on_gamma_ascending != nullptr;
  if (want_ascending) ws->cp_beta.Resize(num_panels, k);
  double* beta_next = ws->cp_beta_next.data();  // beta_hat(f + 1) carry
  double* beta_cur = ws->cp_beta_cur.data();
  double* gamma_row = ws->cp_gamma.data();
  double* u = ws->frame_u.data();
  for (size_t p = num_panels; p-- > 0;) {
    const size_t t0 = p * panel;
    const size_t t1 = std::min(big_t, t0 + panel);
    const size_t hi = std::min(t1, big_t - 1);
    DHMM_RETURN_NOT_OK(replay_panel(p, t0, t1, hi));
    size_t f = t1;  // next frame processed by the descent is f - 1
    if (p + 1 == num_panels) {
      // Backward base case, exactly as the full path: beta(T-1) = 1.
      for (size_t i = 0; i < k; ++i) beta_next[i] = 1.0;
      if (!GammaRow(kt, ws->panel_alpha.row_data(big_t - 1 - t0), beta_next,
                    k, gamma_row)) {
        return Status::InvalidArgument(
            FrameError("posterior mass vanished", big_t - 1));
      }
      sinks.on_gamma(sinks.gamma_ctx, big_t - 1, gamma_row);
      f = big_t - 1;
    }
    while (f-- > t0) {
      kt.mul_row_scaled_into(ws->panel_btilde.row_data(f + 1 - t0),
                             beta_next, 1.0 / scale[f + 1], k, u);
      const double* alpha_row = ws->panel_alpha.row_data(f - t0);
      // Same fused backward frame as the full path's sweep — bitwise
      // equality frame by frame depends on it.
      kt.backward_fused(a.data(), u, alpha_row, k, k, beta_cur,
                        xi_sum->data());
      if (!GammaRow(kt, alpha_row, beta_cur, k, gamma_row)) {
        return Status::InvalidArgument(
            FrameError("posterior mass vanished", f));
      }
      sinks.on_gamma(sinks.gamma_ctx, f, gamma_row);
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
  // replay from their stored seed rows through the pass-2 kernel calls, so
  // the gamma rows equal the descending pass bit for bit.
  if (want_ascending) {
    ws->panel_beta.Resize(panel, k);
    for (size_t p = 0; p < num_panels; ++p) {
      const size_t t0 = p * panel;
      const size_t t1 = std::min(big_t, t0 + panel);
      const size_t hi = std::min(t1, big_t - 1);
      DHMM_RETURN_NOT_OK(replay_panel(p, t0, t1, hi));
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
        kt.mul_row_scaled_into(ws->panel_btilde.row_data(f + 1 - t0),
                               beta_up, 1.0 / scale[f + 1], k, u);
        kt.mat_vec_col(a.data(), u, k, k, ws->panel_beta.row_data(f - t0));
      }
      for (size_t t = t0; t < t1; ++t) {
        if (!GammaRow(kt, ws->panel_alpha.row_data(t - t0),
                      ws->panel_beta.row_data(t - t0), k, gamma_row)) {
          return Status::InvalidArgument(
              FrameError("posterior mass vanished", t));
        }
        sinks.on_gamma_ascending(sinks.ascending_ctx, t, gamma_row);
      }
    }
  }
  return Status::OK();
}

Status TryForwardBackwardCheckpointed(const linalg::Vector& pi,
                                      const linalg::Matrix& a,
                                      const linalg::Matrix& log_b,
                                      size_t panel_frames,
                                      InferenceWorkspace* ws,
                                      ForwardBackwardResult* out) {
  DHMM_CHECK(out != nullptr);
  out->gamma.Resize(log_b.rows(), log_b.cols());
  CheckpointedGammaSinks sinks;
  sinks.on_gamma = [](void* ctx, size_t t, const double* row) {
    auto* gamma = static_cast<linalg::Matrix*>(ctx);
    std::memcpy(gamma->row_data(t), row, gamma->cols() * sizeof(double));
  };
  sinks.gamma_ctx = &out->gamma;
  return TryForwardBackwardCheckpointed(pi, a, MatrixLogBRows(log_b),
                                        panel_frames, ws, sinks,
                                        &out->xi_sum, &out->log_likelihood);
}

Status TryLogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                        const linalg::Matrix& log_b, InferenceWorkspace* ws,
                        double* out) {
  // Same per-frame kernel-call sequence either way, so delegating to the
  // rows form is bitwise-neutral.
  return TryLogLikelihoodRows(pi, a, MatrixLogBRows(log_b), ws, out);
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
  double* alpha = ws->alpha.data();
  double* next = ws->alpha_next.data();
  double* btilde = ws->frame.data();
  const linalg::Matrix& a_t = ws->transition.Transpose(a);
  const klib::KernelTable& kt = klib::ForK(k);

  // One frame of shifted emissions at a time: the forward-only pass never
  // revisits a frame, so a full T x k cache would be wasted work.
  auto shifted = [&](size_t t) {
    return kt.exp_shift_row(log_b.row(log_b.ctx, t), k, btilde);
  };

  double loglik = 0.0;
  double m = shifted(0);
  if (m == prob::kNegInf) {
    return Status::InvalidArgument(
        FrameError("zero emission probability in every state", 0));
  }
  klib::MulRowInto(pi.data(), btilde, k, alpha);
  double c = kt.sum_row(alpha, k);
  if (!(c > 0.0)) {
    return Status::InvalidArgument(
        FrameError("forward message vanished", 0));
  }
  klib::ScaleRow(alpha, k, 1.0 / c);
  loglik += std::log(c) + m;
  for (size_t t = 1; t < big_t; ++t) {
    m = shifted(t);
    if (m == prob::kNegInf) {
      return Status::InvalidArgument(
          FrameError("zero emission probability in every state", t));
    }
    kt.mat_vec_col_mul(a_t.data(), alpha, btilde, k, k, next);
    c = kt.sum_row(next, k);
    if (!(c > 0.0)) {
      return Status::InvalidArgument(
          FrameError("forward message vanished", t));
    }
    klib::ScaleRowInto(next, 1.0 / c, k, alpha);
    loglik += std::log(c) + m;
  }
  *out = loglik;
  return Status::OK();
}

double LogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b, InferenceWorkspace* ws) {
  double out = 0.0;
  Status st = TryLogLikelihood(pi, a, log_b, ws, &out);
  DHMM_CHECK_MSG(st.ok(), st.message().c_str());
  return out;
}

double LogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b) {
  InferenceWorkspace ws;
  return LogLikelihood(pi, a, log_b, &ws);
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

void Viterbi(const linalg::Vector& pi, const linalg::Matrix& a,
             const linalg::Matrix& log_b, InferenceWorkspace* ws,
             ViterbiResult* out) {
  Status st = TryViterbi(pi, a, log_b, ws, out);
  DHMM_CHECK_MSG(st.ok(), st.message().c_str());
}

ViterbiResult Viterbi(const linalg::Vector& pi, const linalg::Matrix& a,
                      const linalg::Matrix& log_b) {
  InferenceWorkspace ws;
  ViterbiResult out;
  Viterbi(pi, a, log_b, &ws, &out);
  return out;
}

}  // namespace dhmm::hmm

#include "hmm/posterior_decoding.h"

#include "linalg/kernels.h"
#include "util/check.h"

namespace dhmm::hmm {

Status TryPosteriorDecodeRows(const linalg::Vector& pi,
                              const linalg::Matrix& a, const LogBRows& log_b,
                              size_t panel_frames, InferenceWorkspace* ws,
                              double* log_lik, std::vector<int>* path) {
  DHMM_CHECK(path != nullptr && log_lik != nullptr);
  path->resize(log_b.frames);
  struct Ctx {
    std::vector<int>* path;
    size_t k;
  } ctx{path, log_b.states};
  CheckpointedGammaSinks sinks;
  // Argmax per gamma row as the backward sweep emits it (descending t; the
  // per-frame argmax is order-independent). Lowest index wins ties.
  sinks.on_gamma = [](void* c, size_t t, const double* gamma_row) {
    auto* s = static_cast<Ctx*>(c);
    (*s->path)[t] =
        static_cast<int>(linalg::kernels::ArgMaxRow(gamma_row, s->k));
  };
  sinks.gamma_ctx = &ctx;
  return TryForwardBackwardCheckpointed(pi, a, log_b, panel_frames, ws, sinks,
                                        /*xi_sum=*/nullptr, log_lik);
}

Status TryPosteriorDecode(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b, InferenceWorkspace* ws,
                          ForwardBackwardResult* fb, std::vector<int>* path) {
  DHMM_CHECK(fb != nullptr);
  return TryPosteriorDecodeRows(pi, a, MatrixLogBRows(log_b), log_b.rows(), ws,
                                &fb->log_likelihood, path);
}

}  // namespace dhmm::hmm

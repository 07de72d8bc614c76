#include "hmm/posterior_decoding.h"

#include "linalg/kernels.h"
#include "util/check.h"

namespace dhmm::hmm {

Status TryPosteriorDecode(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b,
                          InferenceWorkspace* ws, ForwardBackwardResult* fb,
                          std::vector<int>* path) {
  DHMM_RETURN_NOT_OK(TryForwardBackward(pi, a, log_b, ws, fb));
  const size_t big_t = log_b.rows();
  const size_t k = log_b.cols();
  path->resize(big_t);
  for (size_t t = 0; t < big_t; ++t) {
    // Lowest index wins ties, matching the Viterbi tie-break contract.
    (*path)[t] =
        static_cast<int>(linalg::kernels::ArgMaxRow(fb->gamma.row_data(t), k));
  }
  return Status::OK();
}

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
  // per-frame argmax is order-independent). Lowest index wins ties, same
  // as ArgMaxRow over the materialized gamma.
  sinks.on_gamma = [](void* c, size_t t, const double* gamma_row) {
    auto* s = static_cast<Ctx*>(c);
    (*s->path)[t] =
        static_cast<int>(linalg::kernels::ArgMaxRow(gamma_row, s->k));
  };
  sinks.gamma_ctx = &ctx;
  return TryForwardBackwardCheckpointed(pi, a, log_b, panel_frames, ws,
                                        sinks, &ws->cp_xi, log_lik);
}

}  // namespace dhmm::hmm

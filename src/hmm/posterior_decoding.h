// Posterior (max-marginal) decoding — the standard alternative to Viterbi.
//
// Viterbi maximizes the joint path probability; posterior decoding picks
// argmax_i q(X_t = i | Y) per frame, which maximizes the expected number of
// correct frames. The paper reports Viterbi decodes; the decoder-ablation
// bench compares both.
#ifndef DHMM_HMM_POSTERIOR_DECODING_H_
#define DHMM_HMM_POSTERIOR_DECODING_H_

#include <vector>

#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/sequence.h"
#include "util/check.h"

namespace dhmm::hmm {

/// \brief Per-frame argmax of the posterior marginals gamma. Runs
/// forward-backward through `ws`, leaves the marginals in `*fb`, and writes
/// the per-frame argmax into `*path` (lowest state index on ties, matching
/// Vector::argmax). An impossible sequence returns InvalidArgument (see
/// TryForwardBackward), never a process abort.
Status TryPosteriorDecode(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b,
                          InferenceWorkspace* ws, ForwardBackwardResult* fb,
                          std::vector<int>* path);

/// \brief Posterior decode over a LogBRows provider with `panel_frames`-wide
/// panels (0 = ceil(sqrt(T)), O(sqrt(T) * k) workspace): bitwise identical
/// paths to TryPosteriorDecode. Each gamma row is argmaxed the moment the
/// backward sweep produces it (ties to the lowest state index, same
/// contract as TryPosteriorDecode), so no T x k gamma matrix ever exists;
/// the log-likelihood lands in *log_lik. xi lands in ws->cp_xi (computed
/// anyway by the fused sweep).
Status TryPosteriorDecodeRows(const linalg::Vector& pi,
                              const linalg::Matrix& a, const LogBRows& log_b,
                              size_t panel_frames, InferenceWorkspace* ws,
                              double* log_lik, std::vector<int>* path);

/// \brief Posterior-decodes every sequence in a dataset; aborts with the
/// Status message on a sequence the model cannot explain.
template <typename Obs>
std::vector<std::vector<int>> PosteriorDecodeDataset(
    const HmmModel<Obs>& model, const Dataset<Obs>& data) {
  InferenceWorkspace ws;
  ForwardBackwardResult fb;
  std::vector<std::vector<int>> paths(data.size());
  for (size_t s = 0; s < data.size(); ++s) {
    model.emission->LogProbTableInto(data[s].obs, &ws.log_b);
    const Status st =
        TryPosteriorDecode(model.pi, model.a, ws.log_b, &ws, &fb, &paths[s]);
    DHMM_CHECK_MSG(st.ok(), st.message().c_str());
  }
  return paths;
}

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_POSTERIOR_DECODING_H_

// Posterior (max-marginal) decoding — the standard alternative to Viterbi.
//
// Viterbi maximizes the joint path probability; posterior decoding picks
// argmax_i q(X_t = i | Y) per frame, which maximizes the expected number of
// correct frames. The paper reports Viterbi decodes; the decoder-ablation
// bench compares both.
#ifndef DHMM_HMM_POSTERIOR_DECODING_H_
#define DHMM_HMM_POSTERIOR_DECODING_H_

#include <vector>

#include "hmm/emission_rows.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/sequence.h"
#include "util/check.h"

namespace dhmm::hmm {

/// \brief Posterior decode over a LogBRows provider with `panel_frames`-wide
/// panels (0 = ceil(sqrt(T)), O(sqrt(T) * k) workspace; every width gives
/// the same bits). Runs the sweep without an xi sum and argmaxes each gamma
/// row the moment the backward sweep produces it (lowest state index on
/// ties, matching the Viterbi tie-break), so neither xi nor a T x k gamma
/// matrix exists; the log-likelihood lands in *log_lik. An impossible
/// sequence returns InvalidArgument (see TryForwardBackward), never a
/// process abort.
Status TryPosteriorDecodeRows(const linalg::Vector& pi,
                              const linalg::Matrix& a, const LogBRows& log_b,
                              size_t panel_frames, InferenceWorkspace* ws,
                              double* log_lik, std::vector<int>* path);

/// \brief TryPosteriorDecodeRows over a T x k table with one panel. Only
/// fb->log_likelihood is written: fb->gamma and fb->xi_sum are not filled.
Status TryPosteriorDecode(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b, InferenceWorkspace* ws,
                          ForwardBackwardResult* fb, std::vector<int>* path);

/// \brief Posterior-decodes every sequence in a dataset, one emission row
/// at a time with one panel; aborts with the Status message on a sequence
/// the model cannot explain.
template <typename Obs>
std::vector<std::vector<int>> PosteriorDecodeDataset(
    const HmmModel<Obs>& model, const Dataset<Obs>& data) {
  InferenceWorkspace ws;
  std::vector<std::vector<int>> paths(data.size());
  for (size_t s = 0; s < data.size(); ++s) {
    EmissionLogBRows<Obs> rows{model.emission.get(), &data[s].obs,
                               &ws.log_b_row};
    double log_lik = 0.0;
    const Status st = TryPosteriorDecodeRows(model.pi, model.a, rows.View(),
                                             data[s].length(), &ws, &log_lik,
                                             &paths[s]);
    DHMM_CHECK_MSG(st.ok(), st.message().c_str());
  }
  return paths;
}

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_POSTERIOR_DECODING_H_

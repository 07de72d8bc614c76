// Test-only: the hmm::Try* inference forms with their Status checked.
//
// Tests whose inputs the model can explain by construction call these so
// they read like the math. Each aborts the test binary with the Status
// message on a non-OK status, exactly like a failed DHMM_CHECK. The value
// forms run on a fresh workspace; LogLikelihood also takes a caller's
// workspace, and Ok() checks a Try* call that writes into caller buffers
// (the allocation-pinned suites). LogProbTable returns the T x k emission
// table that LogProbTableInto fills.
#ifndef DHMM_TESTS_CHECKED_INFERENCE_H_
#define DHMM_TESTS_CHECKED_INFERENCE_H_

#include <vector>

#include "hmm/inference.h"
#include "hmm/posterior_decoding.h"
#include "linalg/matrix.h"
#include "prob/emission.h"
#include "util/check.h"
#include "util/status.h"

namespace dhmm::checked {

inline void Ok(const Status& st) {
  DHMM_CHECK_MSG(st.ok(), st.message().c_str());
}

template <typename Obs>
linalg::Matrix LogProbTable(const prob::EmissionModel<Obs>& emission,
                            const std::vector<Obs>& seq) {
  linalg::Matrix table;
  emission.LogProbTableInto(seq, &table);
  return table;
}

inline hmm::ForwardBackwardResult ForwardBackward(const linalg::Vector& pi,
                                                  const linalg::Matrix& a,
                                                  const linalg::Matrix& log_b) {
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult out;
  Ok(hmm::TryForwardBackward(pi, a, log_b, &ws, &out));
  return out;
}

inline double LogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                            const linalg::Matrix& log_b,
                            hmm::InferenceWorkspace* ws) {
  double out = 0.0;
  Ok(hmm::TryLogLikelihoodRows(pi, a, hmm::MatrixLogBRows(log_b), ws, &out));
  return out;
}

inline double LogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                            const linalg::Matrix& log_b) {
  hmm::InferenceWorkspace ws;
  return LogLikelihood(pi, a, log_b, &ws);
}

inline hmm::ViterbiResult Viterbi(const linalg::Vector& pi,
                                  const linalg::Matrix& a,
                                  const linalg::Matrix& log_b) {
  hmm::InferenceWorkspace ws;
  hmm::ViterbiResult out;
  Ok(hmm::TryViterbi(pi, a, log_b, &ws, &out));
  return out;
}

inline std::vector<int> PosteriorDecode(const linalg::Vector& pi,
                                        const linalg::Matrix& a,
                                        const linalg::Matrix& log_b) {
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  std::vector<int> path;
  Ok(hmm::TryPosteriorDecode(pi, a, log_b, &ws, &fb, &path));
  return path;
}

}  // namespace dhmm::checked

#endif  // DHMM_TESTS_CHECKED_INFERENCE_H_

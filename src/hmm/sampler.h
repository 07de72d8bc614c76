// Ancestral sampling from an HMM — used by every synthetic data generator.
#ifndef DHMM_HMM_SAMPLER_H_
#define DHMM_HMM_SAMPLER_H_

#include "hmm/model.h"
#include "hmm/sequence.h"
#include "prob/rng.h"
#include "util/check.h"

namespace dhmm::hmm {

/// \brief Samples one length-T sequence (with its true labels retained).
template <typename Obs>
Sequence<Obs> SampleSequence(const HmmModel<Obs>& model, size_t length,
                             prob::Rng& rng) {
  DHMM_CHECK(length > 0);
  Sequence<Obs> seq;
  seq.obs.reserve(length);
  seq.labels.reserve(length);
  size_t state = rng.Categorical(model.pi);
  for (size_t t = 0; t < length; ++t) {
    if (t > 0) state = rng.Categorical(model.a.row_data(state), model.a.cols());
    seq.labels.push_back(static_cast<int>(state));
    seq.obs.push_back(model.emission->Sample(state, rng));
  }
  return seq;
}

/// \brief Samples a dataset of `count` sequences, each of length `length`.
template <typename Obs>
Dataset<Obs> SampleDataset(const HmmModel<Obs>& model, size_t count,
                           size_t length, prob::Rng& rng) {
  Dataset<Obs> data;
  data.reserve(count);
  for (size_t n = 0; n < count; ++n) {
    data.push_back(SampleSequence(model, length, rng));
  }
  return data;
}

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_SAMPLER_H_

// Emission-model-backed LogBRows provider for the checkpointed inference
// routines.
//
// LogProbTableInto materializes a T x k table; for T ~ 1e6 that table alone
// defeats the checkpointed sweep's O(sqrt(T) * k) memory bound. This adapter
// computes one frame's log-emission row on demand into a caller-owned k
// scratch vector with the same EmissionModel::LogProbRow call that fills a
// row of LogProbTableInto, so the rows (and therefore everything
// downstream) are bitwise identical to the materialized path.
#ifndef DHMM_HMM_EMISSION_ROWS_H_
#define DHMM_HMM_EMISSION_ROWS_H_

#include <cstddef>
#include <vector>

#include "hmm/inference.h"
#include "linalg/vector.h"
#include "prob/emission.h"
#include "util/check.h"

namespace dhmm::hmm {

/// \brief Streams log p(y_t | X_t = i) rows straight out of an emission
/// model. The provider (and its View) borrow `emission`, `obs` and `row`;
/// all three must outlive any use of the returned LogBRows. `row` is
/// typically a workspace vector (InferenceWorkspace::log_b_row) so repeated
/// sequences stay allocation-free.
template <typename Obs>
struct EmissionLogBRows {
  const prob::EmissionModel<Obs>* emission = nullptr;
  const std::vector<Obs>* obs = nullptr;
  linalg::Vector* row = nullptr;  ///< k scratch, caller-owned

  /// Sizes the scratch row and returns the provider view.
  LogBRows View() {
    DHMM_CHECK(emission != nullptr && obs != nullptr && row != nullptr);
    row->Resize(emission->num_states());
    LogBRows rows;
    rows.row = &EmissionLogBRows::Row;
    rows.ctx = this;
    rows.frames = obs->size();
    rows.states = emission->num_states();
    return rows;
  }

 private:
  static const double* Row(void* ctx, size_t t) {
    auto* self = static_cast<EmissionLogBRows*>(ctx);
    double* out = self->row->data();
    self->emission->LogProbRow((*self->obs)[t], out);
    return out;
  }
};

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_EMISSION_ROWS_H_

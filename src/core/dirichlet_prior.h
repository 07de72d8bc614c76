// Dirichlet-MAP transition updates: the *competing* priors from the paper's
// related work (§2.1) — smoothing (Wang & Schuurmans [50]) and sparseness
// (Bicego et al. [8]) — implemented as drop-in TransitionMStep callbacks so
// ablation benches can compare them against the DPP diversity prior.
#ifndef DHMM_CORE_DIRICHLET_PRIOR_H_
#define DHMM_CORE_DIRICHLET_PRIOR_H_

#include "hmm/trainer.h"
#include "linalg/matrix.h"

namespace dhmm::core {

/// \brief MAP update of a transition row under a symmetric Dirichlet prior
/// with concentration beta:
///   A_ij ∝ max(C_ij + beta - 1, 0).
///
/// beta > 1 smooths rows toward uniform; beta = 1 is maximum likelihood;
/// beta < 1 (the "negative Dirichlet" / entropic prior of [8]) drives small
/// expected counts to exactly zero, i.e. a sparse transition matrix. A row
/// whose entries are all clipped falls back to its ML estimate (the MAP
/// under beta < 1 is at a vertex; ML is the standard tie-break in practice).
linalg::Matrix DirichletMapTransitions(const linalg::Matrix& expected_counts,
                                       double beta);

/// \brief Wraps DirichletMapTransitions as an hmm::TransitionMStep callback.
/// It reports a log prior of 0, so a fit with it tracks the data
/// log-likelihood.
hmm::TransitionMStep MakeDirichletMStep(double beta);

}  // namespace dhmm::core

#endif  // DHMM_CORE_DIRICHLET_PRIOR_H_

// Parallel candidate-sweep driver for independent M-step-heavy work units.
//
// SelectStateCount restarts x k-candidates and cross-validation folds are
// embarrassingly parallel: each unit runs its own full fit and touches no
// shared state. This driver fans such units across the same util::ThreadPool
// the E-step engine uses, hands every worker a persistent
// core::TransitionUpdateWorkspace (so the diversified M-step inside each
// unit stays allocation-free at steady state). Each unit writes its own
// per-unit slot, which the caller reads in ascending unit order after Run.
// Units are claimed dynamically, so the unit -> worker assignment is
// nondeterministic — but because each unit's output depends only on its
// index, results are bitwise identical for every thread count, extending
// the PR 2 engine contract to the M-step.
#ifndef DHMM_CORE_BATCH_MSTEP_H_
#define DHMM_CORE_BATCH_MSTEP_H_

#include <functional>
#include <vector>

#include "core/transition_update.h"
#include "util/thread_pool.h"

namespace dhmm::core {

/// Options for the batched M-step driver.
struct BatchMStepOptions {
  /// Worker threads including the calling thread; 1 runs inline, <= 0
  /// selects std::thread::hardware_concurrency(). Results are identical for
  /// every value.
  int num_threads = 1;
};

/// \brief Persistent pool + per-worker M-step workspaces for fanning out
/// independent training/evaluation units.
///
/// Thread-compatible, not thread-safe: one driver serves one sweep loop.
class BatchMStepDriver {
 public:
  /// Runs one work unit. `ws` is the claiming worker's persistent workspace
  /// (pass it to FitDiversifiedHmm / FitSupervisedDiversified /
  /// UpdateTransitions). The unit must derive all randomness from `unit`
  /// alone and must not touch state shared with other units.
  using UnitFn = std::function<void(TransitionUpdateWorkspace& ws,
                                    size_t unit)>;

  explicit BatchMStepDriver(const BatchMStepOptions& options = {});

  /// \brief Fans units [0, n) across the pool and returns when every unit
  /// has finished.
  void Run(size_t n, const UnitFn& unit_fn);

 private:
  util::ThreadPool pool_;
  std::vector<TransitionUpdateWorkspace> workspaces_;  // one per worker
};

}  // namespace dhmm::core

#endif  // DHMM_CORE_BATCH_MSTEP_H_

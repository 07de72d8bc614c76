#include "core/batch_mstep.h"

#include "util/check.h"

namespace dhmm::core {

BatchMStepDriver::BatchMStepDriver(const BatchMStepOptions& options)
    : pool_(options.num_threads),
      workspaces_(static_cast<size_t>(pool_.num_threads())) {}

void BatchMStepDriver::Run(size_t n, const UnitFn& unit_fn) {
  DHMM_CHECK(unit_fn != nullptr);
  pool_.ParallelFor(n, [&](int worker, size_t unit) {
    unit_fn(workspaces_[static_cast<size_t>(worker)], unit);
  });
}

}  // namespace dhmm::core

// Hungarian algorithm for optimal assignment — used to align inferred state
// ids with gold labels for the paper's 1-to-1 accuracy measure.
#ifndef DHMM_EVAL_HUNGARIAN_H_
#define DHMM_EVAL_HUNGARIAN_H_

#include <vector>

#include "linalg/matrix.h"

namespace dhmm::eval {

/// \brief Minimum-cost perfect assignment on an n x m cost matrix (n <= m).
///
/// Returns `assign` with assign[row] = chosen column (all distinct), using
/// the O(n^2 m) potentials/augmenting-path formulation.
std::vector<int> SolveAssignment(const linalg::Matrix& cost);

/// \brief Maximum-total-value assignment (negates and delegates).
std::vector<int> SolveMaxAssignment(const linalg::Matrix& value);

}  // namespace dhmm::eval

#endif  // DHMM_EVAL_HUNGARIAN_H_

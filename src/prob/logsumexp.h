// The log-domain zero.
#ifndef DHMM_PROB_LOGSUMEXP_H_
#define DHMM_PROB_LOGSUMEXP_H_

#include <limits>

namespace dhmm::prob {

/// Negative infinity, the log-domain zero.
inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace dhmm::prob

#endif  // DHMM_PROB_LOGSUMEXP_H_

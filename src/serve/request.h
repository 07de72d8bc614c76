// The one request/response pair of the serving API.
//
// A decode request is the same type everywhere: in-process callers hand a
// DecodeRequest to DecodeService::Submit, and the wire protocol
// (serve/wire.h) is nothing but a (de)serialization of this pair — the
// header fields of a wire frame are exactly the scalar members below, and
// the payload is the observation sequence / the response body. Adding a
// field here means adding it to the codec, and nowhere else.
#ifndef DHMM_SERVE_REQUEST_H_
#define DHMM_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dhmm::serve {

/// Registry key for a model. Fixed-width so it rides in the wire header.
using ModelId = uint64_t;

/// What a request asks of the model. Values are the wire encoding.
enum class DecodeKind : uint8_t {
  kViterbi = 0,        ///< most likely state path + its log joint
  kPosterior = 1,      ///< per-frame posterior argmax + data log-likelihood
  kLogLikelihood = 2,  ///< data log-likelihood only
  /// Streaming push: the observations extend this connection's resident
  /// fixed-lag session (serve::SessionManager) instead of being decoded as
  /// a standalone sequence. The response carries the smoothed labels that
  /// became available (path) and the running stream log-likelihood (value).
  /// Front-end only — DecodeService rejects it (a session is per-stream
  /// state, not a stateless batch decode).
  kSessionPush = 3,
  /// Stats query: the response's `text` carries the process's rendered
  /// obs::Registry snapshot (obs::RenderText). The observation payload is
  /// ignored (send an empty sequence) and the model id is not routed.
  /// Front-end only — DecodeService rejects it (stats are process state,
  /// not a batch decode).
  kStats = 4,
};

/// \brief One decode request — in-process and on the wire.
///
/// The observation sequence is *borrowed*: it must stay alive and
/// unmodified until the request completes. The wire path points this at a
/// pooled per-request buffer; in-process callers point it at their own
/// vector. Everything else is plain scalars, so a request is trivially
/// copyable and never owns heap state.
template <typename Obs>
struct DecodeRequest {
  uint64_t request_id = 0;   ///< caller-chosen correlation id, echoed back
  ModelId model = 0;         ///< registry key; single-model services ignore
  DecodeKind kind = DecodeKind::kViterbi;
  /// Relative deadline in microseconds from DecodeService::Submit; 0 (or
  /// more than 2^40, about 12 days) = none. A request whose deadline has
  /// passed when its batch is cut is answered DeadlineExceeded without any
  /// decode work.
  uint64_t deadline_micros = 0;
  const std::vector<Obs>* obs = nullptr;  ///< borrowed until completion
};

/// \brief Completed request payload — in-process and on the wire.
///
/// In-process it lives in a pooled slot (valid until the owning
/// DecodeFuture is released, or for the duration of a CompletionHook
/// call); on the wire it is the response frame body.
struct DecodeResponse {
  uint64_t request_id = 0;   ///< echoed from the request
  Status status;             ///< non-OK for rejected requests
  DecodeKind kind = DecodeKind::kViterbi;
  std::vector<int> path;     ///< kViterbi / kPosterior; empty otherwise
  double value = 0.0;        ///< log joint (Viterbi) or log-likelihood
  uint64_t model_version = 0;  ///< which model snapshot served the request
  /// kStats payload: the rendered metrics snapshot. On the wire it rides
  /// the message field (which error responses use for the status
  /// message), so the frame layout is unchanged: an OK response encodes
  /// `text`, a non-OK response encodes status.message().
  std::string text;
};

/// \brief Allocation-free completion callback (function pointer + opaque
/// context). DecodeService calls `fn(ctx, resp)` once per request, after
/// its batch, in slot order; `resp` is valid only during the call. The
/// hook must not block or call back into the service.
struct CompletionHook {
  void (*fn)(void* ctx, const DecodeResponse& resp) = nullptr;
  void* ctx = nullptr;
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_REQUEST_H_

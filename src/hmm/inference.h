// Observation-type-agnostic HMM inference: scaled forward-backward (E-step,
// paper Eqs. 9-10) and Viterbi decoding.
//
// All routines operate on a per-sequence table of emission log-probabilities
// (T x k), which decouples the chain algebra from the emission family and
// makes the recursions testable against brute-force enumeration.
//
// The canonical entry points are the Status-returning Try* forms
// (TryForwardBackward / TryLogLikelihood / TryViterbi): they take an
// InferenceWorkspace whose buffers are reused across calls (zero heap
// traffic after warm-up) and report an impossible sequence as an
// InvalidArgument instead of killing the process — the contract every
// request-facing layer builds on. The aborting conveniences (ForwardBackward
// et al.) are thin wrappers over Try* that DHMM_CHECK the status; they exist
// for training loops and tests whose inputs are trusted by construction, and
// new request-facing code must not use them. The batched EM engine
// (hmm/engine.h) keeps one workspace per worker thread and runs entire
// training jobs without touching the allocator after warm-up.
//
// The inner loops run on the deterministic micro-kernels in linalg/kernels.h
// (restrict pointers, fixed 4-way accumulation order, 64-byte-aligned
// storage): results are bitwise reproducible for a given input regardless of
// workspace reuse or thread count. Viterbi goes further: its per-frame
// kernel has no reduction, so delta, backpointers, path and score are
// bitwise identical under every kernel ISA. Transition-matrix derivatives
// (the transpose used by the forward pass and the row-major log A used by
// Viterbi) are cached in the workspace keyed by the matrix contents, so
// they are rebuilt once per EM iteration instead of once per sequence.
#ifndef DHMM_HMM_INFERENCE_H_
#define DHMM_HMM_INFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace dhmm::hmm {

namespace internal {
/// Formats "<what> at frame <t>" — the shared shape of per-frame Status
/// messages from the Try* inference forms and the streaming decoder
/// (serve tests grep for the "frame <t>" suffix).
std::string FrameError(const char* what, size_t t);
}  // namespace internal

/// \brief Content-keyed cache of derived views of a transition matrix.
///
/// The forward recursion consumes A column-wise (alpha_t = A^T alpha_{t-1})
/// and wants a contiguous row to dot against, so the cache stores A^T.
/// Viterbi broadcasts each predecessor over a contiguous row of log A, so
/// the cache also stores log A, row-major, built lazily with k^2 logs.
/// Both revalidate by bitwise comparison against a snapshot of A, so the
/// rebuild happens once per EM iteration (when the M-step writes a new A)
/// rather than per sequence. Rebuilds are in-place for a fixed k: no
/// steady-state heap allocations.
class TransitionCache {
 public:
  /// Returns A^T, rebuilding iff `a` differs bitwise from the snapshot.
  const linalg::Matrix& Transpose(const linalg::Matrix& a);

  /// Returns elementwise log(A), row-major, with log(0) = -inf, rebuilding
  /// on the same staleness condition (and lazily on first use).
  const linalg::Matrix& Log(const linalg::Matrix& a);

  /// Bumped every time the snapshot is refreshed; tests use this to assert
  /// the cache rebuilds exactly when A changes.
  uint64_t version() const { return version_; }

 private:
  /// Snapshots `a` if it changed; returns true when a rebuild happened.
  bool Sync(const linalg::Matrix& a);

  linalg::Matrix a_copy_;    // bitwise snapshot of A for staleness detection
  linalg::Matrix a_t_;       // A^T
  linalg::Matrix log_a_;     // log(A), built lazily for Viterbi
  bool log_valid_ = false;
  uint64_t version_ = 0;
};

/// \brief Reusable scratch buffers for the inference kernels.
///
/// A workspace is sized lazily by the routine that uses it and only grows:
/// once it has seen the longest sequence in a dataset it never allocates
/// again. Workspaces are cheap to default-construct and must not be shared
/// across threads concurrently (the batched engine keeps one per worker).
struct InferenceWorkspace {
  // Forward-backward scratch.
  linalg::Matrix alpha_hat;  ///< T x k scaled forward messages
  linalg::Matrix beta_hat;   ///< T x k scaled backward messages
  linalg::Matrix btilde;     ///< T x k cached shifted emissions exp(logb - m_t)
  linalg::Vector shift;      ///< T per-frame emission shifts m_t
  linalg::Vector scale;      ///< T forward normalizers c_t
  linalg::Vector frame_u;    ///< k hoisted backward frame product
                             ///< btilde(t+1,.) * beta_hat(t+1,.) / c_{t+1}

  // Cached transition-matrix derivatives (transpose / log A).
  TransitionCache transition;

  // Viterbi scratch.
  linalg::Matrix delta;      ///< T x k best log-joint per state
  std::vector<int> psi;      ///< flat row-major T*k backpointers
  linalg::Vector log_pi;     ///< k log initial distribution

  // Forward-only scratch (LogLikelihood).
  linalg::Vector alpha;      ///< k current forward message
  linalg::Vector alpha_next; ///< k next forward message
  linalg::Vector frame;      ///< k one frame of shifted emissions

  // Cached per-sequence emission table, filled by callers that own the
  // emission model (e.g. the batched EM engine via LogProbTableInto).
  linalg::Matrix log_b;      ///< T x k

  // Checkpointed forward-backward scratch (TryForwardBackwardCheckpointed):
  // everything here is O(sqrt(T) * k) or O(T) scalars, never O(T * k).
  linalg::Matrix cp_alpha;      ///< ceil(T/S) x k alpha checkpoints
  linalg::Matrix cp_beta;       ///< ceil(T/S) x k beta rows at panel starts
  linalg::Matrix panel_alpha;   ///< S x k replayed alpha panel
  linalg::Matrix panel_beta;    ///< S x k replayed beta panel
  linalg::Matrix panel_btilde;  ///< (S+1) x k shifted-emission panel
  linalg::Vector cp_scale;      ///< T forward normalizers c_t
  linalg::Vector cp_beta_next;  ///< k carried beta row across panels
  linalg::Vector cp_beta_cur;   ///< k beta row under construction
  linalg::Vector cp_gamma;      ///< k gamma staging row for the sinks
  linalg::Matrix cp_xi;         ///< k x k xi staging (rows-based decode)
  linalg::Vector log_b_row;     ///< k emission-row staging for LogBRows
};

/// \brief Sequence length at which callers that auto-select (the EM engine,
/// the decode service, FitEm) switch from the full-matrix forward-backward
/// to the checkpointed one. Below this a full T x k workspace is at most a
/// few MB and the full path's single sweep is cheaper; above it the
/// checkpointed path caps workspace memory at O(sqrt(T) * k) for ~2x the
/// frame work. 0 disables checkpointing entirely.
inline constexpr size_t kDefaultCheckpointThresholdFrames = 65536;

/// \brief Row provider for emission log-probabilities: the checkpointed
/// routines pull one frame at a time through `row(ctx, t)` instead of
/// requiring a materialized T x k matrix, so a caller that owns an emission
/// model can run inference on a million-frame sequence without ever building
/// the table. The returned pointer must stay valid until the next `row`
/// call on the same provider. Plain function pointer + context (capture-less
/// lambdas convert) so providers are POD and copyable.
struct LogBRows {
  const double* (*row)(void* ctx, size_t t) = nullptr;
  void* ctx = nullptr;
  size_t frames = 0;  ///< T
  size_t states = 0;  ///< k
};

/// \brief Adapts a materialized T x k log-emission matrix to the LogBRows
/// interface (zero-copy: rows come straight out of the matrix).
LogBRows MatrixLogBRows(const linalg::Matrix& log_b);

/// \brief Gamma-row consumers for the checkpointed sweep. The checkpointed
/// pass cannot hand back a T x k gamma matrix without defeating its own
/// memory bound, so posteriors stream out row by row instead.
///
/// `on_gamma` is required and fires once per frame in DESCENDING t order —
/// the natural order of the backward sweep (this matches the full path's
/// fill order of out->gamma, so any per-frame consumer sees identical bits).
/// `on_gamma_ascending`, when set, triggers a third pass that replays both
/// message panels and fires once per frame in ASCENDING t order — for
/// consumers whose accumulation order matters bitwise (the E-step's
/// emission sufficient statistics accumulate ascending). Rows passed to the
/// callbacks are valid only for the duration of the call.
struct CheckpointedGammaSinks {
  void (*on_gamma)(void* ctx, size_t t, const double* gamma_row) = nullptr;
  void* gamma_ctx = nullptr;
  void (*on_gamma_ascending)(void* ctx, size_t t,
                             const double* gamma_row) = nullptr;
  void* ascending_ctx = nullptr;
};

/// \brief Posterior marginals produced by one forward-backward pass.
struct ForwardBackwardResult {
  /// gamma(t, i) = q(X_t = i | Y)  — unary posteriors, T x k.
  linalg::Matrix gamma;
  /// xi_sum(i, j) = sum_{t=2..T} q(X_{t-1}=i, X_t=j | Y)  — expected
  /// transition counts for the M-step, k x k.
  linalg::Matrix xi_sum;
  /// log P(Y | lambda).
  double log_likelihood = 0.0;
};

/// \brief Runs the scaled forward-backward recursions — the canonical,
/// non-aborting form.
///
/// \param pi     initial state distribution (k).
/// \param a      row-stochastic transition matrix (k x k).
/// \param log_b  emission log-probabilities, log_b(t, i) = log P(y_t | X_t=i).
///
/// A sequence with zero probability under the model — an all-impossible
/// frame, a chain-unreachable frame, or scaled-emission underflow that
/// vanishes the forward mass — returns InvalidArgument naming the frame
/// ("... at frame <t>"), never a process abort; `*out` is unspecified on
/// error. Reuses `ws` buffers (allocation-free after warm-up) and resizes
/// out->gamma / out->xi_sum in place.
///
/// Scaling: each frame's emissions are shifted by their max before
/// exponentiation and the forward messages renormalized per step, so the pass
/// is stable for arbitrarily peaked emissions (e.g. 128-pixel Bernoulli
/// products at log-prob ~ -90). The shifted emissions are computed exactly
/// once per frame into the workspace's cached table and shared by the
/// forward and the fused backward/xi loops; the backward pass and the
/// xi-accumulation run as a single sweep over t that reuses the per-frame
/// product btilde(t+1,.) * beta_hat(t+1,.) / c_{t+1} while it is hot.
Status TryForwardBackward(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b,
                          InferenceWorkspace* ws,
                          ForwardBackwardResult* out);

/// \brief Aborting wrapper over TryForwardBackward for trusted inputs
/// (training loops, tests): DHMM_CHECKs the status. Bitwise-identical
/// results on the OK path. Internal/test convenience — request-facing code
/// uses TryForwardBackward.
void ForwardBackward(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b, InferenceWorkspace* ws,
                     ForwardBackwardResult* out);

/// \brief Aborting convenience that also allocates its own scratch — for
/// one-off calls in tests and offline analysis only.
ForwardBackwardResult ForwardBackward(const linalg::Vector& pi,
                                      const linalg::Matrix& a,
                                      const linalg::Matrix& log_b);

/// \brief Checkpointed forward-backward: identical math and **bitwise
/// identical results** to TryForwardBackward, with workspace memory
/// O(sqrt(T) * k + T) instead of O(T * k).
///
/// The forward pass stores only every S-th scaled alpha row (S =
/// `panel_frames`, defaulting to ceil(sqrt(T)) when 0) plus the T scale
/// factors; the backward/gamma/xi sweep then walks panels in descending
/// order, replaying each panel's alpha rows from its checkpoint through the
/// exact kernel-call sequence of the full path — recomputation from
/// identical input bits through identical deterministic kernels yields
/// identical output bits, so gamma, xi_sum and the log-likelihood match the
/// full path exactly. xi accumulates in descending t order, same as the
/// full path's fused sweep. Error contract of TryForwardBackward
/// (InvalidArgument naming the frame).
///
/// Costs ~2x the frame work of the full path (forward runs twice), plus
/// another ~1.5x when `sinks.on_gamma_ascending` is set (betas replay too).
Status TryForwardBackwardCheckpointed(const linalg::Vector& pi,
                                      const linalg::Matrix& a,
                                      const LogBRows& log_b,
                                      size_t panel_frames,
                                      InferenceWorkspace* ws,
                                      const CheckpointedGammaSinks& sinks,
                                      linalg::Matrix* xi_sum,
                                      double* log_likelihood);

/// \brief Materializing convenience over the checkpointed core: fills a
/// full ForwardBackwardResult (gamma included) from a T x k matrix. Only
/// sensible for tests and small T — it reintroduces the O(T * k) gamma —
/// but it is the workhorse of the bitwise-equality grid.
Status TryForwardBackwardCheckpointed(const linalg::Vector& pi,
                                      const linalg::Matrix& a,
                                      const linalg::Matrix& log_b,
                                      size_t panel_frames,
                                      InferenceWorkspace* ws,
                                      ForwardBackwardResult* out);

/// \brief Forward-only log-likelihood over a LogBRows provider — bitwise
/// identical to TryLogLikelihood on a materialized table, O(k) workspace.
Status TryLogLikelihoodRows(const linalg::Vector& pi, const linalg::Matrix& a,
                            const LogBRows& log_b, InferenceWorkspace* ws,
                            double* out);

/// \brief log P(Y | lambda) only (forward pass) — canonical non-aborting
/// form; error contract of TryForwardBackward.
Status TryLogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                        const linalg::Matrix& log_b, InferenceWorkspace* ws,
                        double* out);

/// \brief Aborting wrapper over TryLogLikelihood for trusted inputs
/// (allocation-free after warm-up). Internal/test convenience.
double LogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b, InferenceWorkspace* ws);

/// \brief Aborting convenience with its own scratch — one-off calls only.
double LogLikelihood(const linalg::Vector& pi, const linalg::Matrix& a,
                     const linalg::Matrix& log_b);

/// \brief Result of Viterbi decoding.
struct ViterbiResult {
  std::vector<int> path;    ///< argmax_X P(X, Y), length T
  double log_joint = 0.0;   ///< log P(X*, Y)
};

/// \brief Most-likely state sequence via the Viterbi recursion (log
/// domain) — canonical non-aborting form. A sequence whose best final
/// score is not finite (no positive-probability path, or a NaN emission
/// row) returns InvalidArgument (see TryForwardBackward).
///
/// Tie-breaking contract: when several predecessors (or final states) attain
/// the same score, the lowest state index wins. Tests pin this so storage
/// rewrites cannot silently change decoded paths. Each frame is one
/// `viterbi_step` of the kernel table for k (linalg/kernels_dispatch.h),
/// bitwise identical under every ISA. Backpointers live in the
/// workspace's flat row-major `psi` buffer (one allocation for the whole
/// table, reused across calls) and log A comes from the workspace's
/// TransitionCache (rebuilt only when A changes).
Status TryViterbi(const linalg::Vector& pi, const linalg::Matrix& a,
                  const linalg::Matrix& log_b, InferenceWorkspace* ws,
                  ViterbiResult* out);

/// \brief Aborting wrapper over TryViterbi for trusted inputs.
/// Internal/test convenience — request-facing code uses TryViterbi.
void Viterbi(const linalg::Vector& pi, const linalg::Matrix& a,
             const linalg::Matrix& log_b, InferenceWorkspace* ws,
             ViterbiResult* out);

/// \brief Aborting convenience with its own scratch — one-off calls only.
ViterbiResult Viterbi(const linalg::Vector& pi, const linalg::Matrix& a,
                      const linalg::Matrix& log_b);

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_INFERENCE_H_

// Observation-type-agnostic HMM inference: scaled forward-backward (E-step,
// paper Eqs. 9-10) and Viterbi decoding.
//
// All routines operate on per-frame emission log-probabilities — a T x k
// table, or a LogBRows provider that yields one row at a time — which
// decouples the chain algebra from the emission family and makes the
// recursions testable against brute-force enumeration.
//
// There is one forward-backward sweep: TryForwardBackwardCheckpointed, the
// checkpoint-and-recompute scheme of Binder, Murphy & Russell ("Space-
// efficient inference in dynamic probabilistic networks", IJCAI 1997). It
// cuts the sequence into S-frame panels, keeps one alpha checkpoint per
// panel, and replays a panel's alpha rows when the backward sweep reaches
// it. Run with one panel (S = T) nothing is ever replayed and it is the
// classic full-table pass, which is all TryForwardBackward is; with S =
// ceil(sqrt(T)) its memory is O(sqrt(T) * k). Either way the per-frame
// kernel calls are the same, so every panel width gives the same bits.
//
// The entry points are the Status-returning Try* forms (TryForwardBackward
// / TryLogLikelihoodRows / TryViterbi), one per operation: they take an
// InferenceWorkspace whose buffers are reused across calls (zero heap
// traffic after warm-up) and report an impossible sequence as an
// InvalidArgument instead of killing the process — the contract every
// request-facing layer builds on. Callers whose inputs are trusted by
// construction (training loops) check the Status themselves. The batched
// EM engine (hmm/engine.h) keeps one workspace per worker thread and runs
// entire training jobs without touching the allocator after warm-up. The
// per-frame steps the sweeps share with the session rings live in
// hmm/chain_steps.h.
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
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace dhmm::hmm {

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
  // Cached transition-matrix derivatives (transpose / log A).
  TransitionCache transition;

  // Viterbi scratch.
  linalg::Matrix delta;      ///< T x k best log-joint per state
  std::vector<int> psi;      ///< flat row-major T*k backpointers
  linalg::Vector log_pi;     ///< k log initial distribution

  // Forward-only scratch (LogLikelihood, and the forward-backward frames
  // before the last panel).
  linalg::Vector alpha;      ///< k current forward message
  linalg::Vector alpha_next; ///< k next forward message
  linalg::Vector frame;      ///< k one frame of shifted emissions

  // Cached per-sequence emission table, filled by callers that own the
  // emission model (e.g. the batched EM engine via LogProbTableInto).
  linalg::Matrix log_b;      ///< T x k

  // Forward-backward scratch for S-frame panels (S = T for the full-table
  // sweep, ceil(sqrt(T)) checkpointed): O(S * k + (T / S) * k) doubles plus
  // T scale factors. Only two beta rows are ever live.
  linalg::Matrix cp_alpha;      ///< ceil(T/S) x k alpha checkpoints
  linalg::Matrix cp_beta;       ///< ceil(T/S) x k beta rows at panel starts
  linalg::Matrix panel_alpha;   ///< S x k scaled alpha panel
  linalg::Matrix panel_beta;    ///< S x k replayed beta panel
  linalg::Matrix panel_btilde;  ///< (S+1) x k shifted emissions exp(logb - m_t)
  linalg::Vector cp_scale;      ///< T forward normalizers c_t
  linalg::Vector frame_u;       ///< k hoisted backward frame product
                                ///< btilde(t+1,.) * beta(t+1,.) / c_{t+1}
  linalg::Vector cp_beta_next;  ///< k carried beta row across panels
  linalg::Vector cp_beta_cur;   ///< k beta row under construction
  linalg::Vector cp_gamma;      ///< k gamma row when the sinks own no matrix
  linalg::Vector log_b_row;     ///< k emission-row staging for LogBRows
};

/// \brief Sequence length at which callers that auto-select (the EM engine,
/// the decode service, FitEm) narrow the forward-backward panel from T to
/// ceil(sqrt(T)) frames. Below this a T x k workspace is at most a few MB
/// and the one-panel sweep, which never replays, is cheaper; above it the
/// sqrt(T) panels cap workspace memory at O(sqrt(T) * k) for ~2x the frame
/// work. 0 keeps one panel for every length.
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

/// \brief Where the forward-backward sweep delivers gamma rows. Every
/// member is optional.
///
/// `gamma_out`, when set, is resized to T x k and each gamma row is
/// normalized straight into row t of it — the full-table result, with no
/// staging copy. Long sequences leave it null so no T x k matrix exists.
/// `on_gamma` fires once per frame in DESCENDING t order — the natural
/// order of the backward sweep — with the row just written (into
/// `gamma_out`, or else a k-row of workspace scratch).
/// `on_gamma_ascending`, when set, triggers a third pass that replays both
/// message panels and fires once per frame in ASCENDING t order — for
/// consumers whose accumulation order matters bitwise (the E-step's
/// emission sufficient statistics accumulate ascending). Rows passed to the
/// callbacks are valid only for the duration of the call.
struct CheckpointedGammaSinks {
  linalg::Matrix* gamma_out = nullptr;
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

/// \brief Runs the scaled forward-backward recursions, never aborting on
/// an impossible sequence. One call of the sweep below with a single panel
/// spanning the sequence and `gamma_out` = out->gamma: the full-table pass.
///
/// \param pi     initial state distribution (k).
/// \param a      row-stochastic transition matrix (k x k).
/// \param log_b  emission log-probabilities, log_b(t, i) = log P(y_t | X_t=i).
///
/// A sequence with zero probability under the model — an all-impossible
/// frame, a chain-unreachable frame, or scaled-emission underflow that
/// vanishes the forward mass — returns InvalidArgument naming the first
/// failing frame ("... at frame <t>"), never a process abort; `*out` is
/// unspecified on error. Reuses `ws` buffers (allocation-free after
/// warm-up) and resizes out->gamma / out->xi_sum in place.
Status TryForwardBackward(const linalg::Vector& pi, const linalg::Matrix& a,
                          const linalg::Matrix& log_b,
                          InferenceWorkspace* ws,
                          ForwardBackwardResult* out);

/// \brief The forward-backward sweep over S-frame panels (S =
/// `panel_frames`, ceil(sqrt(T)) when 0, at most T). Workspace memory is
/// O(S * k + (T / S) * k + T): O(sqrt(T) * k) at the default width.
///
/// Scaling: each frame's emissions are shifted by their max before
/// exponentiation and the forward messages renormalized per step, so the
/// pass is stable for arbitrarily peaked emissions (e.g. 128-pixel
/// Bernoulli products at log-prob ~ -90).
///
/// Pass 1 runs the forward recursion over every frame, keeping the T scale
/// factors, one scaled alpha row per panel start (when there are several),
/// and the whole last panel (its alpha rows and shifted emissions) in the
/// panel buffers. Pass 2 is the backward / gamma sweep over panels in
/// descending order: per frame it forms u = btilde(t+1,.) * beta(t+1,.) /
/// c_{t+1} once, then beta(t) = A u — fused with the frame's xi
/// accumulation in one pass over A when `xi_sum` is set, the beta-only
/// step when it is null (a decode needs only the marginals, and the beta
/// is bitwise the same either way). Each panel but the last is first
/// replayed from its checkpoint through the same forward kernel calls —
/// identical input bits through identical deterministic kernels give
/// identical output bits — so every panel width, one panel included,
/// yields the same gamma, xi_sum (accumulated in descending t) and
/// log-likelihood. Error contract of TryForwardBackward.
///
/// Each extra panel costs one replay of its forward frames (~2x the frame
/// work at the default width), plus another ~1.5x when
/// `sinks.on_gamma_ascending` is set (betas replay too).
Status TryForwardBackwardCheckpointed(const linalg::Vector& pi,
                                      const linalg::Matrix& a,
                                      const LogBRows& log_b,
                                      size_t panel_frames,
                                      InferenceWorkspace* ws,
                                      const CheckpointedGammaSinks& sinks,
                                      linalg::Matrix* xi_sum,
                                      double* log_likelihood);

/// \brief log P(Y | lambda) only: the forward pass over a LogBRows
/// provider (MatrixLogBRows for a materialized table), O(k) workspace, the
/// same bits as the sweep's log-likelihood. Error contract of
/// TryForwardBackward.
Status TryLogLikelihoodRows(const linalg::Vector& pi, const linalg::Matrix& a,
                            const LogBRows& log_b, InferenceWorkspace* ws,
                            double* out);

/// \brief Result of Viterbi decoding.
struct ViterbiResult {
  std::vector<int> path;    ///< argmax_X P(X, Y), length T
  double log_joint = 0.0;   ///< log P(X*, Y)
};

/// \brief Most-likely state sequence via the Viterbi recursion (log
/// domain). A sequence whose best final score is not finite (no
/// positive-probability path, or a NaN emission row) returns
/// InvalidArgument (see TryForwardBackward).
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

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_INFERENCE_H_

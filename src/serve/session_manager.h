// Online sequential labeling: a slab-allocated pool of fixed-lag smoothing
// sessions over one hot-swappable model.
//
// A session consumes one observation per Push and emits the smoothed
// posterior-argmax label for the frame `lag` steps behind the stream head:
// label(t - lag) = argmax_i q(X_{t-lag} = i | y_0..y_t). Finish flushes the
// labels still inside the lag window. One session is the whole single-
// stream decoder; a SessionManager holds 1e5+ of them.
//
// Session bookkeeping lives in dense slabs of Slot records (grow-only,
// pointer-stable) addressed by generation-stamped handles — a handle packs
// {index, generation}, and a destroyed slot bumps its generation, so a
// stale handle resolves to NotFound instead of someone else's stream.
// Every session's numeric working set (the ring-buffer layout of
// serve/stream_math.h) is carved out of one 64-byte-aligned block from a
// grow-only per-shape util::SlabArena, so CreateSession / DestroySession
// are O(1) free-list operations and — once the pool has reached its
// high-water mark — allocation-free, as is every steady-state Push
// (tests/session_test.cc pins both with the instrumented allocator).
//
// The math (serve/stream_math.h) runs the offline sweep's own per-frame
// steps (hmm/chain_steps.h) over ring buffers, so the bitwise contracts
// hold by construction: per-session log-likelihood is bitwise equal to
// offline hmm::TryLogLikelihoodRows on every prefix, and full-lag decodes are
// bitwise equal to offline hmm::TryPosteriorDecode.
//
// Concurrency: CreateSession / DestroySession / EvictIdle / UpdateModel /
// ResetSession serialize on one mutex; Push and Finish take the mutex only
// to resolve the handle and stamp activity, then run the numeric work
// outside it, so pushes on distinct sessions proceed in parallel. One
// session has one pusher. An in-flight push holds a per-slot counter that
// eviction respects: EvictIdle never touches a session whose push is still
// running.
//
// Idle eviction is generation-stamped LRU: every push stamps its session
// with a fresh tick from a monotonic counter, and EvictIdle(idle_before)
// destroys every idle session last active before that tick — callers
// snapshot tick() and sweep on whatever cadence they like.
//
// The train→serve loop: attach a core::IncrementalEmTrainer and every
// emitted label also feeds its smoothed posterior (gamma, and the fixed-
// lag xi term) plus the raw observation into the trainer's stepwise
// E-step accumulator; periodic trainer Step()s hand back new snapshots to
// UpdateModel here and on DecodeService/ModelRegistry.
#ifndef DHMM_SERVE_SESSION_MANAGER_H_
#define DHMM_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental_em.h"
#include "hmm/chain_steps.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "linalg/kernels_dispatch.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "serve/stream_math.h"
#include "util/check.h"
#include "util/slab_arena.h"
#include "util/status.h"

namespace dhmm::serve {

/// Opaque session handle: {generation:32 | index:32}. Value 0 is never
/// issued (generations start at 1), so a zero handle is always invalid.
using SessionHandle = uint64_t;
inline constexpr SessionHandle kInvalidSessionHandle = 0;

/// Options for the session pool. Validate()-checked POD like every serve
/// options struct.
struct SessionManagerOptions {
  /// Smoothing lag L shared by all sessions: the label for frame t is
  /// emitted after seeing frame t + L. 0 emits filtered (forward-only)
  /// labels immediately; larger lags trade latency — and compute: exact
  /// fixed-lag smoothing re-runs the backward sweep over the window,
  /// O(L * k^2) per pushed frame — for accuracy. A lag >= T - 1 reproduces
  /// offline posterior decoding exactly (labels then all come from
  /// Finish, one O(T * k^2) sweep). Ring storage is (L + 1) x k doubles
  /// per session, so the lag is bounded by kMaxLag.
  size_t lag = 8;

  Status Validate() const {
    if (lag > kMaxLag) {
      return Status::InvalidArgument(
          "SessionManagerOptions::lag is absurdly large");
    }
    return Status::OK();
  }
};

/// \brief Slab-allocated pool of fixed-lag smoothing sessions.
template <typename Obs>
class SessionManager {
 public:
  explicit SessionManager(std::shared_ptr<const hmm::HmmModel<Obs>> model,
                          const SessionManagerOptions& options = {})
      : options_(options) {
    const Status opt_st = options.Validate();
    DHMM_CHECK_MSG(opt_st.ok(), opt_st.message().c_str());
    DHMM_CHECK_MSG(model != nullptr, "SessionManager requires a model");
    ctx_ = MakeContext(std::move(model), /*version=*/1);
    obs::Registry& reg = obs::Registry::Global();
    m_created_ = reg.GetCounter("sessions.created");
    m_destroyed_ = reg.GetCounter("sessions.destroyed");
    m_evicted_ = reg.GetCounter("sessions.evicted");
    m_pushes_ = reg.GetCounter("sessions.pushes");
    g_live_ = reg.GetGauge("sessions.live");
    g_inflight_ = reg.GetGauge("sessions.inflight");
    g_slab_bytes_ = reg.GetGauge("sessions.slab_bytes");
  }

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// \brief O(1): pops a recycled slot (or carves a new one) and binds it
  /// to the current model snapshot. Allocation-free once both the slot
  /// pool and the shape's arena have reached their high-water marks.
  Result<SessionHandle> CreateSession() {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t idx;
    if (!free_slots_.empty()) {
      idx = free_slots_.back();
      free_slots_.pop_back();
    } else {
      if (slot_count_ >= kMaxSessions) {
        return Status::Unavailable("session pool exhausted");
      }
      if (slot_count_ % kSessionsPerSlab == 0) {
        slot_slabs_.push_back(std::make_unique<Slot[]>(kSessionsPerSlab));
      }
      idx = static_cast<uint32_t>(slot_count_++);
    }
    Slot& s = SlotAt(idx);
    if (++s.generation == 0) ++s.generation;  // never issue generation 0
    s.live = true;
    s.ctx = ctx_;
    AttachBlockLocked(&s);
    s.obs_ring.resize(s.ctx->window);  // grow-only per slot
    ResetStreamState(&s);
    s.last_active = ++ticks_;
    ++live_;
    m_created_->Add();
    g_live_->Set(static_cast<double>(live_));
    return MakeHandle(idx, s.generation);
  }

  /// \brief O(1): recycles the slot and returns its ring block to the
  /// shape's arena. Refuses (FailedPrecondition) while a push on this
  /// session is still in flight.
  Status DestroySession(SessionHandle h) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* s = ResolveLocked(h);
    if (s == nullptr) return Status::NotFound(kUnknownSession);
    if (s->inflight.load(std::memory_order_acquire) != 0) {
      return Status::FailedPrecondition("session has an in-flight push");
    }
    DestroyLocked(s, static_cast<uint32_t>(h));
    return Status::OK();
  }

  /// \brief Consumes one observation on a session. On return *label_out
  /// is the smoothed label for frame t - lag, or -1 while the frame is
  /// still inside the lag window. A rejected frame (zero probability in
  /// every state, or a vanished forward message) is InvalidArgument, is
  /// not consumed, and poisons only this session: further pushes return
  /// its status until ResetSession. One bad frame on a live stream must
  /// never abort the serving process. Steady-state OK-path pushes are
  /// allocation-free.
  Status Push(SessionHandle h, const Obs& y, int* label_out) {
    DHMM_CHECK(label_out != nullptr);
    *label_out = -1;
    Slot* s;
    core::IncrementalEmTrainer<Obs>* trainer;
    {
      std::lock_guard<std::mutex> lock(mu_);
      s = ResolveLocked(h);
      if (s == nullptr) return Status::NotFound(kUnknownSession);
      if (s->finished) {
        return Status::FailedPrecondition(
            "Push after Finish — ResetSession first");
      }
      if (!s->status.ok()) return s->status;
      s->last_active = ++ticks_;
      s->inflight.fetch_add(1, std::memory_order_relaxed);
      trainer = trainer_;  // snapshot under mu_; the body runs outside it
    }
    m_pushes_->Add();
    g_inflight_->Add(1.0);
    const Status st = PushHeld(s, y, label_out, trainer);
    g_inflight_->Add(-1.0);
    s->inflight.fetch_sub(1, std::memory_order_release);
    return st;
  }

  /// \brief Flushes the lag window's remaining labels (smoothed against the
  /// final frame, appended to *tail in stream order, one O(lag * k^2)
  /// backward sweep) and marks the session finished until ResetSession.
  /// Returns the session's poisoned status, appending nothing, when the
  /// flush fails or the stream was already bad.
  Status Finish(SessionHandle h, std::vector<int>* tail) {
    DHMM_CHECK(tail != nullptr);
    Slot* s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      s = ResolveLocked(h);
      if (s == nullptr) return Status::NotFound(kUnknownSession);
      s->last_active = ++ticks_;
      s->inflight.fetch_add(1, std::memory_order_relaxed);
    }
    g_inflight_->Add(1.0);
    const Status st = FinishHeld(s, tail);
    g_inflight_->Add(-1.0);
    s->inflight.fetch_sub(1, std::memory_order_release);
    return st;
  }

  /// \brief Restarts a session's stream in place: keeps the slot and its
  /// warm ring block, clears frames/likelihood/error/finish state, and
  /// adopts the manager's current model snapshot (allocation-free when
  /// the shape is unchanged), so a finished or poisoned stream is reused
  /// without reconstruction.
  Status ResetSession(SessionHandle h) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* s = ResolveLocked(h);
    if (s == nullptr) return Status::NotFound(kUnknownSession);
    if (s->inflight.load(std::memory_order_acquire) != 0) {
      return Status::FailedPrecondition("session has an in-flight push");
    }
    if (s->ctx != ctx_) {
      s->ctx = ctx_;
      AttachBlockLocked(s);
      s->obs_ring.resize(s->ctx->window);
    }
    ResetStreamState(s);
    s->last_active = ++ticks_;
    return Status::OK();
  }

  /// \brief Generation-stamped LRU sweep: destroys every idle session
  /// whose last activity tick is older than `idle_before`, skipping any
  /// session with an in-flight push. Returns the number evicted. O(pool)
  /// scan under the pool mutex — pushes on other threads only contend for
  /// their short handle-resolution window.
  size_t EvictIdle(uint64_t idle_before) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t evicted = 0;
    for (size_t idx = 0; idx < slot_count_; ++idx) {
      Slot& s = SlotAt(idx);
      if (!s.live || s.last_active >= idle_before) continue;
      if (s.inflight.load(std::memory_order_acquire) != 0) continue;
      DestroyLocked(&s, static_cast<uint32_t>(idx));
      ++evicted;
    }
    if (evicted != 0) m_evicted_->Add(evicted);
    return evicted;
  }

  /// \brief RCU hot-swap: new sessions (and ResetSession) bind to this
  /// snapshot; existing sessions keep the snapshot they started on — a
  /// chain posterior is not well-defined across two models, so live
  /// streams finish on the model they started with.
  void UpdateModel(std::shared_ptr<const hmm::HmmModel<Obs>> model) {
    DHMM_CHECK_MSG(model != nullptr, "SessionManager requires a model");
    std::lock_guard<std::mutex> lock(mu_);
    ctx_ = MakeContext(std::move(model), ctx_->version + 1);
  }

  /// \brief Attaches the incremental-EM trainer: every label emitted by a
  /// Push also feeds its smoothed posterior (and, at lag >= 1, the fixed-
  /// lag transition posterior) into the trainer's accumulator. The
  /// trainer's state count must match the serving model's.
  void AttachTrainer(core::IncrementalEmTrainer<Obs>* trainer) {
    std::lock_guard<std::mutex> lock(mu_);
    trainer_ = trainer;
  }

  /// The current model snapshot (what new sessions bind to).
  std::shared_ptr<const hmm::HmmModel<Obs>> ModelSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ctx_->model;
  }

  /// Version of the current snapshot: 1 at construction, bumped by every
  /// UpdateModel.
  uint64_t model_version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ctx_->version;
  }

  /// Version of the snapshot session `h` decodes with: the model_version()
  /// at its CreateSession or last ResetSession.
  Result<uint64_t> ModelVersion(SessionHandle h) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Slot* s = const_cast<SessionManager*>(this)->ResolveLocked(h);
    if (s == nullptr) return Status::NotFound(kUnknownSession);
    return s->ctx->version;
  }

  /// Running log P(y_0..y_{t-1}) of a session — bitwise equal to offline
  /// hmm::TryLogLikelihoodRows on the same prefix.
  Result<double> LogLikelihood(SessionHandle h) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Slot* s = const_cast<SessionManager*>(this)->ResolveLocked(h);
    if (s == nullptr) return Status::NotFound(kUnknownSession);
    return s->log_likelihood;
  }

  /// Frames consumed by a session so far.
  Result<uint64_t> FramesPushed(SessionHandle h) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Slot* s = const_cast<SessionManager*>(this)->ResolveLocked(h);
    if (s == nullptr) return Status::NotFound(kUnknownSession);
    return static_cast<uint64_t>(s->frames_pushed);
  }

  /// Live sessions resident right now.
  size_t live_sessions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }

  /// Current activity tick (stamped into sessions by Push/Finish/Create).
  uint64_t tick() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ticks_;
  }

  /// High-water slot count (for pool growth diagnostics).
  size_t slot_capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slot_count_;
  }

 private:
  static constexpr size_t kMaxSessions = size_t{1} << 31;
  // Slot records per pool slab and ring blocks per arena slab: larger
  // slabs mean fewer growth events on the way to the high-water mark.
  static constexpr size_t kSessionsPerSlab = 1024;
  static constexpr size_t kArenaBlocksPerSlab = 1024;
  static constexpr const char* kUnknownSession =
      "unknown or evicted session handle";

  // Immutable per-model-snapshot context shared by every session bound to
  // it: the model, its transition transpose (built once per swap), and the
  // derived ring shape.
  struct ModelContext {
    std::shared_ptr<const hmm::HmmModel<Obs>> model;
    hmm::TransitionCache transition;
    const linalg::Matrix* a_t = nullptr;  // points into `transition`
    uint64_t version = 0;
    size_t k = 0;
    size_t window = 0;
    size_t ring_doubles = 0;
  };

  // One resident session. Slots live in grow-only slabs and are recycled
  // by index; `generation` stamps handles so stale ones cannot resolve.
  struct Slot {
    std::shared_ptr<const ModelContext> ctx;
    double* block = nullptr;           // arena-backed ring storage
    util::SlabArena* arena = nullptr;  // owner of `block`
    std::vector<Obs> obs_ring;         // window raw observations
    uint32_t generation = 0;
    bool live = false;
    bool finished = false;
    std::atomic<uint32_t> inflight{0};
    uint64_t last_active = 0;
    size_t frames_pushed = 0;
    size_t labels_emitted = 0;
    double log_likelihood = 0.0;
    Status status;
  };

  static SessionHandle MakeHandle(uint32_t idx, uint32_t gen) {
    return (uint64_t{gen} << 32) | idx;
  }

  std::shared_ptr<const ModelContext> MakeContext(
      std::shared_ptr<const hmm::HmmModel<Obs>> model, uint64_t version) {
    model->Validate();
    auto ctx = std::make_shared<ModelContext>();
    ctx->model = std::move(model);
    ctx->a_t = &ctx->transition.Transpose(ctx->model->a);
    ctx->version = version;
    ctx->k = ctx->model->num_states();
    ctx->window = stream::Window(options_.lag);
    ctx->ring_doubles = stream::RingDoubles(ctx->window, ctx->k);
    return ctx;
  }

  Slot& SlotAt(size_t idx) {
    return slot_slabs_[idx / kSessionsPerSlab][idx % kSessionsPerSlab];
  }

  Slot* ResolveLocked(SessionHandle h) {
    const uint32_t idx = static_cast<uint32_t>(h);
    const uint32_t gen = static_cast<uint32_t>(h >> 32);
    if (gen == 0 || idx >= slot_count_) return nullptr;
    Slot& s = SlotAt(idx);
    if (!s.live || s.generation != gen) return nullptr;
    return &s;
  }

  // Binds the slot's ring block to its context's shape, recycling through
  // the per-shape arena (O(1); allocates only on arena growth).
  void AttachBlockLocked(Slot* s) {
    const size_t bytes = s->ctx->ring_doubles * sizeof(double);
    util::SlabArena* arena = ArenaForLocked(bytes);
    if (s->arena == arena && s->block != nullptr) return;
    if (s->block != nullptr) s->arena->Release(s->block);
    s->arena = arena;
    s->block = static_cast<double*>(arena->Allocate());
    // Reserved ring bytes across every shape's arena. Recomputed only on
    // (re)binds — the Push hot path never reaches here, so the gauge costs
    // the steady state nothing.
    size_t total_bytes = 0;
    for (const auto& [block_bytes, a] : arenas_) {
      total_bytes += a->capacity() * block_bytes;
    }
    g_slab_bytes_->Set(static_cast<double>(total_bytes));
  }

  util::SlabArena* ArenaForLocked(size_t block_bytes) {
    auto it = arenas_.find(block_bytes);
    if (it == arenas_.end()) {
      it = arenas_
               .emplace(block_bytes,
                        std::make_unique<util::SlabArena>(
                            block_bytes, kArenaBlocksPerSlab))
               .first;
    }
    return it->second.get();
  }

  static void ResetStreamState(Slot* s) {
    s->finished = false;
    s->frames_pushed = 0;
    s->labels_emitted = 0;
    s->log_likelihood = 0.0;
    s->status = Status::OK();
  }

  void DestroyLocked(Slot* s, uint32_t idx) {
    if (s->block != nullptr) {
      s->arena->Release(s->block);
      s->block = nullptr;
      s->arena = nullptr;
    }
    s->ctx.reset();
    s->live = false;
    free_slots_.push_back(idx);
    --live_;
    m_destroyed_->Add();
    g_live_->Set(static_cast<double>(live_));
  }

  // The numeric body of Push, run with the in-flight guard held but the
  // pool mutex released. Smoothing runs before the frame is committed, so
  // every rejection path leaves the stream exactly as it was (the ring rows
  // written by the forward step belong to an already-retired frame).
  Status PushHeld(Slot* s, const Obs& y, int* label_out,
                  core::IncrementalEmTrainer<Obs>* trainer) {
    const ModelContext& ctx = *s->ctx;
    const stream::StreamRings rings =
        stream::CarveRings(s->block, ctx.window, ctx.k);
    // The table the offline path fetches for this k, once per push.
    const linalg::kernels::KernelTable& kt = linalg::kernels::ForK(ctx.k);
    const size_t t = s->frames_pushed;
    double loglik_inc = 0.0;
    Status fwd = stream::ForwardStep(kt, *ctx.model, *ctx.a_t, ctx.window, t,
                                     rings, y, &loglik_inc);
    if (!fwd.ok()) {
      s->status = std::move(fwd);
      return s->status;
    }
    // The ring slot being overwritten held frame t - window, already
    // retired — same rejection-safety argument as the numeric rings.
    s->obs_ring[t % ctx.window] = y;
    if (t < options_.lag) {
      s->log_likelihood += loglik_inc;
      s->frames_pushed = t + 1;
      return Status::OK();
    }
    const size_t frame = t - options_.lag;
    const int label = stream::SmoothedLabel(kt, ctx.model->a, ctx.k, ctx.window,
                                            rings, frame, /*newest=*/t);
    if (label < 0) {
      s->status = hmm::internal::PosteriorVanished(frame);
      return s->status;
    }
    s->log_likelihood += loglik_inc;
    s->frames_pushed = t + 1;
    ++s->labels_emitted;
    *label_out = label;
    if (trainer != nullptr) {
      // Close the loop: the smoothed posterior (left in rings.gamma by
      // the sweep) and the raw observation feed the stepwise E-step; at
      // lag >= 1 rings.frame_u still holds the hoisted product for
      // frame + 1, which is exactly the online xi term.
      trainer->AccumulateStreamFrame(s->obs_ring[frame % ctx.window],
                                     rings.gamma, ctx.k,
                                     /*first_frame=*/frame == 0);
      if (options_.lag >= 1) {
        trainer->AccumulateStreamTransition(
            rings.alpha + (frame % ctx.window) * ctx.k, ctx.model->a,
            rings.frame_u);
      }
    }
    return Status::OK();
  }

  Status FinishHeld(Slot* s, std::vector<int>* tail) {
    s->finished = true;  // further pushes would re-emit flushed frames
    if (!s->status.ok()) return s->status;
    if (s->frames_pushed == 0) return Status::OK();
    const size_t newest = s->frames_pushed - 1;
    const size_t first = s->labels_emitted;
    if (first > newest) return Status::OK();
    const ModelContext& ctx = *s->ctx;
    const stream::StreamRings rings =
        stream::CarveRings(s->block, ctx.window, ctx.k);
    const size_t base = tail->size();
    tail->resize(base + (newest - first + 1));
    const ptrdiff_t bad = stream::FinishSweep(
        linalg::kernels::ForK(ctx.k), ctx.model->a, ctx.k, ctx.window, rings,
        first, newest, tail->data() + base);
    if (bad >= 0) {
      s->status = hmm::internal::PosteriorVanished(static_cast<size_t>(bad));
      tail->resize(base);
      return s->status;
    }
    s->labels_emitted = newest + 1;
    return Status::OK();
  }

  const SessionManagerOptions options_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot[]>> slot_slabs_;  // grow-only pool
  std::vector<uint32_t> free_slots_;                 // recycled indices
  size_t slot_count_ = 0;  // slots carved so far (high-water)
  size_t live_ = 0;
  uint64_t ticks_ = 0;
  std::shared_ptr<const ModelContext> ctx_;
  // One grow-only arena per ring-block size: a model swap that changes k
  // opens a new shape without invalidating warm blocks of the old one.
  std::map<size_t, std::unique_ptr<util::SlabArena>> arenas_;
  core::IncrementalEmTrainer<Obs>* trainer_ = nullptr;

  // Process-wide metrics (obs/metrics.h): registered once at construction.
  obs::Counter* m_created_ = nullptr;
  obs::Counter* m_destroyed_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Counter* m_pushes_ = nullptr;
  obs::Gauge* g_live_ = nullptr;
  obs::Gauge* g_inflight_ = nullptr;
  obs::Gauge* g_slab_bytes_ = nullptr;
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_SESSION_MANAGER_H_

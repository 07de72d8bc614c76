// The request-facing decode layer: a persistent, batched decoding service.
//
// DecodeService turns the offline inference stack (workspace-threaded
// kernels, cached transition transposes, the persistent thread pool) into
// the one batching layer for decode-per-request traffic: callers Submit()
// Viterbi / posterior-decode / log-likelihood requests from any thread; a
// dispatcher coalesces pending requests into batches and fans each batch
// across the pool's workers, one InferenceWorkspace per worker.
//
// After each batch the dispatcher fires every request's CompletionHook
// (serve/request.h) in slot order: Submit(req, hook) hands the response to
// the caller's hook, Submit(req) returns a DecodeFuture whose hook wakes
// its waiter. A request whose deadline has passed when its batch is cut
// is answered DeadlineExceeded without decode work.
//
// Model hot-swap is RCU-style: the service holds the current model as a
// std::shared_ptr<const HmmModel<Obs>>, every batch snapshots that pointer
// when it is cut, and UpdateModel()/ReloadModel() only swap the pointer —
// in-flight batches finish on the snapshot they started with while new
// batches pick up the new model. Combined with store::WriteModel's atomic
// rename, a checkpoint reload can never observe a torn file or race a
// running decode.
//
// Determinism: every request is decoded by the deterministic kernel layer
// with per-request emission rows (a table for Viterbi) and a content-keyed
// transition cache, so results are bitwise-identical to the offline
// single-threaded hmm::TryViterbi / hmm::TryPosteriorDecode /
// hmm::TryLogLikelihoodRows for every worker count and batch size
// (tests/serve_test.cc pins this).
//
// Workspace: only Viterbi, whose backtrack reads every frame, builds the
// T x k emission table; posterior and log-likelihood requests read
// emission rows on demand. A posterior request of at least
// hmm::kDefaultCheckpointThresholdFrames frames runs its sweep in
// ceil(sqrt(T))-frame panels (O(sqrt(T) * k) workspace), a shorter one in
// one panel; both widths give the same bits (tests/serve_test.cc serves
// lengths on both sides of the threshold).
//
// Allocation: request slots, the pending queue, batch scratch, and all
// per-worker workspaces are pooled and grow-only. After warm-up at a fixed
// model size and sequence length, a Submit/Wait/Release round performs
// zero heap allocations (instrumented-new pinned).
#ifndef DHMM_SERVE_DECODE_SERVICE_H_
#define DHMM_SERVE_DECODE_SERVICE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hmm/emission_rows.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/posterior_decoding.h"
#include "obs/metrics.h"
#include "obs/startup.h"
#include "serve/request.h"
#include "store/dual_slot.h"
#include "util/check.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dhmm::serve {

/// Options for the service. Designated-initializer-friendly POD with a
/// Validate() checked at construction — the shared shape of every serve
/// options struct (see the README options table).
struct DecodeServiceOptions {
  /// Worker parallelism for batch fan-out, including the dispatcher thread;
  /// <= 0 selects std::thread::hardware_concurrency(). Results are
  /// identical for every value.
  int num_threads = 1;
  /// Most requests coalesced into one batch; 0 = unbounded. Smaller batches
  /// lower tail latency under mixed traffic, larger batches amortize
  /// dispatch overhead.
  size_t max_batch = 64;

  /// A config error (absurd thread count) surfaces here, before the
  /// service spins up threads on it.
  Status Validate() const {
    if (num_threads > kMaxThreads) {
      return Status::InvalidArgument(
          "DecodeServiceOptions::num_threads is absurdly large");
    }
    return Status::OK();
  }

  static constexpr int kMaxThreads = 4096;
};

template <typename Obs>
class DecodeService;

namespace internal {

/// One pooled request: inputs, result, completion hook, and a tiny
/// per-slot waiter for the future form. Slots are recycled through the
/// service free list, so their result buffers (path) are grow-only across
/// requests.
template <typename Obs>
struct RequestSlot {
  DecodeKind kind = DecodeKind::kViterbi;
  uint64_t request_id = 0;                // echoed into the response
  const std::vector<Obs>* obs = nullptr;  // borrowed until done
  std::chrono::steady_clock::time_point deadline;  // max() = none
  CompletionHook on_done;
  DecodeResponse result;

  // Future form only: on_done sets `done` and wakes the waiter.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  // guarded by mu
};

}  // namespace internal

/// \brief Future-style handle to one submitted request. Move-only; waits
/// for and releases its pooled slot. Must not outlive the service.
template <typename Obs>
class DecodeFuture {
 public:
  DecodeFuture() = default;
  DecodeFuture(DecodeFuture&& other) noexcept
      : service_(other.service_), slot_(other.slot_) {
    other.service_ = nullptr;
    other.slot_ = nullptr;
  }
  DecodeFuture& operator=(DecodeFuture&& other) noexcept {
    if (this != &other) {
      Release();
      service_ = other.service_;
      slot_ = other.slot_;
      other.service_ = nullptr;
      other.slot_ = nullptr;
    }
    return *this;
  }
  DecodeFuture(const DecodeFuture&) = delete;
  DecodeFuture& operator=(const DecodeFuture&) = delete;
  ~DecodeFuture() { Release(); }

  /// Blocks until the request completes; the reference stays valid until
  /// Release()/destruction. Safe to call repeatedly.
  const DecodeResponse& Wait() {
    DHMM_CHECK_MSG(slot_ != nullptr, "Wait on a released DecodeFuture");
    std::unique_lock<std::mutex> lock(slot_->mu);
    slot_->cv.wait(lock, [&] { return slot_->done; });
    return slot_->result;
  }

  /// Returns the slot to the service pool (blocking until the request has
  /// completed if it is still in flight). Idempotent.
  void Release() {
    if (slot_ == nullptr) return;
    service_->ReleaseSlot(slot_);
    service_ = nullptr;
    slot_ = nullptr;
  }

 private:
  friend class DecodeService<Obs>;
  DecodeFuture(DecodeService<Obs>* service, internal::RequestSlot<Obs>* slot)
      : service_(service), slot_(slot) {}

  DecodeService<Obs>* service_ = nullptr;
  internal::RequestSlot<Obs>* slot_ = nullptr;
};

/// \brief Thread-safe batched decoding service with RCU model hot-swap.
///
/// Submit() may be called concurrently from any number of threads; the
/// service's destructor drains every accepted request (firing its hook)
/// before returning. Outstanding DecodeFutures must be released before the
/// service dies.
template <typename Obs>
class DecodeService {
 public:
  /// `model` serves as version `model_version`. A ModelRegistry passes its
  /// entry's version, so a service it recreates after an eviction keeps
  /// the registry's count.
  explicit DecodeService(std::shared_ptr<const hmm::HmmModel<Obs>> model,
                         const DecodeServiceOptions& options = {},
                         uint64_t model_version = 1)
      : options_(options),
        pool_(options.num_threads),
        workers_(static_cast<size_t>(pool_.num_threads())),
        model_version_(model_version) {
    const Status opt_st = options.Validate();
    DHMM_CHECK_MSG(opt_st.ok(), opt_st.message().c_str());
    DHMM_CHECK_MSG(model != nullptr, "DecodeService requires a model");
    model->Validate();
    model_ = std::move(model);
    // Make the resolved kernel ISA attributable in service logs and in the
    // stats snapshot (line printed once per process, gauge refreshed).
    obs::LogStartup();
    obs::Registry& reg = obs::Registry::Global();
    m_requests_ = reg.GetCounter("decode.requests");
    m_batches_ = reg.GetCounter("decode.batches");
    m_hot_swaps_ = reg.GetCounter("decode.hot_swaps");
    m_by_kind_[0] = reg.GetCounter("decode.requests.viterbi");
    m_by_kind_[1] = reg.GetCounter("decode.requests.posterior");
    m_by_kind_[2] = reg.GetCounter("decode.requests.loglik");
    m_by_kind_[3] = reg.GetCounter("decode.requests.session_push");
    m_by_kind_[4] = reg.GetCounter("decode.requests.stats");
    m_batch_size_ = reg.GetHistogram("decode.batch_size");
    m_coalesce_depth_ = reg.GetGauge("decode.coalesce_depth");
    // One std::function for the lifetime of the service: the only capture
    // is `this`, so the callable stays in std::function's inline storage
    // and batch dispatch never touches the allocator.
    batch_fn_ = [this](int worker, size_t item) { ServeOne(worker, item); };
    dispatcher_ = std::thread([this] { DispatchLoop(); });
  }

  ~DecodeService() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    pending_cv_.notify_all();
    dispatcher_.join();
    // A future that outlives the service would call back into freed
    // memory on Release(); fail loudly here instead of corrupting later.
    // (Under mu_ so the diagnostic itself cannot race a late Release.)
    std::lock_guard<std::mutex> lock(mu_);
    DHMM_CHECK_MSG(free_.size() == slots_.size(),
                   "DecodeService destroyed with outstanding DecodeFutures");
  }

  DecodeService(const DecodeService&) = delete;
  DecodeService& operator=(const DecodeService&) = delete;

  /// \brief Enqueues one request and returns a future for it — the
  /// in-process entry point. `req.obs` is borrowed: it must stay alive and
  /// unmodified until the returned future completes. `req.model` is the
  /// caller's concern (the registry routes on it); the single-model
  /// service echoes it through untouched.
  DecodeFuture<Obs> Submit(const DecodeRequest<Obs>& req) {
    return DecodeFuture<Obs>(this, Enqueue(req, CompletionHook{}));
  }

  /// \brief Hook form, the wire front-end's entry point: no future; the
  /// service calls `on_done` once after the request's batch and recycles
  /// the slot when it returns. `req.obs` must stay alive until then.
  void Submit(const DecodeRequest<Obs>& req, CompletionHook on_done) {
    DHMM_CHECK_MSG(on_done.fn != nullptr, "Submit with an empty hook");
    Enqueue(req, on_done);
  }

  /// Convenience form for in-process callers that have no correlation id
  /// or deadline. Same borrow contract as the request form.
  DecodeFuture<Obs> Submit(DecodeKind kind, const std::vector<Obs>& obs) {
    DecodeRequest<Obs> req;
    req.kind = kind;
    req.obs = &obs;
    return Submit(req);
  }

  /// A temporary would be freed while the request is still queued; the
  /// borrow must outlive the future, so reject rvalues at compile time.
  DecodeFuture<Obs> Submit(DecodeKind kind, std::vector<Obs>&& obs) = delete;

  /// \brief RCU swap: batches already cut finish on their snapshot; later
  /// batches (hence all requests submitted after this returns) see the new
  /// model. Never blocks on in-flight work.
  void UpdateModel(std::shared_ptr<const hmm::HmmModel<Obs>> model) {
    DHMM_CHECK_MSG(model != nullptr, "UpdateModel requires a model");
    model->Validate();
    {
      std::lock_guard<std::mutex> lock(mu_);
      model_ = std::move(model);
      ++model_version_;
    }
    m_hot_swaps_->Add();
  }

  /// \brief Loads a checkpoint and hot-swaps it in: a `.dhmms` store file
  /// or a dual-slot directory (store::LoadAnyModel), CRC-verified and
  /// mmap-read. On any failure — including a corrupt store slot — the
  /// current model keeps serving, bitwise unchanged.
  Status ReloadModel(const std::string& path) {
    Result<hmm::HmmModel<Obs>> loaded = store::LoadAnyModel<Obs>(path);
    if (!loaded.ok()) return loaded.status();
    UpdateModel(std::make_shared<const hmm::HmmModel<Obs>>(
        std::move(loaded).value()));
    return Status::OK();
  }

  /// Current model snapshot (what the next batch will use).
  std::shared_ptr<const hmm::HmmModel<Obs>> ModelSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return model_;
  }

  /// Bumped by every successful UpdateModel/ReloadModel; starts at the
  /// constructor's `model_version`.
  uint64_t model_version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return model_version_;
  }

  /// \brief Test hook: holds the dispatcher so submitted requests queue
  /// deterministically (deadline, shed, ordering and shutdown tests). The
  /// destructor overrides a pause, so it still drains.
  void PauseDispatch() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
  }
  void ResumeDispatch() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = false;
    }
    pending_cv_.notify_all();
  }

 private:
  friend class DecodeFuture<Obs>;

  // Per-worker scratch: one inference workspace (with its transition
  // cache) plus Viterbi result staging reused across requests.
  struct Worker {
    hmm::InferenceWorkspace ws;
    hmm::ViterbiResult viterbi;
  };

  using Clock = std::chrono::steady_clock;

  // Takes a pooled slot, fills it from `req`, and queues it. An empty
  // `on_done` selects the future form: the hook becomes WakeWaiter.
  internal::RequestSlot<Obs>* Enqueue(const DecodeRequest<Obs>& req,
                                      CompletionHook on_done) {
    DHMM_CHECK_MSG(req.obs != nullptr, "DecodeRequest without observations");
    // Only a request with a deadline pays for the clock read. A deadline
    // comes off the wire unchecked: past kMaxDeadlineMicros it means none,
    // which also keeps the time_point sum from overflowing.
    const Clock::time_point deadline =
        req.deadline_micros == 0 || req.deadline_micros > kMaxDeadlineMicros
            ? Clock::time_point::max()
            : Clock::now() + std::chrono::microseconds(req.deadline_micros);
    internal::RequestSlot<Obs>* slot = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      DHMM_CHECK_MSG(!shutdown_, "Submit on a shut-down DecodeService");
      if (free_.empty()) {
        slots_.push_back(std::make_unique<internal::RequestSlot<Obs>>());
        free_.push_back(slots_.back().get());
      }
      slot = free_.back();
      free_.pop_back();
      slot->kind = req.kind;
      slot->request_id = req.request_id;
      slot->obs = req.obs;
      slot->deadline = deadline;
      slot->on_done = on_done.fn ? on_done : CompletionHook{&WakeWaiter, slot};
      slot->done = false;
      pending_.push_back(slot);
    }
    // Process-wide per-kind counts (obs/metrics.h): one relaxed add per
    // request, clamped so a kind byte beyond the enum can never index out
    // of the table (recording never aborts).
    const size_t kind_ix = std::min<size_t>(static_cast<size_t>(req.kind),
                                            kNumKindCounters - 1);
    m_by_kind_[kind_ix]->Add();
    m_requests_->Add();
    pending_cv_.notify_one();
    return slot;
  }

  static void WakeWaiter(void* ctx, const DecodeResponse& /*resp*/) {
    auto* slot = static_cast<internal::RequestSlot<Obs>*>(ctx);
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      slot->done = true;
    }
    slot->cv.notify_all();
  }

  void ReleaseSlot(internal::RequestSlot<Obs>* slot) {
    {
      // A future may be released without ever Wait()ing; the slot cannot
      // be recycled while a batch worker still writes into it.
      std::unique_lock<std::mutex> lock(slot->mu);
      slot->cv.wait(lock, [&] { return slot->done; });
    }
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(slot);
  }

  // Moves up to max_batch pending requests into batch_ and snapshots the
  // model and the clock (for deadlines) for them. Caller holds mu_.
  void CutBatchLocked() {
    const size_t n = options_.max_batch == 0
                         ? pending_.size()
                         : std::min(pending_.size(), options_.max_batch);
    batch_.clear();
    for (size_t i = 0; i < n; ++i) batch_.push_back(pending_[i]);
    // Erase the consumed prefix (a pointer memmove, no allocation), so
    // pending_ is bounded by the live backlog instead of growing with
    // every request ever submitted under sustained load.
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(n));
    batch_model_ = model_;  // refcount bump only — the RCU snapshot
    batch_version_ = model_version_;
    batch_cut_ = Clock::now();
  }

  void DispatchLoop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        pending_cv_.wait(lock, [&] {
          return shutdown_ || (!paused_ && !pending_.empty());
        });
        if (pending_.empty()) return;  // shutdown, drained
        // Coalesce depth = backlog visible when the batch is cut; how much
        // of it one batch absorbs is bounded by max_batch.
        m_coalesce_depth_->Set(static_cast<double>(pending_.size()));
        CutBatchLocked();
      }
      m_batches_->Add();
      m_batch_size_->Record(batch_.size());
      // The dispatcher participates as worker 0, so num_threads == 1 runs
      // the whole batch inline with no cross-thread traffic.
      pool_.ParallelFor(batch_.size(), batch_fn_);
      CompleteBatch();
      batch_model_.reset();  // drop the snapshot promptly after the batch
    }
  }

  // Every request completes here, in slot order. A hook-form slot goes
  // back to the pool before its hook runs, so a caller that submits again
  // from the hook's round trip finds it free; its result stays put because
  // only this thread writes results. A future's slot is its owner's.
  void CompleteBatch() {
    for (internal::RequestSlot<Obs>* slot : batch_) {
      const CompletionHook hook = slot->on_done;
      if (hook.fn != &WakeWaiter) {
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(slot);
      }
      hook.fn(hook.ctx, slot->result);
    }
  }

  void ServeOne(int worker, size_t item) {
    internal::RequestSlot<Obs>* slot = batch_[item];
    Worker& w = workers_[static_cast<size_t>(worker)];
    const hmm::HmmModel<Obs>& m = *batch_model_;
    DecodeResponse& r = slot->result;
    r.request_id = slot->request_id;
    r.kind = slot->kind;
    r.model_version = batch_version_;
    r.path.clear();
    r.text.clear();  // slots recycle; a stale snapshot must not leak out
    r.value = 0.0;
    if (batch_cut_ >= slot->deadline) {
      r.status = Status::DeadlineExceeded("deadline expired before dispatch");
      return;
    }
    if (slot->obs->empty()) {
      r.status = Status::InvalidArgument("empty observation sequence");
      return;
    }
    // Which kinds build the table and which lengths run panels: see the
    // header comment. Everything below goes through the non-aborting Try*
    // inference forms: an impossible sequence (zero-probability frame,
    // chain-unreachable frame, scaled-emission underflow) is a per-request
    // InvalidArgument, never a DHMM_CHECK process abort — one bad client
    // request must not take down a multi-tenant service.
    const size_t frames = slot->obs->size();
    const size_t panel =
        frames >= hmm::kDefaultCheckpointThresholdFrames ? 0 : frames;
    hmm::EmissionLogBRows<Obs> rows{m.emission.get(), slot->obs,
                                    &w.ws.log_b_row};
    switch (slot->kind) {
      case DecodeKind::kViterbi:
        m.emission->LogProbTableInto(*slot->obs, &w.ws.log_b);
        r.status = hmm::TryViterbi(m.pi, m.a, w.ws.log_b, &w.ws, &w.viterbi);
        if (r.status.ok()) {
          r.path.assign(w.viterbi.path.begin(), w.viterbi.path.end());
          r.value = w.viterbi.log_joint;
        }
        break;
      case DecodeKind::kPosterior:
        r.status = hmm::TryPosteriorDecodeRows(m.pi, m.a, rows.View(), panel,
                                               &w.ws, &r.value, &r.path);
        break;
      case DecodeKind::kLogLikelihood:
        r.status = hmm::TryLogLikelihoodRows(m.pi, m.a, rows.View(), &w.ws,
                                             &r.value);
        break;
      case DecodeKind::kSessionPush:
        // Session pushes carry per-stream state; they route to
        // serve::SessionManager through the front-end, never to the
        // stateless batch service.
        r.status = Status::InvalidArgument(
            "kSessionPush is not a batch decode; enable sessions on the "
            "front-end");
        break;
      case DecodeKind::kStats:
        // Stats queries read process-wide state; the front-end serves them
        // inline without routing to any decode service.
        r.status = Status::InvalidArgument(
            "kStats is not a batch decode; the front-end serves it");
        break;
      default:
        // Only in-process Submit can carry a kind byte beyond the enum
        // (the wire decoder rejects it); the pooled slot's status from its
        // previous request must not answer it.
        r.status = Status::InvalidArgument(
            "unknown decode kind " +
            std::to_string(static_cast<int>(slot->kind)));
        break;
    }
    if (!r.status.ok()) {
      r.path.clear();
      r.value = 0.0;  // the sweep may have written a log-likelihood
    }
  }

  const DecodeServiceOptions options_;
  util::ThreadPool pool_;
  std::vector<Worker> workers_;  // one per pool worker
  std::function<void(int, size_t)> batch_fn_;

  mutable std::mutex mu_;
  std::condition_variable pending_cv_;
  std::shared_ptr<const hmm::HmmModel<Obs>> model_;  // guarded by mu_
  uint64_t model_version_ = 1;                       // guarded by mu_
  bool shutdown_ = false;                            // guarded by mu_
  bool paused_ = false;                              // guarded by mu_
  std::vector<std::unique_ptr<internal::RequestSlot<Obs>>> slots_;  // pool
  std::vector<internal::RequestSlot<Obs>*> free_;     // guarded by mu_
  std::vector<internal::RequestSlot<Obs>*> pending_;  // guarded by mu_

  // Dispatcher-only batch state (stable while a batch runs).
  std::vector<internal::RequestSlot<Obs>*> batch_;
  std::shared_ptr<const hmm::HmmModel<Obs>> batch_model_;
  uint64_t batch_version_ = 0;
  Clock::time_point batch_cut_;

  std::thread dispatcher_;

  // Process-wide metrics (obs/metrics.h): registered once at construction,
  // bumped with relaxed atomics on the hot path. One per-kind slot per wire
  // kind; Submit clamps into the table so recording never aborts.
  static constexpr size_t kNumKindCounters = 5;
  static constexpr uint64_t kMaxDeadlineMicros = uint64_t{1} << 40;  // ~12 d
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_hot_swaps_ = nullptr;
  obs::Counter* m_by_kind_[kNumKindCounters] = {};
  obs::Histogram* m_batch_size_ = nullptr;
  obs::Gauge* m_coalesce_depth_ = nullptr;
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_DECODE_SERVICE_H_

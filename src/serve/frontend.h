// The socket front-end: binary wire protocol -> ModelRegistry -> DecodeService.
//
// One IO thread, and one DecodeService per model. The IO thread runs a
// poll() event loop over a loopback TCP listener and its connections: it
// accepts, reassembles length-prefixed frames (serve/wire.h), decodes
// request payloads into pooled request slots, routes each decode to its
// model's DecodeService via the registry, and Submits it with a
// CompletionHook. The service is the only batching layer: after each batch
// its dispatcher calls the hook, which copies the response into the slot
// and appends the slot to the done list under done_mu_, writing a wake-up
// byte to a pipe only when the list was empty. The IO thread drains the
// pipe, swaps the whole list out under the mutex, and encodes and writes
// the responses after releasing it (partial writes finish under POLLOUT);
// its poll() blocks with no timeout. kStats and kSessionPush frames are
// answered inline on the IO thread.
//
// Responses on a connection come back in completion order, FIFO per
// model; clients match them to requests by request id.
//
// Overload and error semantics — a hostile or unlucky client never crashes
// the process, it gets a typed response:
//   * queue_capacity requests already in flight -> Unavailable (shed)
//   * unknown model id           -> NotFound
//   * deadline expired by the time its batch is cut -> DeadlineExceeded
//   * oversized payload          -> OutOfRange, then the connection closes
//   * malformed payload          -> InvalidArgument (framing intact, the
//                                   connection survives)
//   * garbage header (bad magic/version) -> connection closed; with no
//                                   trustworthy framing there is nothing
//                                   to address a response to.
//
// Allocation: connections, request slots and read/write buffers are pooled
// and grow-only, and both done lists are reserved to queue_capacity at
// Start(), which the in-flight bound keeps them under. After warm-up, a
// request/response round trip performs zero heap allocations on the
// IO-thread + service path (tests/frontend_test.cc pins this with the
// instrumented allocator).
//
// Stop() drains: the IO thread answers every submitted decode before it
// exits. A hook's last touch of the front end is its unlock of done_mu_,
// and the drain's last swap takes done_mu_ after the last hook's append,
// so Stop() frees nothing that a hook still touches.
//
// Determinism: the front-end only moves bytes; decoding happens in
// DecodeService, so wire results are bitwise-identical to offline
// single-threaded decodes for every registered model.
#ifndef DHMM_SERVE_FRONTEND_H_
#define DHMM_SERVE_FRONTEND_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/startup.h"
#include "serve/decode_service.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/session_manager.h"
#include "serve/wire.h"
#include "util/check.h"
#include "util/status.h"

namespace dhmm::serve {

/// Options for the front-end. Designated-initializer-friendly POD with a
/// Validate() checked at Start() — the shared shape of every serve options
/// struct (see the README options table).
struct FrontEndOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port()).
  uint16_t port = 0;
  /// Most simultaneous connections; excess accepts are closed immediately.
  int max_connections = 64;
  /// Most requests in flight to the decode services at once; a decode
  /// arriving with this many in flight is shed with Unavailable.
  size_t queue_capacity = 256;
  /// Largest accepted request payload; frames above it get OutOfRange.
  /// Must not exceed wire::kMaxPayload.
  size_t max_payload_bytes = size_t{1} << 20;

  Status Validate() const {
    if (max_connections < 1) {
      return Status::InvalidArgument(
          "FrontEndOptions::max_connections must be >= 1");
    }
    if (queue_capacity < 2) {
      return Status::InvalidArgument(
          "FrontEndOptions::queue_capacity must be >= 2");
    }
    if (max_payload_bytes == 0 || max_payload_bytes > wire::kMaxPayload) {
      return Status::InvalidArgument(
          "FrontEndOptions::max_payload_bytes must be in (0, kMaxPayload]");
    }
    return Status::OK();
  }
};

/// \brief Wire-protocol serving front-end over a ModelRegistry.
///
/// The registry is borrowed and must outlive the front-end. Start() binds
/// and spins up the IO thread; Stop() (or the destructor) drains and shuts
/// it down. Its counters live in the process-wide obs::Registry under the
/// "frontend." prefix.
template <typename Obs>
class FrontEnd {
 public:
  explicit FrontEnd(ModelRegistry<Obs>* registry,
                    const FrontEndOptions& options = {})
      : options_(options), registry_(registry) {
    DHMM_CHECK_MSG(registry != nullptr, "FrontEnd requires a registry");
    // Metric registration is construction-time (allocates, takes the
    // registry lock); the serving paths only touch the resolved pointers
    // — one relaxed atomic op each, no allocation.
    obs::Registry& obs_reg = obs::Registry::Global();
    m_frames_accepted_ = obs_reg.GetCounter("frontend.frames_accepted");
    m_frames_malformed_ = obs_reg.GetCounter("frontend.frames_malformed");
    m_bad_headers_ = obs_reg.GetCounter("frontend.bad_headers");
    m_oversized_frames_ = obs_reg.GetCounter("frontend.oversized_frames");
    m_conns_accepted_ = obs_reg.GetCounter("frontend.connections_accepted");
    m_conns_rejected_ = obs_reg.GetCounter("frontend.connections_rejected");
    m_requests_shed_ = obs_reg.GetCounter("frontend.requests_shed");
    m_deadline_expired_ = obs_reg.GetCounter("frontend.deadline_expired");
    m_requests_served_ = obs_reg.GetCounter("frontend.requests_served");
    m_routing_errors_ = obs_reg.GetCounter("frontend.routing_errors");
    m_by_kind_[0] = obs_reg.GetCounter("frontend.requests.viterbi");
    m_by_kind_[1] = obs_reg.GetCounter("frontend.requests.posterior");
    m_by_kind_[2] = obs_reg.GetCounter("frontend.requests.loglik");
    m_by_kind_[3] = obs_reg.GetCounter("frontend.requests.session_push");
    m_by_kind_[4] = obs_reg.GetCounter("frontend.requests.stats");
    m_ring_occupancy_ = obs_reg.GetGauge("frontend.req_ring_occupancy");
    m_latency_us_ = obs_reg.GetHistogram("frontend.request_latency_us");
  }

  ~FrontEnd() { Stop(); }

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// \brief Binds 127.0.0.1:port and spins up the IO thread.
  Status Start() {
    DHMM_RETURN_NOT_OK(options_.Validate());
    if (running_) return Status::FailedPrecondition("FrontEnd already started");
    // Make the resolved kernel ISA attributable in service logs and the
    // stats snapshot (the line prints once per process).
    obs::LogStartup();

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return CloseAnd(Errno("bind"));
    }
    if (::listen(listen_fd_, 128) != 0) return CloseAnd(Errno("listen"));
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      return CloseAnd(Errno("getsockname"));
    }
    port_ = ntohs(addr.sin_port);
    SetNonBlocking(listen_fd_);

    if (::pipe(wake_pipe_) != 0) return CloseAnd(Errno("pipe"));
    SetNonBlocking(wake_pipe_[0]);
    SetNonBlocking(wake_pipe_[1]);

    // At most queue_capacity slots are in flight, so neither list grows
    // past its reservation.
    done_.reserve(options_.queue_capacity);
    answering_.reserve(options_.queue_capacity);

    stop_.store(false, std::memory_order_relaxed);
    running_ = true;
    io_thread_ = std::thread([this] { IoLoop(); });
    return Status::OK();
  }

  /// \brief Drains every in-flight request, then stops the IO thread and
  /// closes every socket. Idempotent; the destructor reclaims the pools.
  void Stop() {
    if (!running_) return;
    stop_.store(true, std::memory_order_release);
    WakeIo();
    io_thread_.join();
    for (size_t i = 0; i < conns_.size(); ++i) CloseConn(i);
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_ = false;
  }

  /// \brief Enables streaming sessions: kSessionPush frames addressed to
  /// `model` extend a resident fixed-lag session (one per connection, torn
  /// down when the connection closes) in `sessions` instead of running a
  /// stateless batch decode. The manager is borrowed and must outlive the
  /// front-end; call before Start().
  /// Pushes addressed to any other model id get NotFound, and a push on a
  /// front-end without sessions gets FailedPrecondition.
  void EnableSessions(SessionManager<Obs>* sessions, ModelId model) {
    DHMM_CHECK_MSG(sessions != nullptr, "EnableSessions requires a manager");
    DHMM_CHECK_MSG(!running_, "EnableSessions must be called before Start()");
    sessions_ = sessions;
    session_model_ = model;
  }

  /// The bound port (after Start()).
  uint16_t port() const { return port_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One pooled request. The IO thread owns slot acquisition and release
  /// (single-threaded free list, no lock); while a decode is in flight the
  /// slot belongs to its service, whose hook hands it back through the
  /// done list.
  struct ReqSlot {
    FrontEnd* owner = nullptr;  // the completion hook's way back
    ModelId model = 0;
    Clock::time_point arrival{};
    std::vector<Obs> obs;  // grow-only decode target
    DecodeResponse resp;   // grow-only path
    // The routed service, held until the IO thread drains the slot, so a
    // registry eviction never tears a service down under its own hook.
    std::shared_ptr<DecodeService<Obs>> service;
    size_t conn_index = 0;
    uint64_t conn_generation = 0;
  };

  /// One pooled connection. A closed connection's slot is not recycled
  /// until its in-flight requests drain; the generation counter makes any
  /// late response provably stale.
  struct Conn {
    int fd = -1;
    bool open = false;
    uint64_t generation = 0;
    uint32_t inflight = 0;
    SessionHandle session = kInvalidSessionHandle;  // resident wire session
    std::vector<uint8_t> rbuf;
    size_t rlen = 0;  // valid bytes at the front of rbuf
    std::vector<uint8_t> wbuf;
    size_t woff = 0;  // first unsent byte in wbuf
  };

  static Status Errno(const char* what) {
    return Status::Internal(std::string(what) + ": " +
                            std::strerror(errno));
  }
  Status CloseAnd(Status st) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  static void SetNonBlocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }

  void WakeIo() {
    const char b = 1;
    // A full pipe already guarantees a pending wake-up.
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }

  // ---------------------------------------------------------------- IO --

  void IoLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      pollfds_.clear();
      pollfds_.push_back({listen_fd_, POLLIN, 0});
      pollfds_.push_back({wake_pipe_[0], POLLIN, 0});
      poll_conn_.clear();
      for (size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if (c.fd < 0 || !c.open) continue;
        short events = POLLIN;
        if (c.woff < c.wbuf.size()) events |= POLLOUT;
        pollfds_.push_back({c.fd, events, 0});
        poll_conn_.push_back(i);
      }
      const int n = ::poll(pollfds_.data(), pollfds_.size(), -1);
      if (n < 0 && errno != EINTR) break;
      if (stop_.load(std::memory_order_acquire)) break;

      if (pollfds_[1].revents & POLLIN) AnswerFinished();
      if (pollfds_[0].revents & POLLIN) AcceptAll();
      for (size_t p = 2; p < pollfds_.size(); ++p) {
        const size_t idx = poll_conn_[p - 2];
        Conn& c = conns_[idx];
        if (!c.open || c.fd != pollfds_[p].fd) continue;  // closed this tick
        if (pollfds_[p].revents & (POLLERR | POLLHUP)) {
          CloseConn(idx);
          continue;
        }
        if (pollfds_[p].revents & POLLOUT) FlushConn(idx);
        if (c.open && (pollfds_[p].revents & POLLIN)) ReadConn(idx);
      }
    }
    // Shutdown drains: answer every decode still in flight. The swap that
    // takes the last slot follows the last hook's unlock of done_mu_.
    while (inflight_ > 0) {
      pollfd p{wake_pipe_[0], POLLIN, 0};
      ::poll(&p, 1, -1);
      AnswerFinished();
    }
  }

  void AcceptAll() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error: next poll retries
      if (open_conns_ >= options_.max_connections) {
        ::close(fd);
        m_conns_rejected_->Add();
        continue;
      }
      SetNonBlocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      size_t idx;
      if (!free_conns_.empty()) {
        idx = free_conns_.back();
        free_conns_.pop_back();
      } else {
        idx = conns_.size();
        conns_.emplace_back();
      }
      Conn& c = conns_[idx];
      c.fd = fd;
      c.open = true;
      ++c.generation;
      c.rlen = 0;
      c.wbuf.clear();
      c.woff = 0;
      ++open_conns_;
      m_conns_accepted_->Add();
    }
  }

  void CloseConn(size_t idx) {
    Conn& c = conns_[idx];
    if (c.fd < 0) return;  // idempotent: flush errors may race a close
    ::close(c.fd);
    c.fd = -1;
    c.open = false;
    --open_conns_;
    ++c.generation;  // any response still in flight is now stale
    DestroySession(c);
    if (c.inflight == 0) free_conns_.push_back(idx);
  }

  void ReadConn(size_t idx) {
    Conn& c = conns_[idx];
    for (;;) {
      if (c.rbuf.size() < c.rlen + kReadChunk) {
        c.rbuf.resize(c.rlen + kReadChunk);  // grow-only
      }
      const ssize_t n = ::read(c.fd, c.rbuf.data() + c.rlen, kReadChunk);
      if (n == 0) {
        CloseConn(idx);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseConn(idx);
        return;
      }
      c.rlen += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < kReadChunk) break;
    }
    ParseFrames(idx);
  }

  void ParseFrames(size_t idx) {
    Conn& c = conns_[idx];
    size_t off = 0;
    while (c.open && c.rlen - off >= wire::kHeaderSize) {
      wire::FrameHeader h;
      const Status hs = wire::DecodeHeader(c.rbuf.data() + off,
                                           c.rlen - off, &h);
      if (!hs.ok()) {
        // Bad magic / version / absurd length: the stream has no
        // trustworthy framing left, so there is nothing to respond to.
        m_bad_headers_->Add();
        CloseConn(idx);
        break;
      }
      if (h.payload_len > options_.max_payload_bytes) {
        m_oversized_frames_->Add();
        SynthesizeError(
            c, h,
            Status::OutOfRange("request payload exceeds the front-end "
                               "limit of " +
                               std::to_string(options_.max_payload_bytes) +
                               " bytes"));
        // The remaining payload bytes will never be read coherently;
        // flush the error and drop the connection.
        FlushConn(idx);
        CloseConn(idx);
        break;
      }
      if (c.rlen - off < wire::kHeaderSize + h.payload_len) break;
      HandleFrame(idx, h, c.rbuf.data() + off + wire::kHeaderSize);
      off += wire::kHeaderSize + h.payload_len;
    }
    if (!c.open) {
      c.rlen = 0;
      return;
    }
    if (off > 0) {
      std::memmove(c.rbuf.data(), c.rbuf.data() + off, c.rlen - off);
      c.rlen -= off;
    }
  }

  void HandleFrame(size_t idx, const wire::FrameHeader& h,
                   const uint8_t* payload) {
    Conn& c = conns_[idx];
    ReqSlot* slot = AcquireSlot();
    const Status ps =
        wire::DecodeRequestPayload<Obs>(h, payload, h.payload_len, &slot->obs);
    if (!ps.ok()) {
      // Framing is intact (the header parsed and the length matched), so
      // the connection survives a bad payload: respond and move on.
      m_frames_malformed_->Add();
      SynthesizeError(c, h, ps);
      FlushConn(idx);
      ReleaseSlot(slot);
      return;
    }
    // Accepted = a well-formed frame entering the system (it may still be
    // shed, expire, or fail routing). The per-kind counters partition
    // exactly these frames: sum over kinds == frames_accepted.
    m_frames_accepted_->Add();
    const DecodeKind kind = h.decode_kind();
    m_by_kind_[static_cast<size_t>(kind)]->Add();
    const Clock::time_point arrival = Clock::now();
    DecodeResponse& r = slot->resp;
    ResetResponse(h, Status::OK(), &r);
    if (kind == DecodeKind::kStats) {
      // Stats queries are served inline: the snapshot is process state,
      // not a model decode. Allocates (the rendered text) — an operator
      // surface, not a steady-state path.
      r.text = obs::RenderText(obs::Registry::Global().TakeSnapshot());
      m_requests_served_->Add();
    } else if (kind == DecodeKind::kSessionPush) {
      HandleSessionPush(c, h.model, slot->obs, &r);
    } else if (inflight_ >= options_.queue_capacity) {
      m_requests_shed_->Add();
      SynthesizeError(c, h,
                      Status::Unavailable("request queue full — shed"));
      FlushConn(idx);
      ReleaseSlot(slot);
      return;
    } else {
      Result<std::shared_ptr<DecodeService<Obs>>> svc =
          registry_->Acquire(h.model);
      if (svc.ok()) {
        // From here until the IO thread swaps it out of the done list, the
        // slot belongs to the service and its hook.
        slot->model = h.model;
        slot->arrival = arrival;
        slot->conn_index = idx;
        slot->conn_generation = c.generation;
        slot->service = std::move(svc).value();
        ++c.inflight;
        m_ring_occupancy_->Set(static_cast<double>(++inflight_));
        DecodeRequest<Obs> req;
        req.request_id = h.request_id;
        req.model = h.model;
        req.kind = kind;
        req.deadline_micros = h.deadline_micros;
        req.obs = &slot->obs;
        slot->service->Submit(req, CompletionHook{&OnDecoded, slot});
        return;
      }
      m_routing_errors_->Add();
      r.status = svc.status();
    }
    m_latency_us_->Record(MicrosSince(arrival));
    WriteResponse(c, r, h.model);
    FlushConn(idx);
    ReleaseSlot(slot);
  }

  // The completion hook, on the service's dispatcher thread: copy the
  // response into the pooled slot (whose id and kind HandleFrame already
  // set), count it, hand the slot back. Only the append to an empty list
  // writes a wake-up byte: a non-empty list's byte is already in the pipe,
  // because the IO thread drains the pipe before it swaps.
  static void OnDecoded(void* ctx, const DecodeResponse& result) {
    ReqSlot* slot = static_cast<ReqSlot*>(ctx);
    FrontEnd* self = slot->owner;
    DecodeResponse& r = slot->resp;
    r.status = result.status;
    r.path.assign(result.path.begin(), result.path.end());
    r.value = result.value;
    r.model_version = result.model_version;
    if (r.status.code() == StatusCode::kDeadlineExceeded) {
      self->m_deadline_expired_->Add();
    } else {
      self->m_requests_served_->Add();
    }
    // The unlock is the hook's last touch of the front end (see the header
    // comment on Stop()).
    std::lock_guard<std::mutex> lock(self->done_mu_);
    if (self->done_.empty()) self->WakeIo();
    self->done_.push_back(slot);
  }

  static uint64_t MicrosSince(Clock::time_point t) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t)
            .count());
  }

  /// An empty answer to `h` carrying `st`; buffers keep their capacity.
  static void ResetResponse(const wire::FrameHeader& h, Status st,
                            DecodeResponse* r) {
    r->request_id = h.request_id;
    r->kind = h.kind <= static_cast<uint8_t>(DecodeKind::kStats)
                  ? h.decode_kind()
                  : DecodeKind::kViterbi;
    r->status = std::move(st);
    r->path.clear();
    r->value = 0.0;
    r->model_version = 0;
    r->text.clear();
  }

  /// Builds an error response straight on the IO thread (shed, malformed,
  /// oversized) without touching a request slot.
  void SynthesizeError(Conn& c, const wire::FrameHeader& h, Status st) {
    ResetResponse(h, std::move(st), &scratch_resp_);
    WriteResponse(c, scratch_resp_, h.model);
  }

  void WriteResponse(Conn& c, const DecodeResponse& resp, ModelId model) {
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    }
    const Status es = wire::EncodeResponse(resp, model, &c.wbuf);
    DHMM_CHECK_MSG(es.ok(), "response encoding must not fail");
  }

  void FlushConn(size_t idx) {
    Conn& c = conns_[idx];
    while (c.woff < c.wbuf.size()) {
      // A peer that closed with responses pending must cost its connection
      // (EPIPE), not raise SIGPIPE in the whole process.
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT
        if (errno == EINTR) continue;
        CloseConn(idx);
        return;
      }
      c.woff += static_cast<size_t>(n);
    }
    c.wbuf.clear();
    c.woff = 0;
  }

  // Drains the wake pipe, then swaps the done list out; emptying the pipe
  // after the swap could swallow the byte of an append the swap missed.
  // The slots are answered outside done_mu_: dropping a slot's service can
  // run a DecodeService destructor, which joins a dispatcher whose hook
  // may be waiting on the mutex.
  void AnswerFinished() {
    char buf[256];
    while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
    }
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.swap(answering_);
    }
    for (ReqSlot* slot : answering_) {
      --inflight_;
      slot->service.reset();
      // Per-request latency: frame fully parsed -> response ready to
      // write. One clock read + one relaxed striped increment per
      // response; no allocation.
      m_latency_us_->Record(MicrosSince(slot->arrival));
      Conn& c = conns_[slot->conn_index];
      if (c.generation == slot->conn_generation && c.open) {
        WriteResponse(c, slot->resp, slot->model);
        FlushConn(slot->conn_index);
      }
      DHMM_DCHECK(c.inflight > 0);
      --c.inflight;
      if (!c.open && c.inflight == 0) free_conns_.push_back(slot->conn_index);
      ReleaseSlot(slot);
    }
    answering_.clear();
    m_ring_occupancy_->Set(static_cast<double>(inflight_));
  }

  ReqSlot* AcquireSlot() {
    if (free_slots_.empty()) {
      all_slots_.push_back(std::make_unique<ReqSlot>());
      all_slots_.back()->owner = this;
      free_slots_.push_back(all_slots_.back().get());
    }
    ReqSlot* s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  void ReleaseSlot(ReqSlot* s) { free_slots_.push_back(s); }

  // ---------------------------------------------------------- sessions --

  /// Runs one kSessionPush against the connection's resident session
  /// (created on first use, destroyed by CloseConn). The response carries
  /// every label that left the lag window (path, in stream order) and the
  /// running stream log-likelihood (value). A poisoned stream reports its
  /// error once and is torn down; the next push starts a fresh stream.
  void HandleSessionPush(Conn& c, ModelId model, const std::vector<Obs>& frames,
                         DecodeResponse* r) {
    if (sessions_ == nullptr || model != session_model_) {
      m_routing_errors_->Add();
      if (sessions_ == nullptr) {
        r->status = Status::FailedPrecondition(
            "sessions are not enabled on this front-end");
      } else {
        r->status = Status::NotFound("session pushes serve model id " +
                                     std::to_string(session_model_) + " only");
      }
      return;
    }
    Status st = Status::OK();
    for (const Obs& y : frames) {
      int label = -1;
      st = PushFrame(c, y, &label);
      if (!st.ok()) break;
      if (label >= 0) r->path.push_back(label);
    }
    if (!st.ok()) {
      DestroySession(c);
      m_routing_errors_->Add();
      r->status = std::move(st);
      r->path.clear();
      return;
    }
    if (c.session == kInvalidSessionHandle) {
      r->model_version = sessions_->model_version();
    } else {
      // A session decodes on the snapshot it was created on, which an
      // UpdateModel since then does not change.
      const Result<double> ll = sessions_->LogLikelihood(c.session);
      const Result<uint64_t> version = sessions_->ModelVersion(c.session);
      if (ll.ok()) r->value = ll.value();
      if (version.ok()) r->model_version = version.value();
    }
    m_requests_served_->Add();
  }

  // Pushes one frame onto the connection's session, creating it first if
  // needed. A session reaped by an idle sweep between requests (NotFound)
  // has lost its stream state: it is recreated once and the frame retried.
  Status PushFrame(Conn& c, const Obs& y, int* label) {
    for (int attempt = 0;; ++attempt) {
      if (c.session == kInvalidSessionHandle) {
        Result<SessionHandle> created = sessions_->CreateSession();
        if (!created.ok()) return created.status();
        c.session = created.value();
      }
      Status st = sessions_->Push(c.session, y, label);
      if (st.code() != StatusCode::kNotFound || attempt == 1) return st;
      c.session = kInvalidSessionHandle;
    }
  }

  void DestroySession(Conn& c) {
    if (c.session == kInvalidSessionHandle) return;
    (void)sessions_->DestroySession(c.session);
    c.session = kInvalidSessionHandle;
  }

  const FrontEndOptions options_;
  ModelRegistry<Obs>* const registry_;

  static constexpr size_t kReadChunk = 64 * 1024;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  bool running_ = false;

  // IO-thread state (single-threaded: no locks).
  std::vector<Conn> conns_;
  std::vector<size_t> free_conns_;
  int open_conns_ = 0;  // open conns_ entries, checked by the accept cap
  std::vector<std::unique_ptr<ReqSlot>> all_slots_;
  std::vector<ReqSlot*> free_slots_;
  std::vector<pollfd> pollfds_;
  std::vector<size_t> poll_conn_;  // conn index per pollfd entry past [1]
  DecodeResponse scratch_resp_;
  size_t inflight_ = 0;  // submitted decodes not yet answered
  std::vector<ReqSlot*> answering_;  // the last swap's finished slots
  SessionManager<Obs>* sessions_ = nullptr;
  ModelId session_model_ = 0;

  // Shared with the completion hooks.
  std::mutex done_mu_;
  std::vector<ReqSlot*> done_;  // finished slots; guarded by done_mu_
  std::atomic<bool> stop_{false};
  std::thread io_thread_;

  // Obs metric pointers, resolved once at construction (see metrics.h).
  obs::Counter* m_frames_accepted_ = nullptr;
  obs::Counter* m_frames_malformed_ = nullptr;  // framing intact, bad payload
  obs::Counter* m_bad_headers_ = nullptr;       // connection closed
  obs::Counter* m_oversized_frames_ = nullptr;  // OutOfRange, then closed
  obs::Counter* m_conns_accepted_ = nullptr;
  obs::Counter* m_conns_rejected_ = nullptr;    // past max_connections
  obs::Counter* m_requests_shed_ = nullptr;
  obs::Counter* m_deadline_expired_ = nullptr;
  obs::Counter* m_requests_served_ = nullptr;
  obs::Counter* m_routing_errors_ = nullptr;
  obs::Counter* m_by_kind_[5] = {};  // indexed by DecodeKind wire value
  // "frontend.req_ring_occupancy": the in-flight decode count (the name
  // is kept for existing readers of the metric).
  obs::Gauge* m_ring_occupancy_ = nullptr;
  obs::Histogram* m_latency_us_ = nullptr;
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_FRONTEND_H_

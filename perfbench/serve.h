// The serving half of a workload: a wire front end over a ModelRegistry,
// the client that drives its open-loop and closed-loop load phases over two
// loopback connections, and the output oracle.
//
// Load generation: one client thread drives both connections through
// non-blocking sockets and poll(), using the library's wire codec for
// framing. Each connection keeps its in-flight requests in send order and
// matches every response to its request by id.
#ifndef DHMM_PERFBENCH_SERVE_H_
#define DHMM_PERFBENCH_SERVE_H_

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "eval/metrics.h"
#include "hmm/inference.h"
#include "hmm/model.h"
#include "hmm/posterior_decoding.h"
#include "prob/rng.h"
#include "serve/decode_service.h"
#include "serve/frontend.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/session_manager.h"
#include "serve/wire.h"
#include "serve/wire_client.h"
#include "store/dual_slot.h"

namespace perfbench {

namespace hmm = dhmm::hmm;
namespace serve = dhmm::serve;

/// Aborts the run without printing a result: set-up could not complete.
[[noreturn]] inline void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: fatal: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

inline void CheckOk(const dhmm::Status& st, const std::string& what) {
  if (!st.ok()) Fatal(what + ": " + st.ToString());
}

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// The offline answer to one stateless request.
struct Expected {
  std::vector<int> path;
  double value = 0.0;
};

/// One distinct request the load generator can send.
template <typename Obs>
struct RequestTemplate {
  serve::ModelId model = 1;
  serve::DecodeKind kind = serve::DecodeKind::kViterbi;
  std::vector<Obs> obs;
  std::vector<int> gold;       // true labels (stateless requests only)
  Expected expected;           // offline oracle (stateless requests only)
  std::vector<uint8_t> frame;  // encoded request; the id is patched per send
};

/// Everything a workload's serving half needs, built in set-up.
template <typename Obs>
struct ServeSpec {
  /// Served models; model i is registered under id i + 1.
  std::vector<std::shared_ptr<const hmm::HmmModel<Obs>>> models;
  std::vector<RequestTemplate<Obs>> templates;
  /// Per-connection cyclic send order (indices into `templates`).
  std::vector<uint32_t> order[2];
  /// When set, connection 1 carries kSessionPush frames to model 1.
  bool sessions = false;
  /// Open-loop arrival rate over both connections (requests per second).
  /// Fixed per workload, so every commit is measured at the same load.
  double open_rate = 1000.0;
  /// Closed-loop in-flight requests per connection.
  size_t window = 8;
  /// Slices each load phase is cut into; the open and closed loops
  /// alternate slice by slice (see RunServePhases).
  int rounds = 1;
  /// > 0: a second client thread reloads the models from their stores at
  /// this period, alternating between them.
  int reload_period_ms = 0;
};

/// Fills every stateless template's oracle by the offline decode (emission
/// table, then TryViterbi / TryPosteriorDecode) under the model the
/// registry serves, and encodes every template's request frame.
template <typename Obs>
void PrepareTemplates(
    const std::vector<std::shared_ptr<const hmm::HmmModel<Obs>>>& served,
    std::vector<RequestTemplate<Obs>>* templates) {
  hmm::InferenceWorkspace ws;
  hmm::ViterbiResult vit;
  hmm::ForwardBackwardResult fb;
  for (RequestTemplate<Obs>& t : *templates) {
    serve::DecodeRequest<Obs> req;
    req.model = t.model;
    req.kind = t.kind;
    req.obs = &t.obs;
    t.frame.clear();
    CheckOk(serve::wire::EncodeRequest(req, &t.frame), "encode request");
    if (t.kind == serve::DecodeKind::kSessionPush) continue;
    const hmm::HmmModel<Obs>& m = *served[t.model - 1];
    m.emission->LogProbTableInto(t.obs, &ws.log_b);
    if (t.kind == serve::DecodeKind::kViterbi) {
      CheckOk(hmm::TryViterbi(m.pi, m.a, ws.log_b, &ws, &vit), "oracle");
      t.expected.path = vit.path;
      t.expected.value = vit.log_joint;
    } else {
      CheckOk(hmm::TryPosteriorDecode(m.pi, m.a, ws.log_b, &ws, &fb,
                                      &t.expected.path),
              "oracle");
      t.expected.value = fb.log_likelihood;
    }
  }
}

/// Many-to-one accuracy of the oracle Viterbi paths against the gold
/// labels — the tags the server returns, since every response is checked
/// bitwise against the oracle.
template <typename Obs>
double ServedTagAccuracy(const std::vector<RequestTemplate<Obs>>& templates,
                         size_t k) {
  dhmm::eval::LabelSequences predicted, gold;
  for (const RequestTemplate<Obs>& t : templates) {
    if (t.kind != serve::DecodeKind::kViterbi || t.gold.empty()) continue;
    predicted.push_back(t.expected.path);
    gold.push_back(t.gold);
  }
  return dhmm::eval::ManyToOneAccuracy(predicted, gold, k).accuracy;
}

/// CPU placement of a serving run: the server's threads share one CPU and
/// the client's threads another, leaving the rest of the host to the
/// kernel and to its neighbours. On the 4-vCPU VM the benchmark was
/// calibrated on, leaving placement to the scheduler made the round-trip
/// median bimodal from run to run (cross-CPU wake-ups between the server's
/// hand-off threads cost differently per placement); one shared server CPU
/// made it steady. With fewer than 3 CPUs nothing is pinned.
class CpuPlacement {
 public:
  CpuPlacement() = default;
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;
  ~CpuPlacement() { RestoreClient(); }

  static constexpr int kClientCpu = 2;
  static constexpr int kServerCpu = 1;

  /// Pins every other thread of the process (the server's, when called
  /// right after it starts) to kServerCpu and the calling thread to
  /// kClientCpu. Threads the caller creates later inherit kClientCpu.
  void PinServerAndClient() {
    if (::sysconf(_SC_NPROCESSORS_ONLN) < 3) return;
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    const long self = ::syscall(SYS_gettid);
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      const long tid = std::stol(entry.path().filename().string());
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(tid == self ? kClientCpu : kServerCpu, &set);
      ::sched_setaffinity(static_cast<pid_t>(tid), sizeof(set), &set);
    }
    pinned_ = true;
  }

  /// Moves the calling thread (a second client thread) off both the client
  /// and the server CPU.
  static void PinToSpareCpus() {
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (cpus < 3) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu = 0; cpu < cpus && cpu < CPU_SETSIZE; ++cpu) {
      if (cpu != kClientCpu && cpu != kServerCpu) CPU_SET(cpu, &set);
    }
    ::sched_setaffinity(0, sizeof(set), &set);
  }

  /// Gives the calling thread back its original CPU mask and stops the
  /// server CPU's keep-awake thread.
  void RestoreClient() {
    if (!pinned_) return;
    awake_stop_.store(true, std::memory_order_relaxed);
    if (awake_.joinable()) awake_.join();
    ::sched_setaffinity(0, sizeof(saved_), &saved_);
    pinned_ = false;
  }

  /// Keeps the server CPU from going idle: a SCHED_IDLE thread pinned to it
  /// spins until RestoreClient(). Any server thread that wakes preempts it
  /// at once, so it takes almost no time from the server; it spares each
  /// request the wake-up of a halted vCPU, whose cost on a shared host
  /// depends on the neighbours: on a 4-vCPU KVM guest it cut the spread of
  /// the PoS round-trip median over five runs from 31% to 9%. It spins
  /// without PAUSE, which a hypervisor may answer by descheduling the vCPU.
  void KeepServerCpuAwake() {
    if (!pinned_ || awake_.joinable()) return;
    awake_stop_.store(false, std::memory_order_relaxed);
    awake_ = std::thread([this] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(kServerCpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
      sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!awake_stop_.load(std::memory_order_relaxed)) {
      }
    });
  }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
  std::atomic<bool> awake_stop_{false};
  std::thread awake_;
};

/// Counters and gauges of one kStats snapshot, by name.
using StatsMap = std::map<std::string, double>;

/// Each load phase is cut into equal windows, and each reported figure
/// combines the per-window figures (see serve_phases.h), so a stall of the
/// host that disturbs some windows does not move a run's result. An
/// open-loop window holds about kOpenWindowSamples scheduled requests (its
/// p99 then has ten samples beyond it); a closed-loop window lasts
/// kClosedWindowSeconds.
inline constexpr double kOpenWindowSamples = 1000.0;
inline constexpr double kClosedWindowSeconds = 0.25;

/// Outcome of one load phase.
struct PhaseOutcome {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;      // non-OK status (sheds included)
  uint64_t mismatched = 0;  // OK status, but not bitwise equal to the oracle
  double duration_s = 0.0;
  /// Open loop: round trips from the scheduled send time, by the window
  /// the request was scheduled in.
  std::vector<std::vector<double>> rtt_us;
  double window_s = 0.0;
  /// Open loop: actual minus scheduled send time of every request.
  std::vector<double> late_us;
  /// Closed loop: OK responses received in each window.
  std::vector<uint64_t> ok_by_window;
};

/// A running server plus the client side of the benchmark.
template <typename Obs>
class WireEnv {
 public:
  /// Publishes each model to a dual-slot store directory under `dir`,
  /// registers it from there, computes the oracle against the served
  /// snapshot, starts the front end, connects, and warms up.
  WireEnv(ServeSpec<Obs> spec, const std::string& dir, size_t warmup)
      : spec_(std::move(spec)) {
    serve::ModelRegistryOptions ropts;
    ropts.service.num_threads = 1;
    registry_ = std::make_unique<serve::ModelRegistry<Obs>>(ropts);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) Fatal("cannot create " + dir + ": " + ec.message());
    for (size_t i = 0; i < spec_.models.size(); ++i) {
      const std::string store_dir = dir + "/model" + std::to_string(i + 1);
      auto store = dhmm::store::DualSlotStore::Open(store_dir);
      CheckOk(store.status(), "open store " + store_dir);
      CheckOk(store.value().Publish(*spec_.models[i]), "publish");
      const serve::ModelId id = i + 1;
      CheckOk(registry_->RegisterFromFile(id, store_dir, /*pinned=*/true),
              "register");
      auto svc = registry_->Acquire(id);
      CheckOk(svc.status(), "acquire");
      served_.push_back(svc.value()->ModelSnapshot());
      store_dirs_.push_back(store_dir);
    }
    PrepareTemplates(served_, &spec_.templates);
    // The request queue is sized so that a host stall of a few seconds at
    // the open-loop rate queues instead of shedding: the phases measure
    // latency, and a shed request would fail the run.
    serve::FrontEndOptions fopts;
    fopts.queue_capacity = 65536;
    frontend_ = std::make_unique<serve::FrontEnd<Obs>>(registry_.get(), fopts);
    if (spec_.sessions) {
      sessions_ = std::make_unique<serve::SessionManager<Obs>>(served_[0]);
      reference_ = std::make_unique<serve::SessionManager<Obs>>(served_[0]);
      auto h = reference_->CreateSession();
      CheckOk(h.status(), "reference session");
      reference_handle_ = h.value();
      frontend_->EnableSessions(sessions_.get(), 1);
    }
    CheckOk(frontend_->Start(), "front end start");
    placement_.PinServerAndClient();
    placement_.KeepServerCpuAwake();
    for (Conn& c : conns_) c.fd = ConnectLoopback(frontend_->port());
    CheckOk(control_.Connect(frontend_->port()), "control connect");
    if (warmup > 0) {
      PhaseOutcome w = RunClosed(/*duration_s=*/0.0, warmup);
      if (w.failed != 0) Fatal("warm-up requests failed");
    }
  }

  ~WireEnv() {
    placement_.RestoreClient();
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    control_.Close();
    frontend_.reset();  // stops the IO and dispatcher threads first
  }

  WireEnv(const WireEnv&) = delete;
  WireEnv& operator=(const WireEnv&) = delete;

  const ServeSpec<Obs>& spec() const { return spec_; }
  serve::ModelRegistry<Obs>& registry() { return *registry_; }
  const std::vector<std::shared_ptr<const hmm::HmmModel<Obs>>>& served()
      const {
    return served_;
  }
  const std::string& store_dir(size_t i) const { return store_dirs_[i]; }

  /// Unpins the calling thread once the serving phases are over, so work
  /// it starts later (fits) may use every CPU.
  void ReleaseClientCpu() { placement_.RestoreClient(); }

  /// Open loop: seeded Poisson arrivals at spec().open_rate for
  /// `duration_s`, each sent on a seeded choice of connection. Latency runs
  /// from each request's scheduled send time.
  PhaseOutcome RunOpen(double duration_s, dhmm::prob::Rng* rng) {
    PhaseOutcome out;
    open_ = true;
    phase_ = &out;
    const double expected = spec_.open_rate * duration_s;
    const int windows = static_cast<int>(
        std::max(1.0, std::floor(expected / kOpenWindowSamples)));
    StartWindows(duration_s, windows);
    out.window_s = duration_s / windows;
    out.rtt_us.resize(windows);
    for (std::vector<double>& w : out.rtt_us) {
      w.reserve(static_cast<size_t>(2 * kOpenWindowSamples));
    }
    out.late_us.reserve(static_cast<size_t>(expected * 2));
    const Clock::time_point end = end_;
    Clock::time_point next = start_ + ToDuration(NextGap(rng));
    for (;;) {
      Clock::time_point now = Clock::now();
      while (next <= now && next < end) {
        const int c = rng->Uniform() < 0.5 ? 0 : 1;
        out.late_us.push_back(Micros(next, now));
        Send(c, next);
        next += ToDuration(NextGap(rng));
        now = Clock::now();
      }
      const bool sending = next < end;
      if (!sending && Inflight() == 0) break;
      if (!sending && now > end + kDrainTimeout) break;
      PollOnce();
    }
    FailUnanswered();
    out.duration_s = duration_s;
    phase_ = nullptr;
    return out;
  }

  /// Closed loop: each connection keeps spec().window requests in flight
  /// until `duration_s` has passed (or, when `count` > 0, until `count`
  /// requests per connection have been sent — the warm-up form).
  PhaseOutcome RunClosed(double duration_s, size_t count = 0) {
    PhaseOutcome out;
    open_ = false;
    phase_ = &out;
    const int windows = static_cast<int>(
        std::max(1.0, std::round(duration_s / kClosedWindowSeconds)));
    out.ok_by_window.assign(windows, 0);
    out.window_s = duration_s / windows;
    StartWindows(duration_s, windows);
    const Clock::time_point start = start_;
    if (count > 0) end_ = Clock::time_point::max();
    budget_ = count;
    for (int c = 0; c < 2; ++c) {
      conns_[c].budget_sent = 0;
      for (size_t i = 0; i < spec_.window; ++i) MaybeSendClosed(c);
    }
    const Clock::time_point hard_stop =
        (count > 0 ? start + std::chrono::seconds(60) : end_) + kDrainTimeout;
    while (Inflight() > 0 && Clock::now() < hard_stop) PollOnce();
    FailUnanswered();
    out.duration_s = count > 0 ? SecondsSince(start) : duration_s;
    phase_ = nullptr;
    return out;
  }

  /// The process's metrics, fetched over the wire through kStats.
  StatsMap FetchStats() {
    static const std::vector<Obs> kEmpty;
    serve::DecodeRequest<Obs> req;
    req.kind = serve::DecodeKind::kStats;
    req.obs = &kEmpty;
    serve::DecodeResponse resp;
    CheckOk(control_.Call(req, &resp), "kStats call");
    CheckOk(resp.status, "kStats status");
    StatsMap stats;
    std::istringstream lines(resp.text);
    std::string name;
    double value = 0.0;
    while (lines >> name >> value) stats[name] = value;
    return stats;
  }

  /// The control connection, for the traced one-at-a-time replay.
  serve::WireClient& control() { return control_; }

 private:
  static constexpr std::chrono::seconds kDrainTimeout{10};

  struct InFlight {
    uint64_t id;
    Clock::time_point scheduled;
    uint32_t tmpl;
    int window;  // open loop: the window the request was scheduled in
  };

  struct Conn {
    int fd = -1;
    std::vector<uint8_t> rbuf;
    size_t rlen = 0;
    std::vector<uint8_t> wbuf;
    size_t woff = 0;
    std::deque<InFlight> inflight;
    size_t cursor = 0;       // next position in the connection's order
    size_t budget_sent = 0;  // closed-loop sends in a counted run
  };

  void StartWindows(double duration_s, int windows) {
    start_ = Clock::now();
    end_ = start_ + ToDuration(duration_s);
    windows_ = windows;
    window_len_ = ToDuration(duration_s / windows);
  }

  // The window `t` falls in; -1 outside the phase.
  int WindowOf(Clock::time_point t) const {
    if (t < start_ || t >= end_ || window_len_.count() <= 0) return -1;
    return std::min<int>(windows_ - 1,
                         static_cast<int>((t - start_) / window_len_));
  }

  static Clock::duration ToDuration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  double NextGap(dhmm::prob::Rng* rng) const {
    return -std::log(1.0 - rng->Uniform()) / spec_.open_rate;
  }

  static int ConnectLoopback(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) Fatal("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Fatal("connect");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
  }

  size_t Inflight() const {
    return conns_[0].inflight.size() + conns_[1].inflight.size();
  }

  void Send(int c, Clock::time_point scheduled) {
    Conn& conn = conns_[c];
    const std::vector<uint32_t>& order = spec_.order[c];
    const uint32_t tmpl = order[conn.cursor++ % order.size()];
    const std::vector<uint8_t>& frame = spec_.templates[tmpl].frame;
    if (conn.woff == conn.wbuf.size()) {
      conn.wbuf.clear();
      conn.woff = 0;
    }
    const size_t base = conn.wbuf.size();
    conn.wbuf.insert(conn.wbuf.end(), frame.begin(), frame.end());
    // The request id is the little-endian u64 at header offset 16.
    const uint64_t id = next_id_++;
    for (int b = 0; b < 8; ++b) {
      conn.wbuf[base + 16 + b] = static_cast<uint8_t>(id >> (8 * b));
    }
    conn.inflight.push_back({id, scheduled, tmpl, WindowOf(scheduled)});
    ++phase_->sent;
    Flush(c);
  }

  void MaybeSendClosed(int c) {
    if (budget_ > 0) {
      if (conns_[c].budget_sent >= budget_) return;
      ++conns_[c].budget_sent;
    } else if (Clock::now() >= end_) {
      return;
    }
    Send(c, Clock::now());
  }

  void Flush(int c) {
    Conn& conn = conns_[c];
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        Fatal("send failed");
      }
      conn.woff += static_cast<size_t>(n);
    }
  }

  // The client never sleeps: it polls with a zero timeout on its own CPU.
  // On the virtualised host the benchmark was calibrated on, waking a
  // halted vCPU cost up to milliseconds, which a sleeping generator added
  // to its own schedule and to every round trip it timed.
  void PollOnce() {
    pollfd fds[2];
    for (int c = 0; c < 2; ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = POLLIN;
      if (conns_[c].woff < conns_[c].wbuf.size()) fds[c].events |= POLLOUT;
      fds[c].revents = 0;
    }
    const int n = ::poll(fds, 2, /*timeout=*/0);
    if (n <= 0) return;
    for (int c = 0; c < 2; ++c) {
      if (fds[c].revents & (POLLERR | POLLHUP)) Fatal("server closed");
      if (fds[c].revents & POLLOUT) Flush(c);
      if (fds[c].revents & POLLIN) Read(c);
    }
  }

  void Read(int c) {
    Conn& conn = conns_[c];
    for (;;) {
      if (conn.rbuf.size() < conn.rlen + kReadChunk) {
        conn.rbuf.resize(conn.rlen + kReadChunk);
      }
      const ssize_t n =
          ::recv(conn.fd, conn.rbuf.data() + conn.rlen, kReadChunk, 0);
      if (n == 0) Fatal("server closed a load connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        Fatal("recv failed");
      }
      conn.rlen += static_cast<size_t>(n);
      const Clock::time_point now = Clock::now();
      Parse(c, now);
      if (static_cast<size_t>(n) < kReadChunk) break;
    }
  }

  void Parse(int c, Clock::time_point now) {
    Conn& conn = conns_[c];
    size_t off = 0;
    while (conn.rlen - off >= serve::wire::kHeaderSize) {
      serve::wire::FrameHeader h;
      CheckOk(serve::wire::DecodeHeader(conn.rbuf.data() + off,
                                        conn.rlen - off, &h),
              "response header");
      if (conn.rlen - off < serve::wire::kHeaderSize + h.payload_len) break;
      CheckOk(serve::wire::DecodeResponsePayload(
                  h, conn.rbuf.data() + off + serve::wire::kHeaderSize,
                  h.payload_len, &resp_),
              "response payload");
      off += serve::wire::kHeaderSize + h.payload_len;
      Complete(c, now);
    }
    if (off > 0) {
      std::memmove(conn.rbuf.data(), conn.rbuf.data() + off, conn.rlen - off);
      conn.rlen -= off;
    }
  }

  void Complete(int c, Clock::time_point now) {
    Conn& conn = conns_[c];
    PhaseOutcome& out = *phase_;
    // Responses come back in send order, except that a shed request is
    // answered at once by the front end's IO thread and can overtake.
    auto it = conn.inflight.begin();
    while (it != conn.inflight.end() && it->id != resp_.request_id) ++it;
    if (it == conn.inflight.end()) Fatal("response to an unknown request");
    const InFlight f = *it;
    conn.inflight.erase(it);
    const RequestTemplate<Obs>& t = spec_.templates[f.tmpl];
    bool ok = resp_.status.ok();
    if (!ok) {
      ++out.errors;
      if (resp_.status.code() == dhmm::StatusCode::kUnavailable) ++out.shed;
    } else {
      ok = t.kind == serve::DecodeKind::kSessionPush
               ? MatchesReferenceSession(t.obs)
               : resp_.path == t.expected.path &&
                     SameBits(resp_.value, t.expected.value);
      if (!ok) ++out.mismatched;
    }
    if (ok) {
      ++out.ok;
    } else {
      ++out.failed;
    }
    if (open_) {
      if (f.window >= 0) out.rtt_us[f.window].push_back(Micros(f.scheduled, now));
    } else {
      const int w = WindowOf(now);
      if (ok && w >= 0) ++out.ok_by_window[w];
      MaybeSendClosed(c);
    }
  }

  // A session push's oracle depends on the whole stream before it, so it
  // is computed as the responses arrive: the same frames pushed, in the
  // same order, through a reference session over the served model. Its
  // labels and running log-likelihood must equal the response bitwise.
  bool MatchesReferenceSession(const std::vector<Obs>& frames) {
    expect_labels_.clear();
    for (const Obs& y : frames) {
      int label = -1;
      if (!reference_->Push(reference_handle_, y, &label).ok()) return false;
      if (label >= 0) expect_labels_.push_back(label);
    }
    const auto ll = reference_->LogLikelihood(reference_handle_);
    return ll.ok() && SameBits(ll.value(), resp_.value) &&
           expect_labels_ == resp_.path;
  }

  // Requests still unanswered after the drain timeout count as failed.
  void FailUnanswered() {
    for (Conn& conn : conns_) {
      phase_->failed += conn.inflight.size();
      conn.inflight.clear();
    }
  }

  static constexpr size_t kReadChunk = 64 * 1024;

  ServeSpec<Obs> spec_;
  CpuPlacement placement_;
  std::unique_ptr<serve::ModelRegistry<Obs>> registry_;
  std::vector<std::shared_ptr<const hmm::HmmModel<Obs>>> served_;
  std::vector<std::string> store_dirs_;
  std::unique_ptr<serve::SessionManager<Obs>> sessions_;
  std::unique_ptr<serve::SessionManager<Obs>> reference_;
  serve::SessionHandle reference_handle_ = serve::kInvalidSessionHandle;
  std::unique_ptr<serve::FrontEnd<Obs>> frontend_;
  serve::WireClient control_;

  Conn conns_[2];
  uint64_t next_id_ = 1;
  serve::DecodeResponse resp_;
  PhaseOutcome* phase_ = nullptr;
  bool open_ = false;
  Clock::time_point start_{};
  Clock::time_point end_{};
  Clock::duration window_len_{};
  int windows_ = 1;
  size_t budget_ = 0;
  std::vector<int> expect_labels_;  // reference-session scratch
};

}  // namespace perfbench

#endif  // DHMM_PERFBENCH_SERVE_H_

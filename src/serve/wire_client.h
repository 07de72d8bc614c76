// A minimal blocking client for the wire protocol (serve/wire.h).
//
// Used by the loopback tests, the front-end benchmark, and the gateway
// example. Split send/receive entry points let callers pipeline many
// requests per connection; Call() is the one-shot convenience. All
// buffers are members and grow-only, so a warm request/response round
// performs zero client-side heap allocations on the OK path.
#ifndef DHMM_SERVE_WIRE_CLIENT_H_
#define DHMM_SERVE_WIRE_CLIENT_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "serve/request.h"
#include "serve/wire.h"
#include "util/check.h"
#include "util/status.h"

namespace dhmm::serve {

/// Options for the wire client. Designated-initializer-friendly POD with a
/// Validate() checked at construction — the shared shape of every serve
/// options struct (see the README options table).
struct WireClientOptions {
  /// Deadline in milliseconds for one whole Receive() (header + payload).
  /// 0 — the default — blocks indefinitely, the pre-option behavior. When
  /// set, a response that does not arrive in time returns
  /// kDeadlineExceeded; the connection is left as-is (a late frame is
  /// still readable by the next Receive), so callers decide whether to
  /// resynchronize or Close().
  int receive_timeout_ms = 0;
  /// Deadline in milliseconds for Connect() to establish the TCP
  /// connection. 0 — the default — blocks indefinitely, the pre-option
  /// behavior. When set, the connect runs non-blocking under poll(); a
  /// connection that is not established in time returns kDeadlineExceeded
  /// and leaves the client disconnected.
  int connect_timeout_ms = 0;

  Status Validate() const {
    if (receive_timeout_ms < 0) {
      return Status::InvalidArgument(
          "WireClientOptions::receive_timeout_ms must be >= 0");
    }
    if (connect_timeout_ms < 0) {
      return Status::InvalidArgument(
          "WireClientOptions::connect_timeout_ms must be >= 0");
    }
    return Status::OK();
  }
};

/// \brief Blocking loopback client speaking the binary wire protocol.
class WireClient {
 public:
  explicit WireClient(const WireClientOptions& options = {})
      : options_(options) {
    const Status opt_st = options.Validate();
    DHMM_CHECK_MSG(opt_st.ok(), opt_st.message().c_str());
  }
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// \brief Connects to 127.0.0.1:`port`, honoring connect_timeout_ms.
  Status Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const Status st =
        options_.connect_timeout_ms > 0
            ? ConnectWithDeadline(reinterpret_cast<const sockaddr*>(&addr),
                                  sizeof(addr))
            : (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0
                   ? Status::OK()
                   : Errno("connect"));
    if (!st.ok()) Close();
    return st;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    recv_have_ = 0;
  }

  bool connected() const { return fd_ >= 0; }

  /// \brief Encodes and sends one request frame. Returns without waiting
  /// for the response, so callers can pipeline.
  template <typename Obs>
  Status Send(const DecodeRequest<Obs>& req) {
    if (fd_ < 0) return Status::FailedPrecondition("client not connected");
    send_buf_.clear();
    DHMM_RETURN_NOT_OK(wire::EncodeRequest(req, &send_buf_));
    return SendRaw(send_buf_.data(), send_buf_.size());
  }

  /// \brief Sends `size` raw bytes — tests use this to inject malformed
  /// frames the typed encoder refuses to produce.
  Status SendRaw(const uint8_t* data, size_t size) {
    if (fd_ < 0) return Status::FailedPrecondition("client not connected");
    size_t off = 0;
    while (off < size) {
      const ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("send");
      }
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  /// \brief Blocks for the next response frame. The returned
  /// `resp->status` is the server-side decode status; a non-OK return
  /// here means the transport itself failed (closed connection,
  /// undecodable frame). A receive deadline that fires mid-frame keeps the
  /// bytes already read, so the next Receive resumes the same frame.
  Status Receive(DecodeResponse* resp, wire::FrameHeader* header = nullptr) {
    if (fd_ < 0) return Status::FailedPrecondition("client not connected");
    // One deadline covers the whole frame: header and payload.
    if (options_.receive_timeout_ms > 0) {
      deadline_ = Clock::now() +
                  std::chrono::milliseconds(options_.receive_timeout_ms);
    }
    DHMM_RETURN_NOT_OK(ReceiveUpTo(wire::kHeaderSize));
    wire::FrameHeader h;
    DHMM_RETURN_NOT_OK(wire::DecodeHeader(recv_buf_.data(),
                                          wire::kHeaderSize, &h));
    DHMM_RETURN_NOT_OK(ReceiveUpTo(wire::kHeaderSize + h.payload_len));
    recv_have_ = 0;  // frame complete: the next Receive starts a new one
    if (header != nullptr) *header = h;
    return wire::DecodeResponsePayload(h, recv_buf_.data() + wire::kHeaderSize,
                                       h.payload_len, resp);
  }

  /// \brief One-shot convenience: Send + Receive.
  template <typename Obs>
  Status Call(const DecodeRequest<Obs>& req, DecodeResponse* resp,
              wire::FrameHeader* header = nullptr) {
    DHMM_RETURN_NOT_OK(Send(req));
    return Receive(resp, header);
  }

 private:
  static Status Errno(const char* what) {
    return Status::Internal(std::string(what) + ": " +
                            std::strerror(errno));
  }

  // The classic bounded connect: flip the socket non-blocking, start the
  // connect, poll for writability within the deadline, then read SO_ERROR
  // for the real outcome and restore the original flags. A timeout is a
  // typed kDeadlineExceeded, never a hang.
  Status ConnectWithDeadline(const sockaddr* addr, socklen_t len) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0) return Errno("fcntl");
    if (::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
      return Errno("fcntl");
    }
    Status st = Status::OK();
    if (::connect(fd_, addr, len) != 0) {
      if (errno != EINPROGRESS) {
        st = Errno("connect");
      } else {
        st = AwaitConnected();
      }
    }
    if (st.ok() && ::fcntl(fd_, F_SETFL, flags) != 0) st = Errno("fcntl");
    return st;
  }

  // Polls an in-progress non-blocking connect until it resolves or the
  // deadline passes. Writability alone is not success — SO_ERROR carries
  // the real result (e.g. ECONNREFUSED also wakes POLLOUT).
  Status AwaitConnected() {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
    for (;;) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("connection not established within "
                                        "the connect deadline");
      }
      pollfd p{fd_, POLLOUT, 0};
      const int r = ::poll(&p, 1, static_cast<int>(remaining.count()));
      if (r > 0) {
        int err = 0;
        socklen_t elen = sizeof(err);
        if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &elen) != 0) {
          return Errno("getsockopt");
        }
        if (err != 0) {
          errno = err;
          return Errno("connect");
        }
        return Status::OK();
      }
      if (r == 0) {
        return Status::DeadlineExceeded("connection not established within "
                                        "the connect deadline");
      }
      if (errno != EINTR) return Errno("poll");
    }
  }

  // Waits for readability within the Receive() deadline. No-op with the
  // deadline disabled.
  Status AwaitReadable() {
    if (options_.receive_timeout_ms <= 0) return Status::OK();
    for (;;) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline_ - Clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("no response within the receive "
                                        "deadline");
      }
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(remaining.count()));
      if (r > 0) return Status::OK();
      if (r == 0) {
        return Status::DeadlineExceeded("no response within the receive "
                                        "deadline");
      }
      if (errno != EINTR) return Errno("poll");
    }
  }

  // Reads until the current frame has `size` bytes in recv_buf_. Progress
  // lives in recv_have_, not a local, so a deadline loses nothing.
  Status ReceiveUpTo(size_t size) {
    if (recv_buf_.size() < size) recv_buf_.resize(size);  // grow-only
    while (recv_have_ < size) {
      DHMM_RETURN_NOT_OK(AwaitReadable());
      const ssize_t n = ::recv(fd_, recv_buf_.data() + recv_have_,
                               size - recv_have_, 0);
      if (n == 0) {
        return Status::Unavailable("connection closed by server");
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("recv");
      }
      recv_have_ += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  using Clock = std::chrono::steady_clock;

  const WireClientOptions options_;
  Clock::time_point deadline_{};
  int fd_ = -1;
  std::vector<uint8_t> send_buf_;
  std::vector<uint8_t> recv_buf_;  // the current frame: header, payload
  size_t recv_have_ = 0;           // bytes of it received so far
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_WIRE_CLIENT_H_

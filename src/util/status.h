// Status / Result<T> error propagation for fallible operations.
//
// Follows the RocksDB convention: functions that can fail at runtime for
// reasons other than programmer error (bad input files, dimension mismatches
// at the public API boundary, non-convergence budgets, ...) return a Status
// or a Result<T> instead of throwing. Programmer-error invariants use the
// DHMM_CHECK macros from util/check.h instead.
#ifndef DHMM_UTIL_STATUS_H_
#define DHMM_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace dhmm {

/// Error/result code carried by a Status. The set is canonical: every
/// layer (training, serving, the wire protocol) maps its failures onto
/// these codes instead of inventing per-layer error enums, so a code
/// means the same thing at the API boundary and on the wire.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,          ///< missing file, unknown model id, absent flag
  kIOError,
  kNotConverged,
  kInternal,
  kDeadlineExceeded,  ///< request deadline expired before completion
  kUnavailable,       ///< transient overload — shed, retry later
};

/// \brief Lightweight success/error carrier (RocksDB-style).
///
/// A Status is cheap to copy on the success path (no allocation) and carries
/// a code plus human-readable message on the error path.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Named constructors.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotConverged(std::string msg) {
    return Status(StatusCode::kNotConverged, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// From a raw code + message — the wire decoder's entry point. An
  /// out-of-enum code (a frame from a newer peer) degrades to kInternal
  /// rather than aborting or forging kOk.
  static Status FromCode(StatusCode code, std::string msg) {
    if (code == StatusCode::kOk) return Status();
    if (code < StatusCode::kInvalidArgument ||
        code > StatusCode::kUnavailable) {
      return Status(StatusCode::kInternal, std::move(msg));
    }
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// \brief Value-or-Status, for fallible functions that produce a value.
template <typename T>
class Result {
 public:
  /// Implicit from value (success).
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : v_(std::move(value)) {}
  /// Implicit from non-OK status (failure). An OK status is a logic error and
  /// is converted to an Internal error to keep the invariant
  /// "ok() == has value".
  Result(Status status) : v_(std::move(status)) {  // NOLINT
    if (std::get<Status>(v_).ok()) {
      v_ = Status::Internal("Result constructed from OK status without value");
    }
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  /// Status of the result: OK when holding a value.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(v_);
  }

  /// Access the held value. Precondition: ok().
  const T& value() const& { return std::get<T>(v_); }
  T& value() & { return std::get<T>(v_); }
  T&& value() && { return std::get<T>(std::move(v_)); }

  /// The held value, or `fallback` on error — for callers with a safe
  /// default (mirrors std::optional::value_or).
  T value_or(T fallback) && {
    return ok() ? std::get<T>(std::move(v_)) : std::move(fallback);
  }

 private:
  std::variant<T, Status> v_;
};

}  // namespace dhmm

/// Propagates a non-OK status to the caller.
#define DHMM_RETURN_NOT_OK(expr)                  \
  do {                                            \
    ::dhmm::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                    \
  } while (false)

#endif  // DHMM_UTIL_STATUS_H_

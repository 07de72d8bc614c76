// The binary wire protocol of the serving front-end.
//
// A frame is a fixed 40-byte little-endian header followed by
// `payload_len` payload bytes. The header fields are exactly the scalar
// members of serve::DecodeRequest (serve/request.h) — the codec is nothing
// but (de)serialization of the one request/response pair the in-process
// API already uses.
//
//   offset  size  field
//        0     4  magic          0x4D4D4844 ("DHMM" as bytes 44 48 4D 4D)
//        4     2  version        1
//        6     1  kind           request: DecodeKind; response: kind | 0x80
//        7     1  flags          0 (reserved)
//        8     8  model id       registry key
//       16     8  request id     caller correlation id, echoed back
//       24     8  deadline       relative budget in microseconds, 0 = none
//       32     4  payload_len    bytes following the header
//       36     4  reserved       0
//
// Request payload:   u32 count, then `count` observations (f64 bits for
//                    scalar models, i32 for symbol models).
// Response payload:  u16 status code, u16 reserved, u64 model version,
//                    f64 value, u32 path length, i32 path entries,
//                    u32 message length, message bytes.
//
// Request kinds are pinned wire values (serve/request.h): kViterbi (0),
// kPosterior (1), kLogLikelihood (2), kSessionPush (3), and kStats (4).
// A kStats request carries an (ignored) empty observation payload; its
// response rides the message field with the rendered obs::Registry
// snapshot (an OK response's message bytes are DecodeResponse::text, a
// non-OK response's are status.message() — same layout either way). The
// first unknown kind byte is therefore 5.
//
// Every decode function returns a Status and never aborts: truncated
// frames, bad magic, unsupported versions, oversized payloads, and
// payload/header length mismatches are all InvalidArgument/OutOfRange —
// a malformed client frame must not take down the serving process.
// Integers are encoded byte-wise (shift/or), so the encoding is
// little-endian on every host and bitwise-stable across platforms
// (tests/wire_test.cc pins the exact header bytes).
//
// Allocation: encoders append into a caller-owned grow-only byte vector
// and decoders resize caller-owned grow-only output buffers, so a warm
// encode/decode round performs zero heap allocations on the OK path.
#ifndef DHMM_SERVE_WIRE_H_
#define DHMM_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"
#include "util/little_endian.h"
#include "util/status.h"

namespace dhmm::serve::wire {

/// "DHMM" in little-endian byte order.
inline constexpr uint32_t kMagic = 0x4D4D4844u;
/// Protocol version this build speaks.
inline constexpr uint16_t kVersion = 1;
/// Fixed header size in bytes.
inline constexpr size_t kHeaderSize = 40;
/// Set on the header kind byte of response frames.
inline constexpr uint8_t kResponseBit = 0x80;
/// Largest accepted payload (16 MiB): a corrupt or hostile length field
/// is rejected before any buffer is sized from it.
inline constexpr size_t kMaxPayload = size_t{1} << 24;

/// \brief Decoded frame header — the wire image of DecodeRequest's
/// scalar fields plus the payload length.
struct FrameHeader {
  uint8_t kind = 0;             ///< DecodeKind value; | kResponseBit on rsp
  ModelId model = 0;
  uint64_t request_id = 0;
  uint64_t deadline_micros = 0;
  uint32_t payload_len = 0;

  bool is_response() const { return (kind & kResponseBit) != 0; }
  DecodeKind decode_kind() const {
    return static_cast<DecodeKind>(kind & ~kResponseBit);
  }
};

namespace internal {

/// Grows `*out` by `n` bytes and returns a pointer to the new region.
inline uint8_t* Extend(std::vector<uint8_t>* out, size_t n) {
  const size_t base = out->size();
  out->resize(base + n);
  return out->data() + base;
}

/// Per-element observation codec. Only the observation types the emission
/// families serve are wire-encodable; adding a type means one
/// specialization here.
template <typename Obs>
struct ObsCodec;

template <>
struct ObsCodec<double> {
  static constexpr size_t kSize = 8;
  static void Put(double v, uint8_t* p) { util::PutF64(v, p); }
  static double Get(const uint8_t* p) { return util::GetF64(p); }
};

template <>
struct ObsCodec<int> {
  static constexpr size_t kSize = 4;
  static void Put(int v, uint8_t* p) {
    util::PutU32(static_cast<uint32_t>(v), p);
  }
  static int Get(const uint8_t* p) {
    return static_cast<int>(util::GetU32(p));
  }
};

}  // namespace internal

/// \brief Writes the 40-byte header for `h` into out[0..kHeaderSize).
void EncodeHeader(const FrameHeader& h, uint8_t* out);

/// \brief Parses a header from the first kHeaderSize bytes of
/// [data, data+size). Rejects truncation, bad magic, unsupported versions,
/// and payload lengths above kMaxPayload — before anything is sized from
/// the frame.
Status DecodeHeader(const uint8_t* data, size_t size, FrameHeader* out);

/// \brief Appends a complete request frame (header + payload) for `req`
/// to `*out`. Fails on a null observation borrow or a sequence whose
/// encoding would exceed kMaxPayload.
template <typename Obs>
Status EncodeRequest(const DecodeRequest<Obs>& req,
                     std::vector<uint8_t>* out) {
  using Codec = internal::ObsCodec<Obs>;
  if (req.obs == nullptr) {
    return Status::InvalidArgument("request borrows no observations");
  }
  const size_t count = req.obs->size();
  const size_t payload = 4 + count * Codec::kSize;
  if (payload > kMaxPayload) {
    return Status::OutOfRange("request payload exceeds kMaxPayload");
  }
  FrameHeader h;
  h.kind = static_cast<uint8_t>(req.kind);
  h.model = req.model;
  h.request_id = req.request_id;
  h.deadline_micros = req.deadline_micros;
  h.payload_len = static_cast<uint32_t>(payload);
  uint8_t* p = internal::Extend(out, kHeaderSize + payload);
  EncodeHeader(h, p);
  p += kHeaderSize;
  util::PutU32(static_cast<uint32_t>(count), p);
  p += 4;
  for (size_t i = 0; i < count; ++i, p += Codec::kSize) {
    Codec::Put((*req.obs)[i], p);
  }
  return Status::OK();
}

/// \brief Decodes a request payload (the `h.payload_len` bytes after the
/// header) into `*obs`, which is resized in place (grow-only). The scalar
/// request fields live in the header; callers assemble the DecodeRequest
/// from `h` + `obs`. Rejects response-marked kinds, unknown kinds, and any
/// count/length mismatch.
template <typename Obs>
Status DecodeRequestPayload(const FrameHeader& h, const uint8_t* payload,
                            size_t size, std::vector<Obs>* obs) {
  using Codec = internal::ObsCodec<Obs>;
  if (h.is_response()) {
    return Status::InvalidArgument("response frame where a request was "
                                   "expected");
  }
  if (h.kind > static_cast<uint8_t>(DecodeKind::kStats)) {
    return Status::InvalidArgument("unknown request kind " +
                                   std::to_string(int{h.kind}));
  }
  if (size != h.payload_len) {
    return Status::InvalidArgument("truncated request payload");
  }
  if (size < 4) {
    return Status::InvalidArgument("request payload shorter than its "
                                   "observation count");
  }
  const uint32_t count = util::GetU32(payload);
  if (size - 4 != size_t{count} * Codec::kSize) {
    return Status::InvalidArgument("request payload length does not match "
                                   "its observation count");
  }
  obs->resize(count);
  const uint8_t* p = payload + 4;
  for (uint32_t i = 0; i < count; ++i, p += Codec::kSize) {
    (*obs)[i] = Codec::Get(p);
  }
  return Status::OK();
}

/// \brief Appends a complete response frame for `resp` to `*out`.
/// `model` echoes the request's registry key into the header.
Status EncodeResponse(const DecodeResponse& resp, ModelId model,
                      std::vector<uint8_t>* out);

/// \brief Decodes a response payload (the bytes after the header) into
/// `*resp`; grow-only except for a non-empty error message. Rejects
/// request-marked kinds and any length mismatch.
Status DecodeResponsePayload(const FrameHeader& h, const uint8_t* payload,
                             size_t size, DecodeResponse* resp);

}  // namespace dhmm::serve::wire

#endif  // DHMM_SERVE_WIRE_H_

#include "serve/wire.h"

#include <cstring>
#include <string>

namespace dhmm::serve::wire {

namespace {

using util::GetU16;
using util::GetU32;
using util::GetU64;
using util::GetF64;
using util::PutU16;
using util::PutU32;
using util::PutU64;
using util::PutF64;

// Response payload layout after the frame header (see wire.h).
constexpr size_t kResponseFixed = 2 + 2 + 8 + 8 + 4;  // up to path entries

}  // namespace

void EncodeHeader(const FrameHeader& h, uint8_t* out) {
  PutU32(kMagic, out + 0);
  PutU16(kVersion, out + 4);
  out[6] = h.kind;
  out[7] = 0;  // flags
  PutU64(h.model, out + 8);
  PutU64(h.request_id, out + 16);
  PutU64(h.deadline_micros, out + 24);
  PutU32(h.payload_len, out + 32);
  PutU32(0, out + 36);  // reserved
}

Status DecodeHeader(const uint8_t* data, size_t size, FrameHeader* out) {
  if (size < kHeaderSize) {
    return Status::InvalidArgument("truncated frame header");
  }
  if (GetU32(data + 0) != kMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  const uint16_t version = GetU16(data + 4);
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  out->kind = data[6];
  out->model = GetU64(data + 8);
  out->request_id = GetU64(data + 16);
  out->deadline_micros = GetU64(data + 24);
  out->payload_len = GetU32(data + 32);
  if (out->payload_len > kMaxPayload) {
    return Status::OutOfRange("oversized frame payload: " +
                              std::to_string(out->payload_len) + " bytes");
  }
  return Status::OK();
}

Status EncodeResponse(const DecodeResponse& resp, ModelId model,
                      std::vector<uint8_t>* out) {
  const size_t path_bytes = resp.path.size() * 4;
  // The message field is shared: OK responses carry resp.text (the kStats
  // snapshot; empty for decode responses), error responses carry the
  // status message. One layout, no new frame fields.
  const std::string& msg = resp.status.ok() ? resp.text
                                            : resp.status.message();
  const size_t msg_bytes = msg.size();
  const size_t payload = kResponseFixed + path_bytes + 4 + msg_bytes;
  if (payload > kMaxPayload) {
    return Status::OutOfRange("response payload exceeds kMaxPayload");
  }
  FrameHeader h;
  h.kind = static_cast<uint8_t>(resp.kind) | kResponseBit;
  h.model = model;
  h.request_id = resp.request_id;
  h.deadline_micros = 0;
  h.payload_len = static_cast<uint32_t>(payload);
  uint8_t* p = internal::Extend(out, kHeaderSize + payload);
  EncodeHeader(h, p);
  p += kHeaderSize;
  PutU16(static_cast<uint16_t>(resp.status.code()), p);
  PutU16(0, p + 2);  // reserved
  PutU64(resp.model_version, p + 4);
  PutF64(resp.value, p + 12);
  PutU32(static_cast<uint32_t>(resp.path.size()), p + 20);
  p += kResponseFixed;
  for (size_t i = 0; i < resp.path.size(); ++i, p += 4) {
    PutU32(static_cast<uint32_t>(resp.path[i]), p);
  }
  PutU32(static_cast<uint32_t>(msg_bytes), p);
  p += 4;
  if (msg_bytes != 0) std::memcpy(p, msg.data(), msg_bytes);
  return Status::OK();
}

Status DecodeResponsePayload(const FrameHeader& h, const uint8_t* payload,
                             size_t size, DecodeResponse* resp) {
  if (!h.is_response()) {
    return Status::InvalidArgument("request frame where a response was "
                                   "expected");
  }
  const uint8_t kind = h.kind & ~kResponseBit;
  if (kind > static_cast<uint8_t>(DecodeKind::kStats)) {
    return Status::InvalidArgument("unknown response kind " +
                                   std::to_string(int{kind}));
  }
  if (size != h.payload_len || size < kResponseFixed + 4) {
    return Status::InvalidArgument("truncated response payload");
  }
  const uint32_t path_len = GetU32(payload + 20);
  if (size_t{path_len} * 4 > size - kResponseFixed - 4) {
    return Status::InvalidArgument("response path exceeds its payload");
  }
  const uint8_t* p = payload + kResponseFixed;
  const size_t msg_off = kResponseFixed + size_t{path_len} * 4;
  const uint32_t msg_len = GetU32(payload + msg_off);
  if (msg_off + 4 + msg_len != size) {
    return Status::InvalidArgument("response payload length does not match "
                                   "its contents");
  }
  resp->request_id = h.request_id;
  resp->kind = static_cast<DecodeKind>(kind);
  resp->model_version = GetU64(payload + 4);
  resp->value = GetF64(payload + 12);
  resp->path.resize(path_len);
  for (uint32_t i = 0; i < path_len; ++i, p += 4) {
    resp->path[i] = static_cast<int>(GetU32(p));
  }
  const auto code = static_cast<StatusCode>(GetU16(payload));
  const char* msg_data =
      reinterpret_cast<const char*>(payload + msg_off + 4);
  if (code == StatusCode::kOk) {
    // OK responses carry DecodeResponse::text in the message field (empty
    // for decode responses — assign() of nothing stays allocation-free).
    resp->status = Status::OK();
    resp->text.assign(msg_data, msg_len);
  } else {
    resp->text.clear();
    resp->status = Status::FromCode(
        code,
        msg_len == 0 ? std::string() : std::string(msg_data, msg_len));
  }
  return Status::OK();
}

}  // namespace dhmm::serve::wire

// The wire-protocol codec contract (serve/wire.h):
//  - the 40-byte header encodes to pinned little-endian bytes on every
//    host (cross-endian stability by construction),
//  - request and response frames round-trip bitwise over random contents,
//  - every strict prefix of a valid frame decodes to a non-OK Status —
//    truncation is an error, never a crash or an abort,
//  - malformed frames (bad magic, bad version, oversized payload, unknown
//    kind, response/request bit confusion, count/length mismatch) are all
//    typed errors,
//  - a seeded mutation fuzz over valid request and response frames: every
//    decode returns OK or a typed error.
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/request.h"
#include "serve/wire.h"
#include "util/status.h"

namespace dhmm::serve {
namespace {

/// Decodes one whole response frame the way WireClient::Receive does: the
/// header, then DecodeResponsePayload over the bytes after it.
Status DecodeWholeResponse(const uint8_t* data, size_t size,
                           wire::FrameHeader* h, DecodeResponse* resp) {
  Status st = wire::DecodeHeader(data, size, h);
  if (!st.ok()) return st;
  return wire::DecodeResponsePayload(*h, data + wire::kHeaderSize,
                                     size - wire::kHeaderSize, resp);
}

wire::FrameHeader KnownHeader() {
  wire::FrameHeader h;
  h.kind = static_cast<uint8_t>(DecodeKind::kPosterior);
  h.model = 0x0102030405060708ull;
  h.request_id = 0x1122334455667788ull;
  h.deadline_micros = 0x00000000000F4240ull;  // 1e6
  h.payload_len = 0x00000A0Bu;
  return h;
}

TEST(WireHeaderTest, BytesArePinnedLittleEndian) {
  uint8_t buf[wire::kHeaderSize];
  wire::EncodeHeader(KnownHeader(), buf);
  const uint8_t expected[wire::kHeaderSize] = {
      0x44, 0x48, 0x4D, 0x4D,  // magic "DHMM"
      0x01, 0x00,              // version 1
      0x01,                    // kind = kPosterior
      0x00,                    // flags
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // model id
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // request id
      0x40, 0x42, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00,  // deadline 1e6 us
      0x0B, 0x0A, 0x00, 0x00,  // payload_len
      0x00, 0x00, 0x00, 0x00,  // reserved
  };
  EXPECT_EQ(0, std::memcmp(buf, expected, wire::kHeaderSize));
}

TEST(WireHeaderTest, RoundTrip) {
  uint8_t buf[wire::kHeaderSize];
  const wire::FrameHeader h = KnownHeader();
  wire::EncodeHeader(h, buf);
  wire::FrameHeader back;
  ASSERT_TRUE(wire::DecodeHeader(buf, sizeof(buf), &back).ok());
  EXPECT_EQ(back.kind, h.kind);
  EXPECT_EQ(back.model, h.model);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.deadline_micros, h.deadline_micros);
  EXPECT_EQ(back.payload_len, h.payload_len);
  EXPECT_FALSE(back.is_response());
  EXPECT_EQ(back.decode_kind(), DecodeKind::kPosterior);
}

TEST(WireHeaderTest, RejectsTruncationBadMagicBadVersionOversized) {
  uint8_t buf[wire::kHeaderSize];
  wire::EncodeHeader(KnownHeader(), buf);
  wire::FrameHeader h;
  for (size_t n = 0; n < wire::kHeaderSize; ++n) {
    EXPECT_FALSE(wire::DecodeHeader(buf, n, &h).ok()) << "prefix " << n;
  }
  uint8_t bad[wire::kHeaderSize];
  std::memcpy(bad, buf, sizeof(buf));
  bad[0] ^= 0xFF;  // magic
  EXPECT_EQ(wire::DecodeHeader(bad, sizeof(bad), &h).code(),
            StatusCode::kInvalidArgument);
  std::memcpy(bad, buf, sizeof(buf));
  bad[4] = 0x7F;  // version
  EXPECT_EQ(wire::DecodeHeader(bad, sizeof(bad), &h).code(),
            StatusCode::kInvalidArgument);
  std::memcpy(bad, buf, sizeof(buf));
  bad[35] = 0xFF;  // payload_len top byte -> far above kMaxPayload
  EXPECT_EQ(wire::DecodeHeader(bad, sizeof(bad), &h).code(),
            StatusCode::kOutOfRange);
}

// ------------------------------------------------------------- requests ---

template <typename Obs>
void ExpectRequestRoundTrip(const DecodeRequest<Obs>& req) {
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeRequest(req, &frame).ok());
  wire::FrameHeader h;
  ASSERT_TRUE(wire::DecodeHeader(frame.data(), frame.size(), &h).ok());
  ASSERT_EQ(frame.size(), wire::kHeaderSize + h.payload_len);
  EXPECT_EQ(h.model, req.model);
  EXPECT_EQ(h.request_id, req.request_id);
  EXPECT_EQ(h.deadline_micros, req.deadline_micros);
  EXPECT_EQ(h.decode_kind(), req.kind);
  std::vector<Obs> obs;
  ASSERT_TRUE(wire::DecodeRequestPayload<Obs>(h, frame.data() + wire::kHeaderSize,
                                              h.payload_len, &obs)
                  .ok());
  ASSERT_EQ(obs.size(), req.obs->size());
  // Bitwise comparison (EXPECT_EQ on doubles would miss NaN payloads). An
  // empty payload (e.g. a kStats request) has no bytes to compare, and
  // data() on an empty vector may be null — memcmp(null, null, 0) is UB.
  if (!obs.empty()) {
    EXPECT_EQ(0, std::memcmp(obs.data(), req.obs->data(),
                             obs.size() * sizeof(Obs)));
  }
}

TEST(WireRequestTest, RandomDoubleRoundTrips) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> val(-1e6, 1e6);
  std::uniform_int_distribution<size_t> len(0, 300);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<double> obs(len(rng));
    for (double& v : obs) v = val(rng);
    DecodeRequest<double> req;
    req.request_id = rng();
    req.model = rng();
    req.kind = static_cast<DecodeKind>(iter % 3);
    req.deadline_micros = rng() % 2 == 0 ? 0 : rng();
    req.obs = &obs;
    ExpectRequestRoundTrip(req);
  }
}

TEST(WireRequestTest, NonFiniteDoublesRoundTripBitwise) {
  std::vector<double> obs = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -0.0,
                             std::numeric_limits<double>::denorm_min()};
  DecodeRequest<double> req;
  req.obs = &obs;
  ExpectRequestRoundTrip(req);
}

TEST(WireRequestTest, RandomIntRoundTrips) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int> val(-1000000, 1000000);
  std::uniform_int_distribution<size_t> len(0, 300);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<int> obs(len(rng));
    for (int& v : obs) v = val(rng);
    DecodeRequest<int> req;
    req.request_id = rng();
    req.model = rng();
    req.kind = static_cast<DecodeKind>(iter % 3);
    req.obs = &obs;
    ExpectRequestRoundTrip(req);
  }
}

TEST(WireRequestTest, SessionPushOpcodeIsPinnedAndRoundTrips) {
  // kSessionPush is wire kind byte 3 — pinned so independently compiled
  // clients and servers agree on the session front-end opcode.
  EXPECT_EQ(static_cast<uint8_t>(DecodeKind::kSessionPush), 3);
  std::vector<double> obs = {0.25, -1.5, 7.75};
  DecodeRequest<double> req;
  req.request_id = 99;
  req.model = 4;
  req.kind = DecodeKind::kSessionPush;
  req.obs = &obs;
  ExpectRequestRoundTrip(req);
}

TEST(WireRequestTest, StatsOpcodeIsPinnedAndRoundTrips) {
  // kStats is wire kind byte 4 — pinned so independently compiled clients
  // and servers agree on the stats opcode. The payload is an (ignored)
  // empty observation sequence.
  EXPECT_EQ(static_cast<uint8_t>(DecodeKind::kStats), 4);
  std::vector<double> obs;
  DecodeRequest<double> req;
  req.request_id = 1234;
  req.kind = DecodeKind::kStats;
  req.obs = &obs;
  ExpectRequestRoundTrip(req);
}

TEST(WireResponseTest, StatsTextRidesTheMessageFieldOfOkResponses) {
  // An OK response's message bytes are DecodeResponse::text (the rendered
  // stats snapshot); a non-OK response's are status.message(). Same frame
  // layout either way — kStats added no wire fields.
  DecodeResponse resp;
  resp.request_id = 77;
  resp.kind = DecodeKind::kStats;
  resp.status = Status::OK();
  resp.text = "frontend.frames_accepted 12\nstartup.kernel_isa 0\n";
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeResponse(resp, 0, &frame).ok());
  wire::FrameHeader h;
  DecodeResponse back;
  ASSERT_TRUE(DecodeWholeResponse(frame.data(), frame.size(), &h, &back).ok());
  EXPECT_EQ(back.kind, DecodeKind::kStats);
  EXPECT_TRUE(back.status.ok());
  EXPECT_EQ(back.text, resp.text);

  // Error responses keep the message field for the status and clear text.
  resp.status = Status::Unavailable("shed");
  resp.text.clear();
  frame.clear();
  ASSERT_TRUE(wire::EncodeResponse(resp, 0, &frame).ok());
  ASSERT_TRUE(DecodeWholeResponse(frame.data(), frame.size(), &h, &back).ok());
  EXPECT_EQ(back.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(back.status.message(), "shed");
  EXPECT_TRUE(back.text.empty());
}

TEST(WireRequestTest, EveryPrefixTruncationFails) {
  std::vector<double> obs = {1.5, -2.25, 3.0};
  DecodeRequest<double> req;
  req.request_id = 42;
  req.model = 7;
  req.obs = &obs;
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeRequest(req, &frame).ok());
  for (size_t n = 0; n < frame.size(); ++n) {
    wire::FrameHeader h;
    Status st = wire::DecodeHeader(frame.data(), n, &h);
    if (st.ok()) {
      std::vector<double> out;
      st = wire::DecodeRequestPayload<double>(
          h, frame.data() + wire::kHeaderSize, n - wire::kHeaderSize, &out);
    }
    EXPECT_FALSE(st.ok()) << "prefix " << n << " of " << frame.size();
  }
}

TEST(WireRequestTest, RejectsMalformedPayloads) {
  std::vector<double> obs = {1.0, 2.0};
  DecodeRequest<double> req;
  req.obs = &obs;
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeRequest(req, &frame).ok());
  wire::FrameHeader h;
  ASSERT_TRUE(wire::DecodeHeader(frame.data(), frame.size(), &h).ok());
  const uint8_t* payload = frame.data() + wire::kHeaderSize;
  std::vector<double> out;

  wire::FrameHeader resp_marked = h;
  resp_marked.kind |= wire::kResponseBit;
  EXPECT_FALSE(wire::DecodeRequestPayload<double>(resp_marked, payload,
                                                  h.payload_len, &out)
                   .ok());

  // 3 is kSessionPush and 4 is kStats, both valid opcodes; the first
  // unknown kind is 5.
  wire::FrameHeader unknown = h;
  unknown.kind = 5;
  EXPECT_FALSE(
      wire::DecodeRequestPayload<double>(unknown, payload, h.payload_len, &out)
          .ok());

  // Count says 2 but the frame carries bytes for 1: length mismatch.
  std::vector<uint8_t> short_payload(payload, payload + 4 + 8);
  wire::FrameHeader lying = h;
  lying.payload_len = static_cast<uint32_t>(short_payload.size());
  EXPECT_FALSE(wire::DecodeRequestPayload<double>(lying, short_payload.data(),
                                                  short_payload.size(), &out)
                   .ok());

  DecodeRequest<double> null_req;
  std::vector<uint8_t> sink;
  EXPECT_EQ(wire::EncodeRequest(null_req, &sink).code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ responses ---

DecodeResponse RandomResponse(std::mt19937_64& rng) {
  DecodeResponse resp;
  resp.request_id = rng();
  resp.kind = static_cast<DecodeKind>(rng() % 3);
  resp.model_version = rng();
  std::uniform_real_distribution<double> val(-1e9, 1e9);
  resp.value = val(rng);
  resp.path.resize(rng() % 200);
  for (int& s : resp.path) s = static_cast<int>(rng() % 64);
  switch (rng() % 4) {
    case 0:
      resp.status = Status::OK();
      break;
    case 1:
      resp.status = Status::InvalidArgument("impossible at frame 3");
      break;
    case 2:
      resp.status = Status::DeadlineExceeded("too slow");
      break;
    default:
      resp.status = Status::Unavailable("shed");
      break;
  }
  return resp;
}

TEST(WireResponseTest, RandomRoundTrips) {
  std::mt19937_64 rng(29);
  for (int iter = 0; iter < 50; ++iter) {
    const DecodeResponse resp = RandomResponse(rng);
    const ModelId model = rng();
    std::vector<uint8_t> frame;
    ASSERT_TRUE(wire::EncodeResponse(resp, model, &frame).ok());
    wire::FrameHeader h;
    DecodeResponse back;
    ASSERT_TRUE(
        DecodeWholeResponse(frame.data(), frame.size(), &h, &back).ok());
    EXPECT_TRUE(h.is_response());
    EXPECT_EQ(h.model, model);
    EXPECT_EQ(back.request_id, resp.request_id);
    EXPECT_EQ(back.kind, resp.kind);
    EXPECT_EQ(back.model_version, resp.model_version);
    EXPECT_EQ(back.value, resp.value);  // bitwise
    EXPECT_EQ(back.path, resp.path);
    EXPECT_EQ(back.status.code(), resp.status.code());
    EXPECT_EQ(back.status.message(), resp.status.message());
  }
}

TEST(WireResponseTest, EveryPrefixTruncationFails) {
  DecodeResponse resp;
  resp.request_id = 9;
  resp.kind = DecodeKind::kViterbi;
  resp.path = {0, 1, 2, 1};
  resp.value = -12.5;
  resp.status = Status::InvalidArgument("impossible at frame 2");
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeResponse(resp, 5, &frame).ok());
  for (size_t n = 0; n < frame.size(); ++n) {
    wire::FrameHeader h;
    DecodeResponse back;
    EXPECT_FALSE(DecodeWholeResponse(frame.data(), n, &h, &back).ok())
        << "prefix " << n << " of " << frame.size();
  }
}

TEST(WireResponseTest, RejectsRequestFrameAndPathOverrun) {
  DecodeResponse resp;
  resp.path = {1, 2};
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeResponse(resp, 1, &frame).ok());
  wire::FrameHeader h;
  ASSERT_TRUE(wire::DecodeHeader(frame.data(), frame.size(), &h).ok());
  DecodeResponse back;

  wire::FrameHeader req_marked = h;
  req_marked.kind &= ~wire::kResponseBit;
  EXPECT_FALSE(wire::DecodeResponsePayload(req_marked,
                                           frame.data() + wire::kHeaderSize,
                                           h.payload_len, &back)
                   .ok());

  // Corrupt the path length so it claims more entries than the payload
  // holds: must be rejected before any buffer is sized from it.
  std::vector<uint8_t> corrupt(frame.begin() + wire::kHeaderSize, frame.end());
  corrupt[20] = 0xFF;
  corrupt[21] = 0xFF;
  EXPECT_FALSE(
      wire::DecodeResponsePayload(h, corrupt.data(), corrupt.size(), &back)
          .ok());
}

TEST(WireResponseTest, OutOfEnumStatusCodeDegradesToInternal) {
  DecodeResponse resp;
  resp.status = Status::Unavailable("x");
  std::vector<uint8_t> frame;
  ASSERT_TRUE(wire::EncodeResponse(resp, 1, &frame).ok());
  frame[wire::kHeaderSize] = 0x63;  // status code 99: a newer peer's code
  wire::FrameHeader h;
  DecodeResponse back;
  ASSERT_TRUE(DecodeWholeResponse(frame.data(), frame.size(), &h, &back).ok());
  EXPECT_EQ(back.status.code(), StatusCode::kInternal);
  EXPECT_EQ(back.status.message(), "x");
}

// ------------------------------------------------------------ Mutation fuzz

/// The decoders' documented error codes (wire.h): anything else, or an
/// abort, is a bug.
bool IsTypedWireError(const Status& st) {
  return st.code() == StatusCode::kInvalidArgument ||
         st.code() == StatusCode::kOutOfRange;
}

/// Applies 1-3 edits: a flipped bit, a random byte, a truncation, or an
/// appended byte.
void Mutate(std::mt19937_64* rng, std::vector<uint8_t>* frame) {
  const int edits = 1 + static_cast<int>((*rng)() % 3);
  for (int e = 0; e < edits; ++e) {
    const uint64_t r = (*rng)();
    const uint64_t at = r >> 8;
    switch (r % 8) {
      case 0:
        frame->resize(at % (frame->size() + 1));
        break;
      case 1:
        frame->push_back(static_cast<uint8_t>(at));
        break;
      case 2:
      case 3:
      case 4:
        if (!frame->empty()) {
          (*frame)[at % frame->size()] = static_cast<uint8_t>(at >> 32);
        }
        break;
      default:
        if (!frame->empty()) {
          const size_t bit = at % (frame->size() * 8);
          (*frame)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        break;
    }
  }
}

/// Decodes `frame` as a request for `Obs`; an OK decode must account for
/// every payload byte. Returns whether the frame decoded.
template <typename Obs>
bool CheckRequestDecode(const std::vector<uint8_t>& frame) {
  wire::FrameHeader h;
  Status st = wire::DecodeHeader(frame.data(), frame.size(), &h);
  if (st.ok()) {
    std::vector<Obs> obs;
    st = wire::DecodeRequestPayload<Obs>(h, frame.data() + wire::kHeaderSize,
                                         frame.size() - wire::kHeaderSize,
                                         &obs);
    if (st.ok()) {
      EXPECT_EQ(wire::kHeaderSize + 4 + obs.size() * sizeof(Obs),
                frame.size());
      return true;
    }
  }
  EXPECT_TRUE(IsTypedWireError(st)) << st.ToString();
  return false;
}

bool CheckResponseDecode(const std::vector<uint8_t>& frame) {
  wire::FrameHeader h;
  DecodeResponse resp;
  const Status st = DecodeWholeResponse(frame.data(), frame.size(), &h, &resp);
  if (!st.ok()) {
    EXPECT_TRUE(IsTypedWireError(st)) << st.ToString();
    return false;
  }
  EXPECT_TRUE(h.is_response());
  EXPECT_LE(resp.path.size() * 4, size_t{h.payload_len});
  return true;
}

TEST(WireFuzzTest, SeededMutationsDecodeOkOrTyped) {
  constexpr int kIterations = 50000;  // per base frame
  std::mt19937_64 rng(97);
  std::vector<double> reals = {0.5, -1.25, 3.0, 1e-300, -7.5, 2.0};
  std::vector<int> symbols = {0, 3, 1, 4, 1, 5, 9, 2};
  DecodeRequest<double> real_req;
  real_req.kind = DecodeKind::kPosterior;
  real_req.model = 3;
  real_req.request_id = 11;
  real_req.deadline_micros = 5000;
  real_req.obs = &reals;
  DecodeRequest<int> symbol_req;
  symbol_req.kind = DecodeKind::kViterbi;
  symbol_req.model = 4;
  symbol_req.request_id = 12;
  symbol_req.obs = &symbols;
  DecodeResponse ok_resp;
  ok_resp.request_id = 13;
  ok_resp.kind = DecodeKind::kViterbi;
  ok_resp.model_version = 2;
  ok_resp.value = -12.5;
  ok_resp.path = {0, 1, 2, 1, 0};
  DecodeResponse err_resp;
  err_resp.request_id = 14;
  err_resp.kind = DecodeKind::kLogLikelihood;
  err_resp.status = Status::InvalidArgument("impossible at frame 2");

  std::vector<uint8_t> real_frame, symbol_frame, ok_frame, err_frame;
  ASSERT_TRUE(wire::EncodeRequest(real_req, &real_frame).ok());
  ASSERT_TRUE(wire::EncodeRequest(symbol_req, &symbol_frame).ok());
  ASSERT_TRUE(wire::EncodeResponse(ok_resp, 3, &ok_frame).ok());
  ASSERT_TRUE(wire::EncodeResponse(err_resp, 3, &err_frame).ok());

  int requests_decoded = 0;
  int responses_decoded = 0;
  for (int it = 0; it < kIterations; ++it) {
    // A client can send either encoding to a model of either type, so
    // each mutated request is decoded as both types.
    for (const std::vector<uint8_t>* base : {&real_frame, &symbol_frame}) {
      std::vector<uint8_t> frame = *base;
      Mutate(&rng, &frame);
      requests_decoded += CheckRequestDecode<double>(frame);
      requests_decoded += CheckRequestDecode<int>(frame);
    }
    for (const std::vector<uint8_t>* base : {&ok_frame, &err_frame}) {
      std::vector<uint8_t> frame = *base;
      Mutate(&rng, &frame);
      responses_decoded += CheckResponseDecode(frame);
    }
  }
  // Payload-only edits leave frames decodable: the fuzz must reach the
  // decoders' OK paths, not only their first length check.
  EXPECT_GT(requests_decoded, kIterations / 10);
  EXPECT_GT(responses_decoded, kIterations / 10);
}

}  // namespace
}  // namespace dhmm::serve

// The one little-endian byte codec: the wire protocol (serve/wire.h), the
// `.dhmms` store image and the dual-slot MANIFEST (src/store) all define
// their integers in bytes, not in host integers. Encoding is byte-wise
// (shift/or), so the bytes are the same on every host.
#ifndef DHMM_UTIL_LITTLE_ENDIAN_H_
#define DHMM_UTIL_LITTLE_ENDIAN_H_

#include <cstdint>
#include <cstring>

namespace dhmm::util {

inline void PutU16(uint16_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
inline void PutU32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void PutU64(uint64_t v, uint8_t* p) {
  PutU32(static_cast<uint32_t>(v), p);
  PutU32(static_cast<uint32_t>(v >> 32), p + 4);
}
inline void PutF64(double v, uint8_t* p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, p);
}
inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (uint16_t{p[1]} << 8));
}
inline uint32_t GetU32(const uint8_t* p) {
  return p[0] | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}
inline uint64_t GetU64(const uint8_t* p) {
  return GetU32(p) | (uint64_t{GetU32(p + 4)} << 32);
}
inline double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace dhmm::util

#endif  // DHMM_UTIL_LITTLE_ENDIAN_H_

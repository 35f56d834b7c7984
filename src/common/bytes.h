#ifndef GRTDB_COMMON_BYTES_H_
#define GRTDB_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>

namespace grtdb {

// Unaligned loads/stores of the little-endian integers every on-page and
// on-wire encoding uses (node pages, WAL frames, the opaque-type binary
// form, the wire protocol). They copy the host's bytes as they are, so the
// byte order on disk is the host's: a big-endian host would need byte swaps
// here.
static_assert(std::endian::native == std::endian::little,
              "grtdb's encodings assume a little-endian host");

inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

inline int64_t LoadI64(const uint8_t* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreI64(uint8_t* p, int64_t v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace grtdb

#endif  // GRTDB_COMMON_BYTES_H_

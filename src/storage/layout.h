#ifndef GRTDB_STORAGE_LAYOUT_H_
#define GRTDB_STORAGE_LAYOUT_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace grtdb {

// CRC-32 (IEEE 802.3 polynomial, reflected) used to frame WAL records so
// torn tails and bit rot are detected positively rather than by parse
// failure. Incremental form: seed with Crc32Init(), feed chunks through
// Crc32Feed(), close with Crc32Final(); Crc32() is the one-shot wrapper.

namespace internal {

inline const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace internal

inline uint32_t Crc32Init() { return 0xFFFFFFFFu; }

inline uint32_t Crc32Feed(uint32_t state, const uint8_t* data, size_t n) {
  const std::array<uint32_t, 256>& table = internal::Crc32Table();
  for (size_t i = 0; i < n; ++i) {
    state = table[(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

inline uint32_t Crc32Final(uint32_t state) { return state ^ 0xFFFFFFFFu; }

inline uint32_t Crc32(const uint8_t* data, size_t n) {
  return Crc32Final(Crc32Feed(Crc32Init(), data, n));
}

}  // namespace grtdb

#endif  // GRTDB_STORAGE_LAYOUT_H_

#include "tfb/base/crc32.h"

namespace tfb::base {

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Table generated once, on demand (poly 0xEDB88320, reflected IEEE).
  static const std::uint32_t* kTable = [] {
    static std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace tfb::base

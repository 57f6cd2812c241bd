#ifndef TFB_BASE_CRC32_H_
#define TFB_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace tfb::base {

/// CRC32 (IEEE 802.3, reflected, init/final xor 0xFFFFFFFF) — the classic
/// zlib crc32. Checks shard transport frames and TFBM model files.
/// Chainable: pass the previous return value as `seed`.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace tfb::base

#endif  // TFB_BASE_CRC32_H_

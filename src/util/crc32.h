/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, initial value
 * and final xor 0xFFFFFFFF) — the checksum of the log-store record
 * frame (DESIGN.md section 14) and of the threaded runtime's wire
 * frame header.  Both formats are fixed: every output bit of this
 * function is part of the on-disk and on-wire contract.
 */

#ifndef OCEANSTORE_UTIL_CRC32_H
#define OCEANSTORE_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace oceanstore {

/**
 * CRC-32 (IEEE, reflected) over @p n bytes at @p data.  On x86-64 CPUs
 * with PCLMULQDQ, inputs of 64 bytes or more are folded 64 bytes per
 * step with carry-less multiplies (DESIGN.md section 17); the rest,
 * and every input elsewhere, runs the portable slicing-by-8 loop.
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n);

/**
 * The portable slicing-by-8 CRC-32, whatever the CPU.  crc32() uses
 * the carry-less-multiply fold instead when it can; this entry point
 * lets tests hold the portable code to the same answers there.
 */
std::uint32_t crc32Portable(const std::uint8_t *data, std::size_t n);

} // namespace oceanstore

#endif // OCEANSTORE_UTIL_CRC32_H

/**
 * @file
 * 64-bit FNV-1a: the one content hash behind Program::fingerprint,
 * the result-cache file names and record trailers, and the golden
 * stats hashes. Tests pin values of each, so the constants and the
 * byte order must never change.
 */

#ifndef SPT_COMMON_FNV_H
#define SPT_COMMON_FNV_H

#include <cstdint>
#include <string_view>

namespace spt {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a of @p bytes. */
inline uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t h = kFnvOffset;
    for (const char c : bytes)
        h = (h ^ static_cast<uint8_t>(c)) * kFnvPrime;
    return h;
}

/** Folds @p v into @p h as its eight little-endian bytes. */
inline void
fnv1aU64(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
}

/** fnv1aU64(h, byte) in one multiply: the seven zero high bytes
 *  leave h unchanged by their xor, so their rounds only multiply by
 *  the prime. */
inline void
fnv1aU64Byte(uint64_t &h, uint8_t byte)
{
    constexpr uint64_t kPrime8 = [] {
        uint64_t p = 1;
        for (int i = 0; i < 8; ++i)
            p *= kFnvPrime;
        return p;
    }();
    h = (h ^ byte) * kPrime8;
}

} // namespace spt

#endif // SPT_COMMON_FNV_H

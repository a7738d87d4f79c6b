/**
 * @file
 * Sparse, paged, byte-addressable little-endian memory.
 *
 * Used both as the functional reference CPU's memory and as the
 * backing store behind the timing cache hierarchy. Uninitialized
 * bytes read as zero.
 */

#ifndef SPT_COMMON_BYTE_MEMORY_H
#define SPT_COMMON_BYTE_MEMORY_H

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace spt {

class ByteMemory
{
  public:
    static constexpr uint64_t kPageBytes = 4096;

    uint8_t readByte(uint64_t addr) const;
    void writeByte(uint64_t addr, uint8_t value);

    /** Little-endian read of @p bytes (1, 2, 4, or 8). */
    uint64_t read(uint64_t addr, unsigned bytes) const;

    /** Little-endian write of the low @p bytes of @p value. */
    void write(uint64_t addr, uint64_t value, unsigned bytes);

    /** Bulk initialization. */
    void writeBlock(uint64_t addr, const uint8_t *data, size_t len);
    void readBlock(uint64_t addr, uint8_t *out, size_t len) const;

    /** Number of resident pages (for tests/inspection). */
    size_t residentPages() const { return pages_.size(); }

    void clear() { pages_.clear(); }

  private:
    using Page = std::array<uint8_t, kPageBytes>;

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;

    Page &pageFor(uint64_t addr);
    const Page *pageForConst(uint64_t addr) const;
};

} // namespace spt

#endif // SPT_COMMON_BYTE_MEMORY_H

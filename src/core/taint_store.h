/**
 * @file
 * Byte-granularity taint tracking for memory data (paper Sections
 * 6.8 and 7.5).
 *
 * All program memory starts tainted (nothing has been leaked yet).
 * Three implementations, matching Table 2's shadow options:
 *
 *  - NullTaintStore: memory data is always tainted (NoShadowL1).
 *  - ShadowL1: an in-core mirror of the L1D's set-associative
 *    geometry with one taint bit per byte per line, packed into
 *    uint64 words. It holds no tags: the L1D's tag-check and
 *    eviction outputs drive it through the CacheObserver hooks, so
 *    an invalidated/filled line reverts to all-tainted.
 *  - ShadowMemory: the idealized variant that keeps a taint bit for
 *    every byte of memory (SPT {*, ShadowMem}), in sparse pages of
 *    packed "untainted" bits.
 */

#ifndef SPT_CORE_TAINT_STORE_H
#define SPT_CORE_TAINT_STORE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/cache.h"

namespace spt {

class DataTaintStore
{
  public:
    virtual ~DataTaintStore() = default;

    /** Per-byte taint of [addr, addr+bytes): bit i = byte i tainted. */
    virtual uint8_t readTaint(uint64_t addr, unsigned bytes) const = 0;

    /** Overwrites the per-byte taint of a written range (store rule:
     *  the data operand's taint overwrites the bytes' taint). */
    virtual void writeTaint(uint64_t addr, unsigned bytes,
                            uint8_t byte_taint) = 0;

    /** Clears taint of a read range (load rule 2 of Section 6.8). */
    virtual void clearTaint(uint64_t addr, unsigned bytes) = 0;
};

/** Memory data is always tainted; writes are dropped. */
class NullTaintStore : public DataTaintStore
{
  public:
    uint8_t
    readTaint(uint64_t, unsigned bytes) const override
    {
        return static_cast<uint8_t>((1u << (bytes < 8 ? bytes : 8)) -
                                    1) |
               (bytes >= 8 ? 0x80 : 0);
    }
    void writeTaint(uint64_t, unsigned, uint8_t) override {}
    void clearTaint(uint64_t, unsigned) override {}
};

/** Shadow L1: taint bits for L1D-resident bytes only, one *bit*
 *  per line byte in uint64 words. */
class ShadowL1 : public DataTaintStore, public CacheObserver
{
  public:
    /** Mirrors the geometry of @p l1d and registers as its
     *  observer. */
    explicit ShadowL1(SetAssocCache &l1d);

    uint8_t readTaint(uint64_t addr, unsigned bytes) const override;
    void writeTaint(uint64_t addr, unsigned bytes,
                    uint8_t byte_taint) override;
    void clearTaint(uint64_t addr, unsigned bytes) override;

    // CacheObserver: tag-check / eviction outputs of the L1D.
    void onFill(uint64_t line_addr, unsigned set,
                unsigned way) override;
    void onEvict(uint64_t line_addr, unsigned set,
                 unsigned way) override;

  private:
    struct Entry {
        bool valid = false;
        uint64_t line_addr = 0;
    };

    SetAssocCache &l1d_;
    unsigned line_bytes_;
    unsigned words_per_line_;
    std::vector<Entry> entries_;
    /** Bit b of line word w = byte w*64+b tainted; laid out
     *  contiguously, entry i at [i * words_per_line_, ...). */
    std::vector<uint64_t> taint_;

    /** Entry holding @p addr's line, or nullptr if not resident. */
    Entry *find(uint64_t addr);
    const Entry *find(uint64_t addr) const;
    uint64_t *lineWords(const Entry &e)
    {
        return taint_.data() +
               (&e - entries_.data()) * words_per_line_;
    }
    const uint64_t *lineWords(const Entry &e) const
    {
        return taint_.data() +
               (&e - entries_.data()) * words_per_line_;
    }
    void fillLine(unsigned set, unsigned way);
};

/** Idealized whole-memory byte taint: one "untainted" *bit* per
 *  byte, 64 words per 4 KiB page; absent page = fully tainted. */
class ShadowMemory : public DataTaintStore
{
  public:
    static constexpr uint64_t kPageBytes = 4096;

    uint8_t readTaint(uint64_t addr, unsigned bytes) const override;
    void writeTaint(uint64_t addr, unsigned bytes,
                    uint8_t byte_taint) override;
    void clearTaint(uint64_t addr, unsigned bytes) override;

    size_t residentPages() const { return pages_.size(); }

  private:
    /** Bit set = untainted (memory defaults to tainted). */
    std::unordered_map<uint64_t, std::vector<uint64_t>> pages_;

    bool untainted(uint64_t addr) const;
    void setUntainted(uint64_t addr, bool untainted);
};

} // namespace spt

#endif // SPT_CORE_TAINT_STORE_H

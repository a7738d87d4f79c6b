/**
 * @file
 * Word-parallel bit-set storage for the SPT engine's hot structures.
 * Both containers are built on plain uint64 words, so the per-cycle
 * phases turn into word-parallel bit operations:
 *
 *  - TaintPlanes: the master per-physical-register taint bits stored
 *    as one bitplane per partial-access group — plane g, bit r =
 *    "group g of register r is tainted". Point accesses touch one
 *    bit per plane; population queries (taintedRegCount) OR the four
 *    planes and popcount whole words instead of scanning registers.
 *  - RingBitmap<kBitsPerSlot>: a circular bitmap parallel to the
 *    engine's taint ring. Ring order is seq order, so a scan from
 *    the ring head visits older instructions first, and within a
 *    slot lower bits first. With 4 bits per slot (operand slots 0-2
 *    used) it holds the raised untaint-broadcast flags, and the scan
 *    order is the paper's arbitration order: older instruction first,
 *    destination before sources. With 1 bit per slot it marks the
 *    STL and shadow-clear candidates, so those phases visit only
 *    candidate slots. One word-skip scan serves `first` and
 *    `forEach`.
 *
 * A RingBitmap is position-addressed: callers pass *logical* ring
 * positions (monotonically growing, `pos & (capacity-1)` is the
 * physical slot) for scan bounds and physical slot indices for point
 * updates, mirroring the engine's head_/tail_ bookkeeping.
 */

#ifndef SPT_CORE_TAINT_PLANES_H
#define SPT_CORE_TAINT_PLANES_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "core/taint_mask.h"

namespace spt {

class TaintPlanes
{
  public:
    void
    assign(std::size_t num_regs, TaintMask init)
    {
        const std::size_t words = (num_regs + 63) / 64;
        for (unsigned g = 0; g < TaintMask::kNumGroups; ++g)
            planes_[g].assign(words,
                              init.group(g) ? ~uint64_t{0} : 0);
        // Keep tail bits past num_regs clear so word-level popcounts
        // stay exact.
        if ((num_regs & 63) != 0 && words > 0) {
            const uint64_t tail_mask =
                (uint64_t{1} << (num_regs & 63)) - 1;
            for (unsigned g = 0; g < TaintMask::kNumGroups; ++g)
                planes_[g].back() &= tail_mask;
        }
    }

    TaintMask
    get(std::size_t r) const
    {
        const std::size_t w = r >> 6;
        const uint64_t bit = uint64_t{1} << (r & 63);
        uint8_t bits = 0;
        for (unsigned g = 0; g < TaintMask::kNumGroups; ++g)
            if (planes_[g][w] & bit)
                bits |= uint8_t{1} << g;
        return TaintMask::fromRaw(bits);
    }

    void
    set(std::size_t r, TaintMask m)
    {
        const std::size_t w = r >> 6;
        const uint64_t bit = uint64_t{1} << (r & 63);
        for (unsigned g = 0; g < TaintMask::kNumGroups; ++g) {
            if (m.group(g))
                planes_[g][w] |= bit;
            else
                planes_[g][w] &= ~bit;
        }
    }

    /** master[r] &= m. */
    void
    intersect(std::size_t r, TaintMask m)
    {
        const std::size_t w = r >> 6;
        const uint64_t bit = uint64_t{1} << (r & 63);
        for (unsigned g = 0; g < TaintMask::kNumGroups; ++g)
            if (!m.group(g))
                planes_[g][w] &= ~bit;
    }

    /** Registers with any tainted group: popcount of the OR of the
     *  four planes, one pass over the words. */
    uint64_t
    taintedCount() const
    {
        uint64_t n = 0;
        for (std::size_t w = 0; w < planes_[0].size(); ++w)
            n += static_cast<uint64_t>(
                std::popcount(planes_[0][w] | planes_[1][w] |
                              planes_[2][w] | planes_[3][w]));
        return n;
    }

  private:
    std::vector<uint64_t> planes_[TaintMask::kNumGroups];
};

/** A circular bitmap parallel to the engine's taint ring:
 *  kBitsPerSlot bits per ring slot, packed into uint64 words. Scans
 *  run in (position, bit) order — older slot first, then lower bit —
 *  with word-level skips over empty spans. */
template <unsigned kBitsPerSlot>
class RingBitmap
{
    static_assert(kBitsPerSlot != 0 && 64 % kBitsPerSlot == 0,
                  "a slot's bits must not straddle a word");
    static constexpr uint64_t kSlotMask =
        (uint64_t{1} << kBitsPerSlot) - 1;

  public:
    /** @param capacity ring capacity; must be a power of two. */
    void
    assign(uint64_t capacity)
    {
        cap_ = capacity;
        words_.assign((capacity * kBitsPerSlot + 63) / 64, 0);
        count_ = 0;
    }

    void
    set(uint64_t slot, unsigned bit = 0)
    {
        const uint64_t b = slot * kBitsPerSlot + bit;
        uint64_t &w = words_[b >> 6];
        const uint64_t m = uint64_t{1} << (b & 63);
        if (!(w & m)) {
            w |= m;
            ++count_;
        }
    }

    void
    clear(uint64_t slot, unsigned bit = 0)
    {
        const uint64_t b = slot * kBitsPerSlot + bit;
        uint64_t &w = words_[b >> 6];
        const uint64_t m = uint64_t{1} << (b & 63);
        if (w & m) {
            w &= ~m;
            --count_;
        }
    }

    bool
    test(uint64_t slot, unsigned bit = 0) const
    {
        const uint64_t b = slot * kBitsPerSlot + bit;
        return (words_[b >> 6] >> (b & 63)) & 1;
    }

    bool empty() const { return count_ == 0; }
    uint64_t size() const { return count_; }

    /** Lowest set bit at logical positions [head, tail) in scan
     *  order; false if there is none. */
    bool
    first(uint64_t head, uint64_t tail, uint64_t &pos_out,
          unsigned &bit_out) const
    {
        uint64_t pos = head;
        if (!nextSetSlot(pos, tail))
            return false;
        pos_out = pos;
        bit_out = static_cast<unsigned>(std::countr_zero(bits(pos)));
        return true;
    }

    /** Visits every set bit at logical positions [head, tail) in scan
     *  order; @p fn(pos, bit) returns false to stop early. Bits are
     *  re-read after each visit, so @p fn may clear bits (including
     *  the visited one). */
    template <typename Fn>
    void
    forEach(uint64_t head, uint64_t tail, Fn fn) const
    {
        for (uint64_t pos = head; nextSetSlot(pos, tail); ++pos)
            for (unsigned k = 0; k < kBitsPerSlot; ++k)
                if (((bits(pos) >> k) & 1) && !fn(pos, k))
                    return;
    }

  private:
    /** The bits of the slot at logical position @p pos. */
    uint64_t
    bits(uint64_t pos) const
    {
        const uint64_t b = (pos & (cap_ - 1)) * kBitsPerSlot;
        return (words_[b >> 6] >> (b & 63)) & kSlotMask;
    }

    /** Advances @p pos to the first position in [pos, tail) with a
     *  set bit; false if there is none. */
    bool
    nextSetSlot(uint64_t &pos, uint64_t tail) const
    {
        while (pos < tail) {
            const uint64_t phys = pos & (cap_ - 1);
            const uint64_t b = phys * kBitsPerSlot;
            const unsigned sh = static_cast<unsigned>(b & 63);
            const uint64_t rest = words_[b >> 6] >> sh;
            // Slots this word segment covers without crossing the
            // physical wrap.
            const uint64_t span =
                std::min({tail - pos, cap_ - phys,
                          uint64_t{(64 - sh) / kBitsPerSlot}});
            const uint64_t adv =
                rest == 0 ? span
                          : static_cast<uint64_t>(
                                std::countr_zero(rest)) /
                                kBitsPerSlot;
            if (adv < span) {
                pos += adv;
                return true;
            }
            pos += span;
        }
        return false;
    }

    std::vector<uint64_t> words_;
    uint64_t cap_ = 0;
    uint64_t count_ = 0;
};

} // namespace spt

#endif // SPT_CORE_TAINT_PLANES_H

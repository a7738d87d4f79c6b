/**
 * @file
 * Partial-access-mode register taint status (paper Section 7.2).
 *
 * A 64-bit register carries four taint bits covering the x86-style
 * partial access modes: bits [7:0], [15:8], [31:16], and [63:32].
 * A register is (fully) untainted when all four groups are clear;
 * SPT's backward rules operate at full-register granularity, while
 * loads/stores and bitwise lane operations can untaint individual
 * groups.
 */

#ifndef SPT_CORE_TAINT_MASK_H
#define SPT_CORE_TAINT_MASK_H

#include <cstdint>

#include "common/logging.h"

namespace spt {

class TaintMask
{
  public:
    static constexpr unsigned kNumGroups = 4;

    constexpr TaintMask() = default;

    static constexpr TaintMask none() { return TaintMask{0}; }
    static constexpr TaintMask all() { return TaintMask{0xf}; }
    /** Rebuilds a mask from raw() group bits (bitplane gather). */
    static constexpr TaintMask
    fromRaw(uint8_t bits)
    {
        return TaintMask{static_cast<uint8_t>(bits & 0xf)};
    }

    constexpr bool any() const { return bits_ != 0; }
    constexpr bool nothing() const { return bits_ == 0; }
    constexpr bool full() const { return bits_ == 0xf; }

    constexpr bool group(unsigned g) const
    {
        return (bits_ >> g) & 1;
    }

    constexpr uint8_t raw() const { return bits_; }

    constexpr TaintMask operator|(TaintMask o) const
    {
        return TaintMask{static_cast<uint8_t>(bits_ | o.bits_)};
    }
    constexpr TaintMask operator&(TaintMask o) const
    {
        return TaintMask{static_cast<uint8_t>(bits_ & o.bits_)};
    }
    TaintMask &operator|=(TaintMask o)
    {
        bits_ |= o.bits_;
        return *this;
    }
    TaintMask &operator&=(TaintMask o)
    {
        bits_ &= o.bits_;
        return *this;
    }
    constexpr bool operator==(const TaintMask &) const = default;

    /** True iff this mask taints a subset of @p o's groups. */
    constexpr bool subsetOf(TaintMask o) const
    {
        return (bits_ & ~o.bits_) == 0;
    }

    /** Group index covering byte @p b (0-7) of the register. */
    static constexpr unsigned
    groupOfByte(unsigned b)
    {
        if (b == 0)
            return 0;
        if (b == 1)
            return 1;
        if (b <= 3)
            return 2;
        return 3;
    }

    /** Builds a register mask from an 8-bit per-byte taint mask
     *  (bit i = byte i tainted): a group is tainted if any byte it
     *  covers is tainted (the conservative OR of Section 7.5). */
    static constexpr TaintMask
    fromByteMask(uint8_t byte_mask)
    {
        uint8_t bits = 0;
        for (unsigned b = 0; b < 8; ++b)
            if ((byte_mask >> b) & 1)
                bits |= uint8_t{1} << groupOfByte(b);
        return TaintMask{bits};
    }

    /** Expands the group mask to an 8-bit per-byte taint mask. */
    constexpr uint8_t
    toByteMask() const
    {
        uint8_t byte_mask = 0;
        for (unsigned b = 0; b < 8; ++b)
            if (group(groupOfByte(b)))
                byte_mask |= uint8_t{1} << b;
        return byte_mask;
    }

    /**
     * Register taint of a load destination: @p loaded_byte_taint has
     * bit i set if loaded byte i (i < bytes) is tainted. Zero-
     * extension produces untainted (known-zero) upper bytes;
     * sign-extension replicates the top loaded byte's taint upward.
     */
    // Not constexpr: the guard's throw machinery needs non-literal
    // locals, which constexpr functions only allow from C++23 on.
    static TaintMask
    forLoad(unsigned bytes, bool sign_extend,
            uint8_t loaded_byte_taint)
    {
        // bytes == 0 would shift by (unsigned)-1 below — undefined
        // behavior, not a meaningful access width.
        SPT_ASSERT(bytes >= 1 && bytes <= 8,
                   "load width must be 1-8 bytes, got " << bytes);
        uint8_t byte_mask =
            loaded_byte_taint &
            static_cast<uint8_t>((1u << (bytes < 8 ? bytes : 8)) - 1);
        if (bytes >= 8)
            byte_mask = loaded_byte_taint;
        if (sign_extend && bytes < 8 &&
            ((byte_mask >> (bytes - 1)) & 1)) {
            for (unsigned b = bytes; b < 8; ++b)
                byte_mask |= uint8_t{1} << b;
        }
        return fromByteMask(byte_mask);
    }

  private:
    constexpr explicit TaintMask(uint8_t bits) : bits_(bits) {}

    uint8_t bits_ = 0;
};

} // namespace spt

#endif // SPT_CORE_TAINT_MASK_H

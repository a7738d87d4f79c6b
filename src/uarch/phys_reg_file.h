/**
 * @file
 * Physical register file with ready bits and a free list.
 */

#ifndef SPT_UARCH_PHYS_REG_FILE_H
#define SPT_UARCH_PHYS_REG_FILE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ring.h"
#include "isa/instruction.h"
#include "uarch/types.h"

namespace spt {

class PhysRegFile
{
  public:
    /** Register 0 is reserved as the always-zero, always-ready
     *  register that architectural x0 maps to. */
    static constexpr PhysReg kZeroReg = 0;

    explicit PhysRegFile(unsigned num_regs);

    /** Allocates a free register (not ready); panics if exhausted —
     *  callers must check freeCount() first. */
    PhysReg allocate();

    void free(PhysReg reg);

    bool hasFree() const { return !free_list_.empty(); }
    size_t freeCount() const { return free_list_.size(); }
    unsigned numRegs() const
    {
        return static_cast<unsigned>(values_.size());
    }

    bool ready(PhysReg reg) const { return ready_[reg]; }
    uint64_t value(PhysReg reg) const { return values_[reg]; }

    void write(PhysReg reg, uint64_t value);

    /** Marks not-ready (fresh allocation). */
    void clearReady(PhysReg reg) { ready_[reg] = reg == kZeroReg; }

  private:
    std::vector<uint64_t> values_;
    std::vector<uint8_t> ready_;
    /** FIFO: the longest-free register is allocated first. */
    Ring<PhysReg> free_list_;
};

} // namespace spt

#endif // SPT_UARCH_PHYS_REG_FILE_H

#include "uarch/phys_reg_file.h"

#include "common/logging.h"

namespace spt {

PhysRegFile::PhysRegFile(unsigned num_regs)
    : values_(num_regs, 0), ready_(num_regs, 0), free_list_(num_regs)
{
    SPT_ASSERT(num_regs > kNumArchRegs + 1,
               "physical register file too small");
    // Register 0 is the architectural-zero register: ready, value 0,
    // never on the free list. Registers 1..31 back the initial RAT.
    ready_[kZeroReg] = 1;
    for (PhysReg r = 1; r < kNumArchRegs; ++r)
        ready_[r] = 1;
    for (PhysReg r = kNumArchRegs;
         r < static_cast<PhysReg>(num_regs); ++r)
        free_list_.push_back(r);
}

PhysReg
PhysRegFile::allocate()
{
    SPT_ASSERT(!free_list_.empty(), "physical register file exhausted");
    const PhysReg reg = free_list_.front();
    free_list_.pop_front();
    ready_[reg] = 0;
    return reg;
}

void
PhysRegFile::free(PhysReg reg)
{
    SPT_ASSERT(reg != kZeroReg, "freeing the zero register");
    SPT_ASSERT(reg < values_.size(), "freeing out-of-range register");
    free_list_.push_back(reg);
}

void
PhysRegFile::write(PhysReg reg, uint64_t value)
{
    if (reg == kZeroReg)
        return;
    values_[reg] = value;
    ready_[reg] = 1;
}

} // namespace spt

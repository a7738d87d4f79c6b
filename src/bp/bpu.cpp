#include "bp/bpu.h"

#include "common/logging.h"

namespace spt {

BranchPredictorUnit::BranchPredictorUnit(const TageConfig &config)
    : ltage_(config)
{
}

bool
BranchPredictorUnit::isReturn(const Instruction &inst)
{
    return inst.op == Opcode::kJalr && inst.rd == kRegZero &&
           inst.rs1 == kRegRa;
}

bool
BranchPredictorUnit::isCall(const Instruction &inst)
{
    return (inst.op == Opcode::kJal || inst.op == Opcode::kJalr) &&
           inst.rd == kRegRa;
}

BranchPrediction
BranchPredictorUnit::predict(uint64_t pc, const Instruction &inst)
{
    SPT_ASSERT(isControlFlow(inst.op),
               "predict() on non-control-flow instruction");
    BranchPrediction p;
    if (isCondBranch(inst.op)) {
        p.taken = ltage_.predict(pc);
        p.next_pc = p.taken
                        ? pc + static_cast<uint64_t>(inst.imm)
                        : pc + 1;
        stats_.inc("bpu.cond_predictions");
        return p;
    }
    // Unconditional control flow.
    p.taken = true;
    if (inst.op == Opcode::kJal) {
        p.next_pc = pc + static_cast<uint64_t>(inst.imm);
    } else { // JALR
        if (isReturn(inst)) {
            p.next_pc = ras_.empty() ? pc + 1 : ras_.pop();
            stats_.inc("bpu.ras_predictions");
        } else {
            const auto target = btb_.lookup(pc);
            p.next_pc = target ? *target : pc + 1;
            stats_.inc(target ? "bpu.btb_hits" : "bpu.btb_misses");
        }
    }
    if (isCall(inst))
        ras_.push(pc + 1);
    return p;
}

void
BranchPredictorUnit::commitUpdate(uint64_t pc, const Instruction &inst,
                                  bool taken, uint64_t target)
{
    if (isCondBranch(inst.op)) {
        ltage_.update(pc, taken);
        stats_.inc("bpu.cond_updates");
    } else if (inst.op == Opcode::kJalr && !isReturn(inst)) {
        btb_.update(pc, target);
        stats_.inc("bpu.btb_updates");
    }
}

void
BranchPredictorUnit::repair(uint64_t pc, const Instruction &inst,
                            bool actual_taken)
{
    if (isCondBranch(inst.op)) {
        ltage_.pushSpecBit(actual_taken);
        return;
    }
    if (isReturn(inst))
        ras_.pop();
    if (isCall(inst))
        ras_.push(pc + 1);
}

void
BranchPredictorUnit::checkpoint(Checkpoint &cp) const
{
    ltage_.checkpoint(cp.dir);
    cp.ras = ras_.checkpoint();
}

void
BranchPredictorUnit::restore(const Checkpoint &cp)
{
    ltage_.restore(cp.dir);
    ras_.restore(cp.ras);
}

} // namespace spt

/**
 * @file
 * The combined branch prediction unit the core's fetch stage talks
 * to: LTAGE direction prediction, BTB for indirect targets, RAS for
 * returns. All training happens at commit time; speculative state
 * (histories, RAS) is checkpointed per predicted control-flow
 * instruction and restored on squash.
 */

#ifndef SPT_BP_BPU_H
#define SPT_BP_BPU_H

#include <cstdint>
#include <memory>

#include "bp/btb.h"
#include "bp/ltage.h"
#include "bp/ras.h"
#include "common/stats.h"
#include "isa/instruction.h"

namespace spt {

struct BranchPrediction {
    bool taken = false;
    uint64_t next_pc = 0;
};

class BranchPredictorUnit
{
  public:
    struct Checkpoint {
        BpCheckpoint dir;
        ReturnAddressStack::Checkpoint ras;
    };

    explicit BranchPredictorUnit(
        const TageConfig &config = TageConfig{});

    /** Predicts the outcome/target of the control-flow instruction
     *  @p inst at @p pc, advancing speculative history/RAS. Must only
     *  be called for control-flow instructions. */
    BranchPrediction predict(uint64_t pc, const Instruction &inst);

    /** Commit-time training with the architectural outcome. */
    void commitUpdate(uint64_t pc, const Instruction &inst, bool taken,
                      uint64_t target);

    /** Fills @p cp in place (a reused slot allocates nothing). */
    void checkpoint(Checkpoint &cp) const;
    void restore(const Checkpoint &cp);

    /** Mispredict recovery: after restore() of the offending
     *  instruction's pre-prediction checkpoint, replays its actual
     *  outcome into speculative state (history bit, RAS push/pop). */
    void repair(uint64_t pc, const Instruction &inst,
                bool actual_taken);

    /** Treats `jalr x0, ra, 0` as a return. */
    static bool isReturn(const Instruction &inst);
    /** Any JAL/JALR writing ra is a call. */
    static bool isCall(const Instruction &inst);

    StatSet &stats() { return stats_; }

  private:
    LtagePredictor ltage_;
    Btb btb_;
    ReturnAddressStack ras_;
    StatSet stats_;
};

} // namespace spt

#endif // SPT_BP_BPU_H

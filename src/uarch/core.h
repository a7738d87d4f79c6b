/**
 * @file
 * Cycle-level out-of-order core: 8-wide fetch/rename/issue/commit,
 * 192-entry ROB, unified reservation station, split 32/32 LQ/SQ with
 * store-to-load forwarding and store-set memory-dependence
 * speculation, LTAGE front end, and Table-1 memory hierarchy.
 *
 * Every security-relevant action is routed through the attached
 * SecurityEngine:
 *  - load/store memory accesses wait for mayAccessMemory(),
 *  - branch-resolution effects (redirect + squash) wait for
 *    mayResolveBranch(),
 *  - memory-order-violation squashes wait for
 *    maySquashMemViolation(),
 *  - predictor training happens only at commit.
 *
 * The core marks the ROB's visibility-point (VP) prefix under the
 * configured attack model, resuming each cycle at a cursor where the
 * prefix stopped; engines build declassification on top.
 */

#ifndef SPT_UARCH_CORE_H
#define SPT_UARCH_CORE_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "bp/bpu.h"
#include "common/byte_memory.h"
#include "common/fault_hooks.h"
#include "common/ring.h"
#include "common/stats.h"
#include "isa/program.h"
#include "mem/memory_system.h"
#include "uarch/dyn_inst.h"
#include "uarch/phys_reg_file.h"
#include "uarch/rename_map.h"
#include "uarch/security_engine.h"
#include "uarch/store_set.h"
#include "uarch/types.h"

namespace spt {

struct CoreParams {
    unsigned fetch_width = 8;
    unsigned rename_width = 8;
    unsigned issue_width = 8;
    unsigned commit_width = 8;
    unsigned rob_size = 192;
    unsigned rs_size = 64;
    unsigned lq_size = 32;
    unsigned sq_size = 32;
    unsigned num_phys_regs = 320;
    unsigned fetch_queue_size = 32;
    unsigned frontend_extra_delay = 3; ///< decode/rename pipe depth
    unsigned redirect_penalty = 2;
    unsigned load_ports = 2;  ///< loads starting a memory access/cycle
    unsigned store_ports = 1; ///< stores translating per cycle
    bool mem_dep_speculation = true;
    /** Ideal instruction fetch (no I-cache timing); useful for
     *  micro-tests that need deterministic backend timing. */
    bool perfect_icache = false;
    /** Skip provably dead cycles in run(): when every stage is
     *  blocked and the engine is quiescent, jump to the next timed
     *  event (completion, fetch wakeup, watchdog bound) and
     *  bulk-apply the per-cycle blocked-stat accruals. Stat- and
     *  result-identical to ticking each cycle (pinned by the
     *  fast-forward equivalence tests); auto-disabled while an
     *  observer or fault injector is attached or the engine refuses
     *  (fastForwardSafe). */
    bool fast_forward = false;
    AttackModel attack_model = AttackModel::kSpectre;
    /** Retire-progress watchdog: if no instruction commits within
     *  this many cycles, run() stops with RunResult::livelocked
     *  instead of spinning to max_cycles (0 disables). */
    uint64_t watchdog_cycles = 200'000;
};

class Core
{
  public:
    struct RunResult {
        uint64_t cycles = 0;
        uint64_t instructions = 0;
        bool halted = false;
        /** Retire watchdog tripped (see CoreParams::watchdog_cycles). */
        bool livelocked = false;
    };

    using CommitHook = std::function<void(const DynInst &)>;

    /** The program is copied, so temporaries are safe. */
    Core(Program program, const CoreParams &params,
         const MemorySystemParams &mem_params,
         std::unique_ptr<SecurityEngine> engine);

    /** Advances the machine one clock cycle. */
    void tick();

    /** Runs until HALT commits or @p max_cycles elapse. */
    RunResult run(uint64_t max_cycles);

    bool halted() const { return halted_; }
    uint64_t cycle() const { return cycle_; }
    uint64_t instructionsRetired() const { return retired_; }

    /** Architectural register value via the current RAT mapping
     *  (exact once the pipeline has drained, e.g., after HALT). */
    uint64_t archReg(unsigned arch) const;

    // --- engine/test access ------------------------------------------
    const Ring<DynInstPtr> &rob() const { return rob_; }
    const Ring<DynInstPtr> &loadQueue() const { return lq_; }
    const Ring<DynInstPtr> &storeQueue() const { return sq_; }
    /** The LQ entries whose address is known and whose access has not
     *  started, in seq order: the loads memStage gates. */
    const std::vector<DynInstPtr> &waitingLoads() const
    {
        return waiting_loads_;
    }

    /** Does @p d hold every younger instruction past the VP under the
     *  configured attack model? The VP prefix of the ROB runs up to
     *  and including its first such instruction. */
    bool
    blocksVp(const DynInst &d) const
    {
        if (params_.attack_model == AttackModel::kSpectre) {
            // Control-flow speculation, augmented with data
            // speculation sources (unresolved store addresses and
            // pending violations) so the VP stays sound under
            // memory-dependence speculation (paper Section 8).
            return (d.is_squash_source &&
                    (!d.executed || d.squash_pending)) ||
                   (d.is_store && !d.addr_known) ||
                   d.mem_violation_pending;
        }
        // Futuristic: non-squashable.
        return !d.completed || d.squash_pending ||
               d.mem_violation_pending;
    }

    /** Finds an in-flight (non-squashed) instruction by seq:
     *  a binary search over the seq-ordered ROB; nullptr if absent.
     *  The pointer is valid until the instruction leaves the ROB. */
    DynInst *findInst(SeqNum seq) const;

    /** Memory-gate epoch. It advances whenever an input of some
     *  mayAccessMemory verdict may have changed: updateVp setting an
     *  at_vp, a retire, a squash, or an engine reporting a taint-mask
     *  change through noteGateInputsChanged(). A load or store whose
     *  DynInst::gate_epoch equals it holds a current memoised
     *  verdict in DynInst::gate_open. */
    uint64_t gateEpoch() const { return gate_epoch_; }
    void noteGateInputsChanged() { ++gate_epoch_; }

    /** Writes the per-gate delay totals (delay.*) into the engine's
     *  StatSet. run() calls it on return; a mid-run diagnostic
     *  snapshot of the engine counters calls it first. */
    void publishDelayStats();

    MemorySystem &memorySystem() { return memsys_; }
    ByteMemory &memory() { return mem_; }
    PhysRegFile &physRegs() { return prf_; }
    SecurityEngine &engine() { return *engine_; }
    BranchPredictorUnit &bpu() { return bpu_; }
    const CoreParams &params() const { return params_; }
    const Program &program() const { return program_; }
    AttackModel attackModel() const { return params_.attack_model; }

    void setCommitHook(CommitHook hook)
    {
        commit_hook_ = std::move(hook);
    }

    /** Installs the timing-fault injector (nullptr detaches); also
     *  forwarded to the memory system. Faults are timing-only (see
     *  common/fault_hooks.h) and cost one pointer test per hook site
     *  when detached. Set before the first tick. */
    void setFaultInjector(FaultHooks *hooks)
    {
        faults_ = hooks;
        memsys_.setFaultHooks(hooks);
    }
    /** The engine's broadcast-starvation site reads this. */
    FaultHooks *faultHooks() const { return faults_; }

    /** Installs the observability sink (nullptr detaches); also
     *  forwarded to the engine so it can emit taint events. Must be
     *  set before the first tick — observers never perturb simulated
     *  state, but mid-run attachment would see partial lifecycles. */
    void setObserver(PipelineObserver *obs)
    {
        observer_ = obs;
        engine_->setObserver(obs);
    }

    StatSet &stats() { return stats_; }

  private:
    struct FetchEntry {
        DynInstPtr inst;
        uint64_t ready_cycle = 0;
    };
    /** Pre-prediction predictor state of one in-flight control
     *  instruction. */
    struct CheckpointSlot {
        SeqNum seq = 0;
        BranchPredictorUnit::Checkpoint cp;
    };
    struct CompletionEvent {
        uint64_t cycle;
        uint64_t order; ///< insertion order: same-cycle events are FIFO
        DynInstPtr inst;
    };

    /** Every DynInst comes from here. Declared first so that it
     *  outlives every structure below that holds handles. */
    DynInstPool inst_pool_;
    Program program_;
    CoreParams params_;
    MemorySystem memsys_;
    ByteMemory mem_; ///< architectural backing store
    std::unique_ptr<SecurityEngine> engine_;
    BranchPredictorUnit bpu_;
    PhysRegFile prf_;
    RenameMap rat_;
    StoreSetPredictor store_sets_;
    StatSet stats_;

    uint64_t cycle_ = 0;
    uint64_t retired_ = 0;
    bool halted_ = false;
    SeqNum next_seq_ = 1;

    PipelineObserver *observer_ = nullptr;
    FaultHooks *faults_ = nullptr;
    /** Transmitter-delay cycles per gate, accumulated as plain
     *  integers on the hot path and published to the engine's StatSet
     *  (delay.*) by publishDelayStats(). */
    uint64_t delay_mem_cycles_ = 0;
    uint64_t delay_branch_cycles_ = 0;
    uint64_t delay_memorder_cycles_ = 0;

    // Frontend.
    uint64_t fetch_pc_;
    uint64_t fetch_stall_until_ = 0;
    /** Sized for a fetch group started one short of full. */
    Ring<FetchEntry> fetch_queue_;
    /** Checkpoints of the in-flight control instructions in fetch
     *  (= seq) order, a power-of-two ring over logical positions
     *  [cp_head_, cp_tail_): pushed at fetch, popped at the head when
     *  the instruction commits and at the tail when it is squashed.
     *  A slot is refilled in place. */
    std::vector<CheckpointSlot> checkpoints_;
    uint64_t cp_mask_ = 0;
    uint64_t cp_head_ = 0;
    uint64_t cp_tail_ = 0;

    // Backend structures.
    Ring<DynInstPtr> rob_;
    /** VP cursor: ROB index (from the head) of the first instruction
     *  that has not reached the VP or blocks it (blocksVp). Every
     *  instruction before it is at_vp and no blocker, and stays so.
     *  Each blocking condition but one holds from rename until it
     *  clears for good; the exception, a pending memory-order
     *  violation, is raised only on a load younger than a store that
     *  blocked the VP until that cycle. Commit and squash keep the
     *  cursor within the ROB. */
    std::size_t vp_cursor_ = 0;
    /** The ROB instructions with squash_pending or
     *  mem_violation_pending set, in seq order: the squash gates
     *  walk this instead of the ROB. An instruction joins where its
     *  flag is set (addSquashCandidate) and leaves when the flag
     *  clears or it is squashed; a flagged instruction cannot
     *  commit, so no other exit exists. */
    std::vector<DynInstPtr> squash_candidates_;
    /** Reservation-station entries: dispatched, not yet issued or
     *  squashed (the rename.rs_full hazard). */
    unsigned rs_count_ = 0;
    /** The RS entries whose operands are all ready, in seq order;
     *  issue takes the front. Fed at dispatch and by writeReg. An RS
     *  operand only ever turns ready: a source register is freed only
     *  after its consumers have left the RS. */
    std::vector<DynInstPtr> ready_;
    /** Per physical register: the RS entries waiting for its value
     *  (squashed ones are skipped at wakeup). */
    std::vector<std::vector<DynInstPtr>> waiters_;
    Ring<DynInstPtr> lq_;
    Ring<DynInstPtr> sq_;
    /** See waitingLoads(). A load joins where its address becomes
     *  known (AGU completion is out of order, so at its seq position)
     *  and leaves when its access starts or it is squashed. */
    std::vector<DynInstPtr> waiting_loads_;
    /** Binary min-heap on (cycle, order). */
    std::vector<CompletionEvent> completions_;
    uint64_t completion_order_ = 0;
    /** See gateEpoch(). The memo is used only while the engine's
     *  gates are pure (fastForwardSafe). */
    uint64_t gate_epoch_ = 1;
    bool memo_gates_ = false;
    /** Frozen memStage: the gate epoch of the last memStage walk that
     *  opened no gate, and the delay cycles it charged (0 = none).
     *  While the epoch is unchanged and no load or store has had its
     *  address become known since, the walk would ask no gate and
     *  charge the same, so memStage charges it without walking. Kept
     *  only under fast-forward's safety conditions (no observer, no
     *  fault injector, pure gates). */
    uint64_t mem_frozen_epoch_ = 0;
    uint64_t mem_frozen_charge_ = 0;

    CommitHook commit_hook_;

    // --- stages -------------------------------------------------------
    void commitStage();
    void handleSquashes();
    void writebackStage();
    void memStage();
    void issueStage();
    void renameDispatchStage();
    void fetchStage();
    void updateVp();

    // --- fast-forward --------------------------------------------------
    /** Would the next tick change any machine state? False only when
     *  every stage is provably blocked (stats-pure queries only). */
    bool quiescentCycle() const;
    /** Per-cycle stat charges a blocked (quiescent) cycle makes,
     *  applied in bulk for @p k skipped cycles. */
    void accrueSkippedCycles(uint64_t k);
    /** Skips dead cycles up to the next timed event (none when the
     *  machine is live or the next event is imminent). */
    void tryFastForward(uint64_t max_cycles,
                        uint64_t last_progress_cycle);
    /** Stat charged if renaming @p d would stall on a structural
     *  hazard right now, or nullptr if it would proceed. */
    const char *renameHazardStat(const DynInst &d) const;

    // --- helpers -------------------------------------------------------
    /** Charges one policy-gated stall cycle of @p d to @p kind: bumps
     *  the plain delay counter and, when an observer is installed,
     *  reports the cycle with the engine's cause attribution. The
     *  single call site per gate is what makes the profiler's
     *  attributed total exactly equal delay.total_cycles. */
    void
    noteTransmitterDelay(const DynInst &d, DelayKind kind)
    {
        switch (kind) {
          case DelayKind::kMemAccess: ++delay_mem_cycles_; break;
          case DelayKind::kBranchResolve: ++delay_branch_cycles_; break;
          case DelayKind::kMemOrderSquash: ++delay_memorder_cycles_; break;
        }
        if (observer_)
            observer_->delayCycle(cycle_, d, kind,
                                  engine_->delayCause(d, kind));
    }
    /** Inserts @p d, whose squash flag was just set, into
     *  squash_candidates_ at its seq position. */
    void addSquashCandidate(const DynInstPtr &d);
    /** Writes a destination register and wakes its waiters. */
    void writeReg(PhysReg reg, uint64_t value);
    void insertReady(const DynInstPtr &d);
    void scheduleCompletion(uint64_t cycle, const DynInstPtr &d);
    CheckpointSlot &checkpointAt(uint64_t pos)
    {
        return checkpoints_[pos & cp_mask_];
    }
    /** mayAccessMemory(@p d), memoised in @p d per gate epoch while
     *  the gates are pure. */
    bool
    memGateOpen(DynInst &d) const
    {
        if (!memo_gates_)
            return engine_->mayAccessMemory(d);
        if (d.gate_epoch != gate_epoch_) {
            d.gate_open = engine_->mayAccessMemory(d);
            d.gate_epoch = gate_epoch_;
        }
        return d.gate_open;
    }
    /** Inserts @p ld, whose address just became known, into
     *  waiting_loads_ at its seq position. */
    void addWaitingLoad(const DynInstPtr &ld);
    void completeInst(const DynInstPtr &d);
    void completeLoadData(const DynInstPtr &d);
    bool tryLoadAccess(const DynInstPtr &d);
    void checkViolationsFromStore(const DynInstPtr &st);
    void performControlSquash(const DynInstPtr &branch);
    void performMemSquash(const DynInstPtr &load);
    /** Squashes every instruction from @p first_squashed on and
     *  refetches at @p new_fetch_pc; @p resolved_branch (or nullptr)
     *  is the branch whose checkpoint the recovery restores. */
    void squashFrom(SeqNum first_squashed, uint64_t new_fetch_pc,
                    const DynInst *resolved_branch);
    /** NOP/HALT/plain JAL complete at dispatch and skip the RS. */
    static bool needsReservationStation(const DynInst &d);
    unsigned execLatency(const Instruction &si) const;
    uint64_t readOperand(PhysReg reg) const;
};

} // namespace spt

#endif // SPT_UARCH_CORE_H

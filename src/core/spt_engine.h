/**
 * @file
 * Speculative Privacy Tracking (paper Sections 6-7): the hardware
 * protection scheme this repository reproduces.
 *
 * State (mirroring the paper's distributed taint storage):
 *  - a master per-physical-register taint mask (the RAT taint bits;
 *    rename reads it),
 *  - per in-flight instruction local taint copies of its source and
 *    destination registers with untaint-broadcast flags (the RS/LSQ
 *    slot taint bits of Section 7.2), held in a ring buffer indexed
 *    parallel to the ROB,
 *  - a byte-granularity data taint store (shadow L1 / shadow memory
 *    / none, Section 7.5).
 *
 * Per cycle (Section 7.3), the engine:
 *  1. declassifies the leaked operands of transmitters/branches that
 *     reached the visibility point,
 *  2. applies the forward/backward untaint rules locally at every
 *     in-flight instruction,
 *  3. propagates untaint through store-to-load forwarding pairs
 *     guarded by the STLPublic condition (Section 6.7),
 *  4. broadcasts at most `broadcast_width` newly untainted registers
 *     (destinations before sources, older instructions before
 *     younger ones), updating the master copy and all other slots.
 *
 * The protection policy is delayed execution: loads/stores whose
 * address operand is tainted may not access memory until the operand
 * untaints or the instruction reaches the VP, and branch-resolution
 * effects are deferred while the predicate is tainted.
 *
 * Implementation notes (this file models the paper's *hardware*
 * structures rather than scanning the ROB every cycle):
 *  - Taint records live in `entries_`, a power-of-two ring buffer
 *    allocated in ROB order: a slot is claimed at rename (`tail_`),
 *    freed at retire (`head_`) or squash (`tail_`, reverse order).
 *    `DynInst::taint_idx` makes every per-instruction lookup O(1).
 *  - The phases are change-driven. `local_queue_` holds the
 *    instructions whose input masks changed since their last local
 *    rule evaluation (the rules are pure functions of an
 *    instruction's own masks, so re-evaluating an unchanged
 *    instruction is a no-op — visiting only changed ones is
 *    behavior-preserving). `pending_flags_` is an ordered set of
 *    raised untaint-broadcast flags keyed so that iteration order
 *    equals the paper's arbitration order; the broadcast phase
 *    drains it instead of rescanning the ROB. `vp_cursor_` tracks
 *    the ROB prefix already declassified (at_vp spreads as a
 *    contiguous, monotone prefix), so declassification visits each
 *    instruction exactly once. The broadcast phase returns at once
 *    when no flag is raised, and the shadow-clear phase rescans its
 *    candidates only after one of their inputs changed
 *    (`shadow_rescan_`).
 */

#ifndef SPT_CORE_SPT_ENGINE_H
#define SPT_CORE_SPT_ENGINE_H

#include <memory>
#include <vector>

#include "core/taint_mask.h"
#include "core/taint_planes.h"
#include "core/taint_store.h"
#include "uarch/security_engine.h"
#include "uarch/types.h"

namespace spt {

struct SptConfig {
    UntaintMethod method = UntaintMethod::kBackward;
    ShadowKind shadow = ShadowKind::kShadowL1;
    unsigned broadcast_width = 3;
    /** Deliberately seeded policy bugs, used only to prove the
     *  runtime InvariantChecker fires (tools/spt_chaos --mutate).
     *  Mutations weaken a policy *gate*; the ground-truth claim
     *  (transmitPublic) is never mutated, which is exactly what
     *  makes the discrepancy detectable. */
    enum class Mutation : uint8_t {
        kNone,
        /** mayAccessMemory lies: a load/store with a tainted
         *  address operand is allowed to access memory. */
        kLeakyMemGate,
    };
    Mutation mutation = Mutation::kNone;
};

class SptEngine : public SecurityEngine
{
  public:
    /** Reasons a register untaint event happened (Figure 8's
     *  breakdown categories). */
    enum class UntaintReason : uint8_t {
        kVpDeclassify, ///< transmitter/branch operand at VP
        kForward,
        kBackward,
        kShadowData,   ///< load read untainted memory data
        kStlForward,   ///< across store-to-load forwarding
    };

    explicit SptEngine(const SptConfig &config);

    void attach(Core &core) override;
    const char *name() const override { return "spt"; }

    void onRename(DynInst &d) override;
    void onSquash(const DynInst &d) override;
    void onRetire(const DynInst &d) override;
    void onLoadData(DynInst &d, bool forwarded,
                    SeqNum store_seq) override;
    void onStoreCommit(const DynInst &d) override;

    bool mayAccessMemory(const DynInst &d) const override;
    bool mayResolveBranch(const DynInst &d) const override;
    bool maySquashMemViolation(const DynInst &d) const override;
    bool stlForwardingPublic(const DynInst &load,
                             const DynInst &store) const override;

    bool transmitPublic(const DynInst &d,
                        DelayKind kind) const override;
    bool taintStateConsistent(const DynInst &d) const override;

    void tick() override;

    // --- observability ------------------------------------------------
    DelayCause delayCause(const DynInst &d,
                          DelayKind kind) const override;
    uint64_t broadcastQueueOccupancy() const override
    {
        return pending_flags_.size();
    }
    bool quiescent() const override;
    bool fastForwardSafe() const override
    {
        // The chaos-mode gate mutations make policy queries
        // stat-mutating and gate != claim; fast-forward models the
        // un-mutated policy only.
        return cfg_.mutation == SptConfig::Mutation::kNone;
    }
    uint64_t taintedRegCount() const override;

    // --- inspection (tests/benches) -----------------------------------
    TaintMask masterTaint(PhysReg reg) const;
    /** Local taint state of an in-flight instruction, or nullptr. */
    struct InstTaint {
        TaintMask src[2] = {TaintMask::none(), TaintMask::none()};
        bool src_flag[2] = {false, false};
        TaintMask dest = TaintMask::none();
        bool dest_flag = false;
        bool declassified = false;
        bool load_data_seen = false;
        bool shadow_cleared = false;
        /** Destination untainted via store-to-load forwarding
         *  (Section 6.7). Consumers that re-derive untaint events —
         *  the InferabilityAuditor — cannot model the LSQ's
         *  STLPublic reasoning and use this to account for the
         *  skip explicitly. */
        bool stl_untaint = false;
    };
    const InstTaint *instTaint(SeqNum seq) const;
    const SptConfig &config() const { return cfg_; }

    /** Test hook: apply an untaint broadcast for @p reg as if the
     *  broadcast phase had selected it this cycle. */
    void injectBroadcast(PhysReg reg, TaintMask mask)
    {
        applyBroadcast(reg, mask);
    }

  private:
    /** One taint-storage slot, ring-buffer-parallel to a ROB slot. */
    struct Entry {
        InstTaint it;
        SeqNum seq = 0;
        /** Owning instruction; stable while `live` (freed before the
         *  core drops its DynInstPtr at retire/squash). */
        const DynInst *inst = nullptr;
        bool live = false;
        bool in_local_queue = false;    ///< queued for local rules
        bool stl_candidate = false;     ///< forwarded load (STL phase)
        bool shadow_candidate = false;  ///< may clear shadow taint
    };

    /** A work-list reference; stale once the slot is recycled. */
    struct EntryRef {
        uint32_t idx;
        SeqNum seq;
    };
    struct RegSlotRef {
        uint32_t idx;
        SeqNum seq;
        uint8_t slot;
    };

    SptConfig cfg_;
    /** Master per-physical-register taint, one bitplane per
     *  partial-access group (word-parallel taintedRegCount). */
    TaintPlanes master_;
    std::unique_ptr<DataTaintStore> taint_store_;

    // Ring buffer of taint records, ROB-parallel. Logical positions
    // grow monotonically; position -> slot via `& idx_mask_`.
    // Invariant: head_ <= vp_cursor_ <= tail_; every position in
    // [head_, tail_) holds a live entry, in increasing seq order.
    std::vector<Entry> entries_;
    uint64_t idx_mask_ = 0;
    uint64_t head_ = 0;
    uint64_t tail_ = 0;
    /** Positions below this are declassified (at_vp prefix). */
    uint64_t vp_cursor_ = 0;

    /** Instructions whose local-rule inputs changed since their last
     *  evaluation (drained by localRulesPhase). */
    std::vector<EntryRef> local_queue_;

    /** Raised untaint-broadcast flags as a circular bitmap parallel
     *  to the ring (4 bits per slot). Scanning from head_ yields
     *  the broadcast arbitration order — older instruction first,
     *  destination (slot 0) before sources (Section 7.3) — since
     *  ring order is seq order. */
    RingFlagBitmap pending_flags_;

    /** Per physical register: the in-flight slots naming it (built
     *  at rename, compacted lazily), so a broadcast touches only the
     *  consumers of that register instead of the whole ROB. */
    std::vector<std::vector<RegSlotRef>> reg_slots_;

    /** Ring slots with stl_candidate / shadow_candidate set; the
     *  candidate phases iterate set bits in ring (= seq) order with
     *  word-level skips instead of walking the core's LSQ. */
    RingBitmap stl_candidates_;
    RingBitmap shadow_candidates_;
    /** A shadow-clear candidate's inputs may have changed since the
     *  last scan: a local mask changed (markLocalDirty), the VP cursor
     *  advanced (at_vp), or a candidate joined. A scan that finds
     *  nothing to fire finds nothing again until one of these. */
    bool shadow_rescan_ = false;

    // Scratch for the per-cycle broadcast phase, kept as a member so
    // the phase allocates nothing once it has reached full width.
    struct Broadcast {
        PhysReg reg;
        TaintMask mask;
    };
    std::vector<Broadcast> chosen_;

    /** Registers whose master taint shrank this cycle (Figure 9). */
    unsigned untainted_regs_this_cycle_ = 0;

    Entry &entryAt(uint64_t pos) { return entries_[pos & idx_mask_]; }
    Entry *entryOf(const DynInst &d);
    const Entry *entryOf(const DynInst &d) const;
    Entry *entryBySeq(SeqNum seq);
    const Entry *entryBySeq(SeqNum seq) const;

    void markLocalDirty(Entry &e);
    void raiseFlag(Entry &e, int slot);
    void clearFlag(Entry &e, int slot);
    void freeEntry(Entry &e);
    void registerRegSlots(const DynInst &d, uint32_t idx);

    void countUntaint(UntaintReason reason, const Entry &e, int slot);
    /** Would broadcasting any currently pending untaint flag shrink
     *  the taint of @p reg? Distinguishes "operand still tainted"
     *  from "untaint known, waiting on broadcast width". */
    bool untaintPendingFor(PhysReg reg) const;
    void declassifyPhase();
    bool localRulesPhase();
    bool evalLocalRules(Entry &e);
    bool stlPhase();
    void shadowClearPhase();
    void broadcastPhase();
    void idealPropagate();
    void applyBroadcast(PhysReg reg, TaintMask mask);
    void flushFlagsToMaster(const DynInst &d);

    bool addrOperandPublic(const DynInst &d) const;
    bool operandsPublic(const DynInst &d) const;
    /** The memory-order-squash claim (Section 6.7, footnote 4);
     *  shared by maySquashMemViolation and transmitPublic. */
    bool memSquashPublic(const DynInst &load) const;
    /** STLPublic(S, L) of Section 6.7. */
    bool stlPublic(const DynInst &load, const DynInst &store) const;
    bool storeAddrPublic(const DynInst &store) const;

    PhysReg slotReg(const DynInst &d, int slot) const;
    TaintMask &slotMask(InstTaint &it, int slot) const;
    bool &slotFlag(InstTaint &it, int slot) const;
};

} // namespace spt

#endif // SPT_CORE_SPT_ENGINE_H

/**
 * @file
 * The hook interface between the out-of-order core and a protection
 * scheme. The core consults the engine before every observable
 * speculative action (memory access, branch-resolution effects,
 * memory-order-violation squash) and notifies it of every pipeline
 * event it needs to maintain taint state.
 *
 * Implementations live in src/core (SPT, STT, SecureBaseline); the
 * trivial pass-through UnsafeEngine below is the insecure baseline.
 */

#ifndef SPT_UARCH_SECURITY_ENGINE_H
#define SPT_UARCH_SECURITY_ENGINE_H

#include "common/stats.h"
#include "uarch/dyn_inst.h"
#include "uarch/pipeline_observer.h"

namespace spt {

class Core;

class SecurityEngine
{
  public:
    virtual ~SecurityEngine() = default;

    /** Called once, when the core takes ownership of the engine. */
    virtual void attach(Core &core) { core_ = &core; }

    /** A scheme name for stats/reporting. */
    virtual const char *name() const = 0;

    // --- pipeline event notifications --------------------------------
    virtual void onRename(DynInst &) {}
    virtual void onSquash(const DynInst &) {}
    virtual void onRetire(const DynInst &) {}

    /** A load obtained its data. @p forwarded: via store-to-load
     *  forwarding from store @p store_seq; otherwise from memory at
     *  load.eff_addr. Called before the dest value broadcast. */
    virtual void onLoadData(DynInst &, bool /*forwarded*/,
                            SeqNum /*store_seq*/)
    {
    }

    /** A retired store is writing the L1D. */
    virtual void onStoreCommit(const DynInst &) {}

    // --- protection-policy queries ------------------------------------
    // Pure predicates: the core counts each blocked cycle once, in
    // delay.*, so a gate records nothing (a seeded chaos mutation,
    // which also refuses fastForwardSafe, is the one exception).

    /** May this load/store perform its memory access (TLB + cache),
     *  i.e., transmit its address operand? */
    virtual bool mayAccessMemory(const DynInst &) const
    {
        return true;
    }

    /** May this control-flow instruction's resolution effects
     *  (redirect + squash) become visible? */
    virtual bool mayResolveBranch(const DynInst &) const
    {
        return true;
    }

    /** May the memory-order-violation squash of this load proceed? */
    virtual bool maySquashMemViolation(const DynInst &) const
    {
        return true;
    }

    /**
     * Is the fact that store-to-load forwarding occurs between this
     * pair public (inferable by the attacker)? If not, the core hides
     * the decision by performing the cache access anyway, per the
     * paper's Section 6.7 mechanism (inherited from STT). The
     * insecure default is "public", i.e., the ordinary forwarding
     * fast path.
     */
    virtual bool stlForwardingPublic(const DynInst & /*load*/,
                                     const DynInst & /*store*/) const
    {
        return true;
    }

    // --- per-cycle work -------------------------------------------------
    /** Runs at the end of every core cycle (after the VP scan). */
    virtual void tick() {}

    // --- fast-forward support (uarch/core.cpp fastForward) ---------------
    /** Would tick() be a pure no-op right now — no queued work, no
     *  declassification the VP cursor has not consumed? Required for
     *  the core to skip quiescent cycles; the default (true) is
     *  correct for engines whose tick() does nothing. */
    virtual bool quiescent() const { return true; }

    /** May the core fast-forward at all under this engine? Engines
     *  whose policy gates mutate state or deliberately diverge from
     *  transmitPublic (chaos mutations) must refuse. While this
     *  holds, the gates are state- and stats-pure, so the core may
     *  ask them whether a skipped cycle would have stayed blocked. */
    virtual bool fastForwardSafe() const { return true; }

    /** @p d stayed blocked on @p kind for @p cycles skipped cycles.
     *  The core never calls this: a blocked gate counts nothing, and
     *  the core charges skipped delay cycles to delay.* itself. The
     *  declaration stays only because perfbench's TimedEngine
     *  decorator overrides it. */
    virtual void accrueBlockedTransmit(const DynInst &, DelayKind,
                                       uint64_t /*cycles*/)
    {
    }

    // --- ground truth (runtime invariant checker) -----------------------
    /**
     * Would letting @p d transmit via @p kind right now leak a
     * non-public operand? This is the scheme's *security claim*,
     * separated from the policy gate (mayAccessMemory &c.) that
     * enforces it: the gate may carry a deliberately seeded testing
     * mutation (see SptConfig::Mutation), the claim never does. The
     * InvariantChecker queries it at every gate opening; a scheme
     * whose gate lets a non-public transmit through is flagged as a
     * security violation. Must be state- and stats-pure. The default
     * asks the scheme's own gate for @p kind, which is the claim of
     * every scheme without a seeded mutation (UnsafeEngine's gates
     * always open, so the checker never flags it). An engine whose
     * gate can lie must override this with the un-mutated predicate.
     */
    virtual bool
    transmitPublic(const DynInst &d, DelayKind kind) const
    {
        switch (kind) {
          case DelayKind::kMemAccess:
            return mayAccessMemory(d);
          case DelayKind::kBranchResolve:
            return mayResolveBranch(d);
          case DelayKind::kMemOrderSquash:
            return maySquashMemViolation(d);
        }
        return true;
    }

    /** Is the engine's per-instruction taint bookkeeping for the
     *  in-flight (non-squashed) ROB entry @p d self-consistent
     *  (index maps resolve, slot really belongs to @p d)? Checked by
     *  the InvariantChecker on every structural scan. */
    virtual bool taintStateConsistent(const DynInst &) const
    {
        return true;
    }

    // --- observability -------------------------------------------------
    /** Installed by the Core (null when tracing/profiling is off);
     *  only queried behind a null check, so the hot path pays one
     *  pointer test. */
    void setObserver(PipelineObserver *obs) { observer_ = obs; }
    PipelineObserver *observer() const { return observer_; }

    /** Attribution of a transmitter-delay cycle: why is @p d still
     *  gated? Called only while an observer is installed, after the
     *  corresponding policy query returned false. The default maps
     *  each gate to its scheme-independent cause (the secure
     *  baseline delays memory to the VP). */
    virtual DelayCause
    delayCause(const DynInst &, DelayKind kind) const
    {
        switch (kind) {
          case DelayKind::kMemAccess:
            return DelayCause::kWaitVp;
          case DelayKind::kBranchResolve:
            return DelayCause::kTaintedBranch;
          case DelayKind::kMemOrderSquash:
            return DelayCause::kMemOrderGate;
        }
        return DelayCause::kMemOrderGate;
    }

    /** Untaint broadcasts raised but not yet granted (interval
     *  metrics); schemes without a broadcast structure report 0. */
    virtual uint64_t broadcastQueueOccupancy() const { return 0; }

    /** Physical registers currently carrying any taint (interval
     *  metrics); schemes without taint state report 0. */
    virtual uint64_t taintedRegCount() const { return 0; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

  protected:
    Core *core_ = nullptr;
    PipelineObserver *observer_ = nullptr;
    /** Mutable for one const gate only: SPT's seeded
     *  kLeakyMemGate mutation counts mutation.leaky_gate_opens,
     *  which the chaos campaign reads. Every other gate is pure. */
    mutable StatSet stats_;
};

/** The unmodified, insecure processor (UnsafeBaseline in Table 2). */
class UnsafeEngine : public SecurityEngine
{
  public:
    const char *name() const override { return "unsafe"; }
};

} // namespace spt

#endif // SPT_UARCH_SECURITY_ENGINE_H

/**
 * @file
 * Observability hook interface between the core/security engines and
 * the sim-layer instrumentation (sim/trace.h tracer, sim/profile.h
 * delay profiler and interval recorder).
 *
 * The Core and the attached SecurityEngine hold a single
 * `PipelineObserver *` that is null by default; every hook site is a
 * single pointer test when observability is off, so the instrumented
 * build pays nothing until a tracer/profiler is installed. Observers
 * must never mutate simulation state: all hooks take const
 * instructions and are called after the corresponding state change
 * has been applied, so installing an observer cannot perturb
 * simulated cycles or any engine counter (pinned by
 * tests/test_observability.cpp).
 */

#ifndef SPT_UARCH_PIPELINE_OBSERVER_H
#define SPT_UARCH_PIPELINE_OBSERVER_H

#include <cstdint>

namespace spt {

struct DynInst;

/** Which policy gate delayed a transmitter this cycle. */
enum class DelayKind : uint8_t {
    kMemAccess,      ///< load/store blocked by mayAccessMemory
    kBranchResolve,  ///< squash_pending blocked by mayResolveBranch
    kMemOrderSquash, ///< violation squash blocked by
                     ///< maySquashMemViolation
};

/** Why the engine blocked the transmitter (delay attribution). */
enum class DelayCause : uint8_t {
    kTaintedAddr,    ///< address operand still tainted
    kTaintedBranch,  ///< branch/jump source operand still tainted
    kWaitBroadcast,  ///< untaint raised but not yet broadcast
                     ///< (bounded broadcast width)
    kWaitVp,         ///< policy waits for the visibility point
    kMemOrderGate,   ///< memory-order-squash implicit channel gate
    kNumCauses,
};

const char *delayKindName(DelayKind k);
const char *delayCauseName(DelayCause c);

/** Taint-lifecycle events emitted by the SPT engine. */
enum class TaintEvent : uint8_t {
    kTaintedAtRename, ///< destination tainted when renamed
    kVpDeclassify,    ///< leaked operand declassified at the VP
    kForwardUntaint,  ///< forward rule fired
    kBackwardUntaint, ///< backward rule fired
    kShadowUntaint,   ///< load read untainted memory data
    kStlUntaint,      ///< untaint across store-to-load forwarding
};

const char *taintEventName(TaintEvent e);

/** Operand slot naming used by taint events: 0 = destination,
 *  1 = first source, 2 = second source (engine slot order). */
const char *taintSlotName(uint8_t slot);

class PipelineObserver
{
  public:
    virtual ~PipelineObserver() = default;

    // --- pipeline lifecycle (called by the Core) ---------------------
    virtual void fetch(uint64_t /*cycle*/, const DynInst &) {}
    virtual void rename(uint64_t /*cycle*/, const DynInst &) {}
    virtual void issue(uint64_t /*cycle*/, const DynInst &) {}
    /** Result/outcome computed (ALU complete, load data returned,
     *  store translated). */
    virtual void executed(uint64_t /*cycle*/, const DynInst &) {}
    /** A load/store started its memory access (or forwarded). */
    virtual void memAccess(uint64_t /*cycle*/, const DynInst &) {}
    virtual void reachedVp(uint64_t /*cycle*/, const DynInst &) {}
    virtual void retired(uint64_t /*cycle*/, const DynInst &) {}
    virtual void squashed(uint64_t /*cycle*/, const DynInst &) {}

    // --- security engine events --------------------------------------
    virtual void taintEvent(uint64_t /*cycle*/, TaintEvent,
                            const DynInst &, uint8_t /*slot*/)
    {
    }
    /** One cycle of transmitter delay, charged to @p cause. Exactly
     *  one call per (blocked instruction, cycle) the policy gate was
     *  consulted, mirroring the engine's delay.total_cycles
     *  counter. */
    virtual void delayCycle(uint64_t /*cycle*/, const DynInst &,
                            DelayKind, DelayCause)
    {
    }
    /** A previously gated action finally went ahead (delay-interval
     *  end; also fires for never-delayed instructions). */
    virtual void gateOpened(uint64_t /*cycle*/, const DynInst &,
                            DelayKind)
    {
    }

    // --- per-cycle --------------------------------------------------
    /** End of every core cycle (after the engine tick). */
    virtual void cycleEnd(uint64_t /*cycle*/) {}
};

} // namespace spt

#endif // SPT_UARCH_PIPELINE_OBSERVER_H

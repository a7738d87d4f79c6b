/**
 * @file
 * Comparison protection schemes from the paper's evaluation
 * (Table 2):
 *
 *  - SecureBaselineEngine: delays every load/store until it reaches
 *    the visibility point. Same protection scope as SPT, maximal
 *    overhead.
 *  - SttEngine: Speculative Taint Tracking [MICRO'19]. Protects only
 *    speculatively-accessed data: a load's output is s-tainted until
 *    the load reaches the VP; s-taint propagates through register
 *    dataflow via youngest-root-of-taint (YRoT) tracking, and
 *    transmitters/branches with s-tainted operands are delayed.
 *    Untainting is implicit and single-cycle: a root that reached
 *    the VP (or left the pipeline) no longer taints its dependents.
 */

#ifndef SPT_CORE_BASELINE_ENGINES_H
#define SPT_CORE_BASELINE_ENGINES_H

#include <vector>

#include "uarch/security_engine.h"
#include "uarch/types.h"

namespace spt {

class SecureBaselineEngine : public SecurityEngine
{
  public:
    const char *name() const override { return "secure-baseline"; }

    /** No memory access before the VP. The scheme gates nothing
     *  else, and the base transmitPublic asks this gate. */
    bool
    mayAccessMemory(const DynInst &d) const override
    {
        return d.at_vp;
    }
};

class SttEngine : public SecurityEngine
{
  public:
    void attach(Core &core) override;
    const char *name() const override { return "stt"; }

    void onRename(DynInst &d) override;

    bool mayAccessMemory(const DynInst &d) const override;
    bool mayResolveBranch(const DynInst &d) const override;
    bool maySquashMemViolation(const DynInst &d) const override;
    bool stlForwardingPublic(const DynInst &load,
                             const DynInst &store) const override;

    /** Is the value in @p reg currently s-tainted? */
    bool regTainted(PhysReg reg) const;

    // --- observability ------------------------------------------------
    /** STT delays on s-tainted operands (no broadcast structure, so
     *  a blocked memory gate is always a tainted address). */
    DelayCause
    delayCause(const DynInst &d, DelayKind kind) const override
    {
        if (kind == DelayKind::kMemAccess)
            return DelayCause::kTaintedAddr;
        return SecurityEngine::delayCause(d, kind);
    }
    uint64_t taintedRegCount() const override;

  private:
    /** Youngest root of taint per physical register; 0 = none. */
    std::vector<SeqNum> root_;

    bool rootLive(SeqNum root) const;
};

} // namespace spt

#endif // SPT_CORE_BASELINE_ENGINES_H

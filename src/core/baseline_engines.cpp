#include "core/baseline_engines.h"

#include "uarch/core.h"

namespace spt {

void
SttEngine::attach(Core &core)
{
    SecurityEngine::attach(core);
    // Architectural state present before execution is, by STT's
    // definition, non-speculatively accessed: no roots.
    root_.assign(core.physRegs().numRegs(), 0);
}

void
SttEngine::onRename(DynInst &d)
{
    if (!d.has_dest)
        return;
    if (d.is_load) {
        // Access instruction: its own output is the taint root.
        root_[d.prd] = d.seq;
        return;
    }
    SeqNum root = 0;
    if (d.num_srcs >= 1 && rootLive(root_[d.prs1]))
        root = root_[d.prs1];
    if (d.num_srcs >= 2 && rootLive(root_[d.prs2]) &&
        root_[d.prs2] > root)
        root = root_[d.prs2];
    root_[d.prd] = root;
}

bool
SttEngine::rootLive(SeqNum root) const
{
    if (root == 0)
        return false;
    const DynInst *d = core_->findInst(root);
    // Retired or squashed roots no longer taint; a root that reached
    // the VP s-untaints all dependents in the same cycle (STT's
    // single-cycle untaint).
    return d != nullptr && !d->at_vp;
}

bool
SttEngine::regTainted(PhysReg reg) const
{
    return reg != kNoPhysReg && rootLive(root_[reg]);
}

uint64_t
SttEngine::taintedRegCount() const
{
    uint64_t n = 0;
    for (std::size_t reg = 0; reg < root_.size(); ++reg)
        if (regTainted(static_cast<PhysReg>(reg)))
            ++n;
    return n;
}

bool
SttEngine::mayAccessMemory(const DynInst &d) const
{
    return d.at_vp || !regTainted(d.prs1);
}

bool
SttEngine::mayResolveBranch(const DynInst &d) const
{
    if (d.at_vp)
        return true;
    if (d.num_srcs >= 1 && regTainted(d.prs1))
        return false;
    if (d.num_srcs >= 2 && regTainted(d.prs2))
        return false;
    return true;
}

bool
SttEngine::maySquashMemViolation(const DynInst &d) const
{
    if (d.at_vp)
        return true;
    if (regTainted(d.prs1))
        return false;
    for (const DynInstPtr &st : core_->storeQueue()) {
        if (st->squashed || st->seq > d.seq)
            continue;
        if (!st->at_vp && regTainted(st->prs1))
            return false;
    }
    return true;
}

bool
SttEngine::stlForwardingPublic(const DynInst &load,
                               const DynInst &store) const
{
    // The forwarding decision is public when the addresses of the
    // load and of every store between the source and the load are
    // s-untainted.
    if (!load.at_vp && regTainted(load.prs1))
        return false;
    for (const DynInstPtr &st : core_->storeQueue()) {
        if (st->squashed || st->seq < store.seq ||
            st->seq >= load.seq)
            continue;
        if (!st->at_vp && regTainted(st->prs1))
            return false;
    }
    return true;
}

} // namespace spt

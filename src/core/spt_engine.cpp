#include "core/spt_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "core/untaint_rules.h"
#include "uarch/core.h"

namespace spt {

namespace {

const char *
reasonName(SptEngine::UntaintReason r)
{
    switch (r) {
      case SptEngine::UntaintReason::kVpDeclassify:
        return "untaint.vp_declassify";
      case SptEngine::UntaintReason::kForward:
        return "untaint.forward";
      case SptEngine::UntaintReason::kBackward:
        return "untaint.backward";
      case SptEngine::UntaintReason::kShadowData:
        return "untaint.shadow_data";
      case SptEngine::UntaintReason::kStlForward:
        return "untaint.stl_forward";
    }
    return "untaint.unknown";
}

TaintEvent
reasonEvent(SptEngine::UntaintReason r)
{
    switch (r) {
      case SptEngine::UntaintReason::kVpDeclassify:
        return TaintEvent::kVpDeclassify;
      case SptEngine::UntaintReason::kForward:
        return TaintEvent::kForwardUntaint;
      case SptEngine::UntaintReason::kBackward:
        return TaintEvent::kBackwardUntaint;
      case SptEngine::UntaintReason::kShadowData:
        return TaintEvent::kShadowUntaint;
      case SptEngine::UntaintReason::kStlForward:
        return TaintEvent::kStlUntaint;
    }
    return TaintEvent::kVpDeclassify;
}

} // namespace

SptEngine::SptEngine(const SptConfig &config)
    : cfg_(config)
{
}

void
SptEngine::attach(Core &core)
{
    SecurityEngine::attach(core);
    master_.assign(core.physRegs().numRegs(), TaintMask::all());
    // The zero register is public; every other architectural
    // register (and all memory) starts tainted (Section 6.3).
    master_.set(PhysRegFile::kZeroReg, TaintMask::none());
    switch (cfg_.shadow) {
      case ShadowKind::kNone:
        taint_store_ = std::make_unique<NullTaintStore>();
        break;
      case ShadowKind::kShadowL1:
        taint_store_ =
            std::make_unique<ShadowL1>(core.memorySystem().l1d());
        break;
      case ShadowKind::kShadowMem:
        taint_store_ = std::make_unique<ShadowMemory>();
        break;
    }

    uint64_t cap = 1;
    while (cap < core.params().rob_size)
        cap <<= 1;
    entries_.assign(cap, Entry{});
    idx_mask_ = cap - 1;
    head_ = tail_ = vp_cursor_ = 0;
    shadow_rescan_ = false;
    local_queue_.clear();
    pending_flags_.assign(cap);
    reg_slots_.assign(core.physRegs().numRegs(), {});
    stl_candidates_.assign(cap);
    shadow_candidates_.assign(cap);
}

TaintMask
SptEngine::masterTaint(PhysReg reg) const
{
    return reg == kNoPhysReg ? TaintMask::none() : master_.get(reg);
}

// --------------------------------------------------------------------
// Taint storage
// --------------------------------------------------------------------

SptEngine::Entry *
SptEngine::entryOf(const DynInst &d)
{
    if (d.taint_idx == kNoTaintIdx)
        return nullptr;
    Entry &e = entries_[d.taint_idx];
    return e.holds(d.seq) ? &e : nullptr;
}

const SptEngine::Entry *
SptEngine::entryOf(const DynInst &d) const
{
    return const_cast<SptEngine *>(this)->entryOf(d);
}

const SptEngine::InstTaint *
SptEngine::instTaint(SeqNum seq) const
{
    // The ring runs parallel to the ROB and a slot frees before the
    // core pops its instruction, so the ROB lookup finds every live
    // slot; a retired or squashed one fails entryOf.
    const DynInst *d = core_->findInst(seq);
    const Entry *e = d ? entryOf(*d) : nullptr;
    return e ? &e->it : nullptr;
}

void
SptEngine::markLocalDirty(Entry &e)
{
    // Every mask change comes through here, a load's output included.
    shadow_rescan_ = true;
    if (cfg_.method == UntaintMethod::kNone)
        return; // the local-rules phase never runs
    if (e.in_local_queue)
        return;
    e.in_local_queue = true;
    local_queue_.push_back(
        {static_cast<uint32_t>(&e - entries_.data()), e.seq});
}

void
SptEngine::raiseFlag(Entry &e, int slot)
{
    // The bitmap is ring-parallel, and ring order is seq order, so a
    // head-to-tail scan yields (older inst, dest-before-src) — the
    // arbitration order the old ordered set encoded in its keys.
    const uint64_t idx =
        static_cast<uint64_t>(&e - entries_.data());
    pending_flags_.set(idx, static_cast<unsigned>(slot));
    // A flag is raised exactly when a local mask shrank: the core's
    // memoised memory-gate verdicts may be stale.
    core_->noteGateInputsChanged();
}

void
SptEngine::clearFlag(Entry &e, int slot)
{
    const uint64_t idx =
        static_cast<uint64_t>(&e - entries_.data());
    pending_flags_.clear(idx, static_cast<unsigned>(slot));
}

void
SptEngine::freeEntry(Entry &e)
{
    const uint64_t idx =
        static_cast<uint64_t>(&e - entries_.data());
    for (int slot = 0; slot < 3; ++slot)
        clearFlag(e, slot);
    stl_candidates_.clear(idx);
    shadow_candidates_.clear(idx);
    e.inst = nullptr;
}

void
SptEngine::registerRegSlots(const DynInst &d, uint32_t idx)
{
    for (int slot = 0; slot < 3; ++slot) {
        const PhysReg reg = slotReg(d, slot);
        if (reg == kNoPhysReg || reg == PhysRegFile::kZeroReg)
            continue; // never the target of a broadcast
        auto &refs = reg_slots_[reg];
        // Drop stale references before forcing a reallocation; live
        // ones are bounded by the ROB, so this keeps each list small
        // at amortized O(1) per insert.
        if (refs.size() >= 16 && refs.size() == refs.capacity()) {
            std::erase_if(refs, [this](const RegSlotRef &r) {
                return !entries_[r.idx].holds(r.seq);
            });
        }
        refs.push_back({idx, d.seq, static_cast<uint8_t>(slot)});
    }
}

void
SptEngine::countUntaint(UntaintReason reason, const Entry &e,
                        int slot)
{
    stats_.inc(reasonName(reason));
    stats_.inc("untaint.events");
    if (observer_)
        observer_->taintEvent(core_->cycle(), reasonEvent(reason),
                              *e.inst, static_cast<uint8_t>(slot));
}

PhysReg
SptEngine::slotReg(const DynInst &d, int slot) const
{
    switch (slot) {
      case 0: return d.prd;
      case 1: return d.prs1;
      case 2: return d.prs2;
      default: SPT_PANIC("bad slot");
    }
}

TaintMask &
SptEngine::slotMask(InstTaint &it, int slot) const
{
    switch (slot) {
      case 0: return it.dest;
      case 1: return it.src[0];
      case 2: return it.src[1];
      default: SPT_PANIC("bad slot");
    }
}

// --------------------------------------------------------------------
// Pipeline events
// --------------------------------------------------------------------

void
SptEngine::onRename(DynInst &d)
{
    SPT_ASSERT(tail_ - head_ < entries_.size(),
               "taint ring overflow: ROB grew past attach-time size");
    const uint32_t idx = static_cast<uint32_t>(tail_ & idx_mask_);
    Entry &e = entries_[idx];
    SPT_ASSERT(!e.inst, "taint ring slot still live at rename");
    e = Entry{};
    e.seq = d.seq;
    e.inst = &d;
    d.taint_idx = idx;
    ++tail_;

    InstTaint &it = e.it;
    if (d.num_srcs >= 1)
        it.src[0] = master_.get(d.prs1);
    if (d.num_srcs >= 2)
        it.src[1] = master_.get(d.prs2);
    if (d.has_dest) {
        if (d.is_load) {
            // Loads are conservatively tainted at rename; the data's
            // taint is not known yet (Section 6.3).
            it.dest = TaintMask::all();
        } else {
            it.dest = propagateForward(d.si.op, it.src[0], it.src[1]);
        }
        master_.set(d.prd, it.dest);
    }
    if (observer_ && d.has_dest && it.dest.any())
        observer_->taintEvent(core_->cycle(),
                              TaintEvent::kTaintedAtRename, d, 0);
    registerRegSlots(d, idx);
    // The backward rule may already apply to the rename-time masks.
    markLocalDirty(e);
}

void
SptEngine::onSquash(const DynInst &d)
{
    Entry *e = entryOf(d);
    if (!e)
        return; // squashed before rename (fetch queue)
    // The core squashes the ROB suffix youngest-first, so frees pop
    // the ring tail.
    SPT_ASSERT(tail_ > head_ &&
                   ((tail_ - 1) & idx_mask_) == d.taint_idx,
               "out-of-order squash");
    freeEntry(*e);
    --tail_;
    if (vp_cursor_ > tail_)
        vp_cursor_ = tail_;
}

void
SptEngine::onRetire(const DynInst &d)
{
    Entry *e = entryOf(d);
    if (!e)
        return;
    SPT_ASSERT((head_ & idx_mask_) == d.taint_idx,
               "out-of-order retire");
    // A retiring instruction's slot frees; push any still-pending
    // untaint information into the master copy so it is not lost
    // (newly renamed consumers read the master).
    flushFlagsToMaster(d);
    freeEntry(*e);
    ++head_;
    if (vp_cursor_ < head_)
        vp_cursor_ = head_;
}

void
SptEngine::flushFlagsToMaster(const DynInst &d)
{
    Entry *e = entryOf(d);
    if (!e)
        return;
    for (int slot = 0; slot < 3; ++slot) {
        if (!pending_flags_.test(d.taint_idx,
                                 static_cast<unsigned>(slot)))
            continue;
        const PhysReg reg = slotReg(d, slot);
        if (reg != kNoPhysReg && reg != PhysRegFile::kZeroReg)
            master_.intersect(reg, slotMask(e->it, slot));
    }
}

void
SptEngine::onLoadData(DynInst &d, bool forwarded, SeqNum)
{
    Entry *e = entryOf(d);
    if (!e)
        return;
    InstTaint &it = e->it;
    it.load_data_seen = true;
    if (!d.has_dest)
        return; // a load into x0: its value is never observed, so
                // neither the load rule nor the STL rule applies
    if (forwarded) {
        // Either direction of the STL rule may fire later, whatever
        // the current masks (Section 6.7).
        stl_candidates_.set(d.taint_idx);
    }

    if (it.dest.nothing()) {
        // Section 6.8 load rule: the output register was already
        // untainted (backward-untainted by a consumer that reached
        // the VP; possible only once the load itself is
        // non-speculative, Lemma 1) — clear the read bytes' taint.
        if (!forwarded && cfg_.shadow != ShadowKind::kNone) {
            it.shadow_cleared = true;
            taint_store_->clearTaint(d.eff_addr, d.mem_bytes);
            stats_.inc("shadow.load_clears");
        }
        return;
    }
    if (forwarded)
        return; // untaint flows via the STLPublic rule (Section 6.7)

    const uint8_t byte_taint =
        taint_store_->readTaint(d.eff_addr, d.mem_bytes);
    const TaintMask m = TaintMask::forLoad(
        d.mem_bytes, opTraits(d.si.op).load_signed, byte_taint);
    if (m != it.dest && m.subsetOf(it.dest)) {
        it.dest = m;
        raiseFlag(*e, 0);
        countUntaint(UntaintReason::kShadowData, *e, 0);
        markLocalDirty(*e);
    }
    if (cfg_.shadow != ShadowKind::kNone && !it.shadow_cleared) {
        // May retroactively clear the read bytes once the output
        // untaints (shadowClearPhase).
        shadow_candidates_.set(d.taint_idx);
        shadow_rescan_ = true;
    }
}

void
SptEngine::onStoreCommit(const DynInst &d)
{
    const Entry *e = entryOf(d);
    const TaintMask data_mask =
        e ? e->it.src[1] : TaintMask::all();
    // The data operand's taint overwrites the written bytes' taint
    // (Sections 6.8 / 7.5).
    taint_store_->writeTaint(d.eff_addr, d.mem_bytes,
                             data_mask.toByteMask());
}

// --------------------------------------------------------------------
// Protection policy
// --------------------------------------------------------------------

bool
SptEngine::addrOperandPublic(const DynInst &d) const
{
    if (d.at_vp)
        return true;
    const Entry *e = entryOf(d);
    if (!e)
        return true; // retired
    return e->it.src[0].nothing();
}

bool
SptEngine::operandsPublic(const DynInst &d) const
{
    if (d.at_vp)
        return true;
    const Entry *e = entryOf(d);
    if (!e)
        return true;
    if (d.num_srcs >= 1 && e->it.src[0].any())
        return false;
    if (d.num_srcs >= 2 && e->it.src[1].any())
        return false;
    return true;
}

bool
SptEngine::mayAccessMemory(const DynInst &d) const
{
    if (addrOperandPublic(d))
        return true;
    if (cfg_.mutation == SptConfig::Mutation::kLeakyMemGate) {
        // Seeded bug (chaos mutation mode): the gate lies. The
        // transmitPublic claim below still tells the truth, so the
        // InvariantChecker flags the ensuing access.
        stats_.inc("mutation.leaky_gate_opens");
        return true;
    }
    return false;
}

bool
SptEngine::mayResolveBranch(const DynInst &d) const
{
    return operandsPublic(d);
}

bool
SptEngine::stlPublic(const DynInst &load, const DynInst &store) const
{
    // STLPublic(S, L): L's address is untainted and the addresses of
    // all stores older than L and younger than S (inclusive) are
    // untainted (Section 6.7).
    if (!addrOperandPublic(load))
        return false;
    for (const DynInstPtr &st : core_->storeQueue()) {
        if (st->squashed)
            continue;
        if (st->seq < store.seq || st->seq >= load.seq)
            continue;
        if (!addrOperandPublic(*st))
            return false;
    }
    return true;
}

bool
SptEngine::stlForwardingPublic(const DynInst &load,
                               const DynInst &store) const
{
    return stlPublic(load, store);
}

bool
SptEngine::memSquashPublic(const DynInst &load) const
{
    // The squash's implicit branch involves the load's address and
    // the addresses of all older in-flight stores (Section 6.7,
    // footnote 4).
    if (load.at_vp)
        return true;
    if (!addrOperandPublic(load))
        return false;
    for (const DynInstPtr &st : core_->storeQueue()) {
        if (st->squashed || st->seq > load.seq)
            continue;
        if (!addrOperandPublic(*st))
            return false;
    }
    return true;
}

bool
SptEngine::maySquashMemViolation(const DynInst &load) const
{
    return memSquashPublic(load);
}

bool
SptEngine::transmitPublic(const DynInst &d, DelayKind kind) const
{
    // Ground truth for the invariant checker: the un-mutated policy
    // predicates, one per transmit channel.
    switch (kind) {
      case DelayKind::kMemAccess:
        return addrOperandPublic(d);
      case DelayKind::kBranchResolve:
        return operandsPublic(d);
      case DelayKind::kMemOrderSquash:
        return memSquashPublic(d);
    }
    return true;
}

bool
SptEngine::taintStateConsistent(const DynInst &d) const
{
    // Every in-flight instruction must resolve to a live taint slot
    // whose back-pointer is the instruction itself (the ring-buffer
    // index map of Section 7.2's storage).
    const Entry *e = entryOf(d);
    return e != nullptr && e->inst == &d && e->seq == d.seq;
}

// --------------------------------------------------------------------
// Observability
// --------------------------------------------------------------------

bool
SptEngine::untaintPendingFor(PhysReg reg) const
{
    if (reg == kNoPhysReg)
        return false;
    // Raised-but-not-broadcast flags are the broadcast queue: if one
    // of them names `reg` with a strictly smaller mask, the operand
    // is only waiting on the structural broadcast width.
    const TaintMask cur = master_.get(reg);
    bool pending = false;
    pending_flags_.forEach(
        head_, tail_, [&](uint64_t pos, unsigned k) {
            const Entry &e = entries_[pos & idx_mask_];
            const int slot = static_cast<int>(k);
            if (slotReg(*e.inst, slot) != reg)
                return true;
            const TaintMask flagged =
                slot == 0 ? e.it.dest : e.it.src[slot - 1];
            if ((cur & flagged) != cur) {
                pending = true;
                return false;
            }
            return true;
        });
    return pending;
}

DelayCause
SptEngine::delayCause(const DynInst &d, DelayKind kind) const
{
    // Called only with an observer installed, after the policy query
    // returned false — never on the trace-off hot path.
    switch (kind) {
      case DelayKind::kMemAccess:
        return untaintPendingFor(d.prs1)
                   ? DelayCause::kWaitBroadcast
                   : DelayCause::kTaintedAddr;
      case DelayKind::kBranchResolve: {
        const Entry *e = entryOf(d);
        const bool src0_blocked =
            e && d.num_srcs >= 1 && e->it.src[0].any();
        const bool src1_blocked =
            e && d.num_srcs >= 2 && e->it.src[1].any();
        if ((src0_blocked && untaintPendingFor(d.prs1)) ||
            (src1_blocked && untaintPendingFor(d.prs2)))
            return DelayCause::kWaitBroadcast;
        return DelayCause::kTaintedBranch;
      }
      case DelayKind::kMemOrderSquash:
        return DelayCause::kMemOrderGate;
    }
    return DelayCause::kMemOrderGate;
}

uint64_t
SptEngine::taintedRegCount() const
{
    return master_.taintedCount();
}

// --------------------------------------------------------------------
// Fast-forward support
// --------------------------------------------------------------------

bool
SptEngine::quiescent() const
{
    // tick() is a pure no-op iff no phase has queued work and the VP
    // cursor has consumed the whole at_vp prefix. The candidate
    // phases (STL, shadow-clear) re-check deterministic conditions
    // each cycle, but with the core frozen their inputs cannot
    // change: anything fireable fired on the tick that just ran, and
    // a fire either queues follow-up work (raised flag / dirty local
    // queue — both caught here) or is one-shot (shadow_cleared).
    if (!pending_flags_.empty() || !local_queue_.empty())
        return false;
    if (vp_cursor_ < tail_ &&
        entries_[vp_cursor_ & idx_mask_].inst->at_vp)
        return false;
    return true;
}

// --------------------------------------------------------------------
// Per-cycle untaint machinery
// --------------------------------------------------------------------

void
SptEngine::declassifyPhase()
{
    // at_vp spreads as a monotone, contiguous ROB prefix (it is set
    // front-to-back and squashes only remove the suffix), so a
    // cursor visits each instruction exactly once.
    while (vp_cursor_ < tail_) {
        Entry &e = entryAt(vp_cursor_);
        if (!e.inst->at_vp)
            break;
        ++vp_cursor_;
        shadow_rescan_ = true;
        if (e.it.declassified)
            continue;
        e.it.declassified = true;
        const DynInst &d = *e.inst;
        // Leaked operands: the address of a load/store; the source
        // operands of a branch/indirect jump.
        bool src0 = false, src1 = false;
        if (d.isMem())
            src0 = true;
        else if (d.is_ctrl) {
            src0 = d.num_srcs >= 1;
            src1 = d.num_srcs >= 2;
        }
        if (src0 && e.it.src[0].any()) {
            e.it.src[0] = TaintMask::none();
            raiseFlag(e, 1);
            countUntaint(UntaintReason::kVpDeclassify, e, 1);
            markLocalDirty(e);
        }
        if (src1 && e.it.src[1].any()) {
            e.it.src[1] = TaintMask::none();
            raiseFlag(e, 2);
            countUntaint(UntaintReason::kVpDeclassify, e, 2);
            markLocalDirty(e);
        }
    }
}

bool
SptEngine::evalLocalRules(Entry &e)
{
    const DynInst &d = *e.inst;
    InstTaint &it = e.it;
    bool changed = false;

    // Forward rule: outputs that are pure functions of their
    // operands (never loads).
    if (d.has_dest && !d.is_load && it.dest.any()) {
        const TaintMask m =
            propagateForward(d.si.op, it.src[0], it.src[1]);
        if (m != it.dest && m.subsetOf(it.dest)) {
            it.dest = m;
            raiseFlag(e, 0);
            countUntaint(UntaintReason::kForward, e, 0);
            changed = true;
        }
    }

    if (cfg_.method == UntaintMethod::kBackward ||
        cfg_.method == UntaintMethod::kIdeal) {
        const BackwardUntaint b = propagateBackward(
            d.si.op, it.src[0], it.src[1], it.dest);
        if (b.untaint_src0) {
            it.src[0] = TaintMask::none();
            raiseFlag(e, 1);
            countUntaint(UntaintReason::kBackward, e, 1);
            changed = true;
        }
        if (b.untaint_src1) {
            it.src[1] = TaintMask::none();
            raiseFlag(e, 2);
            countUntaint(UntaintReason::kBackward, e, 2);
            changed = true;
        }
    }
    return changed;
}

bool
SptEngine::localRulesPhase()
{
    // The rules are pure functions of an instruction's own masks:
    // re-evaluating one whose inputs did not change is a no-op, so
    // only queued (changed) instructions need a visit. Entries
    // queued during this drain — including self-requeues when a rule
    // fires — are seen by the *next* drain, matching the old
    // scan-per-cycle behavior of one visit per instruction per call.
    bool changed = false;
    const size_t n = local_queue_.size();
    for (size_t i = 0; i < n; ++i) {
        const EntryRef ref = local_queue_[i];
        Entry &e = entries_[ref.idx];
        if (!e.holds(ref.seq))
            continue; // slot recycled since queueing
        e.in_local_queue = false;
        if (evalLocalRules(e)) {
            markLocalDirty(e);
            changed = true;
        }
    }
    local_queue_.erase(local_queue_.begin(),
                       local_queue_.begin() + n);
    return changed;
}

bool
SptEngine::stlPhase()
{
    if (stl_candidates_.empty())
        return false; // no forwarded load in flight
    // Candidate bits mark forwarded loads whose data arrived; ring
    // order is seq order, so this visits the same loads in the same
    // order as the old LSQ walk while word-skipping everything else.
    bool changed = false;
    stl_candidates_.forEach(head_, tail_, [&](uint64_t pos, unsigned) {
        Entry &le = entryAt(pos);
        const DynInst *ld = le.inst;
        // An MSHR retry can strip `forwarded` after the candidate
        // bit was set; re-check the instruction like the LSQ walk
        // did.
        if (ld->squashed || !ld->forwarded ||
            !le.it.load_data_seen)
            return true;
        const DynInst *st = core_->findInst(ld->forwarding_store);
        Entry *se = st ? entryOf(*st) : nullptr;
        if (!se)
            return true; // store retired before the pair went public
        if (!stlPublic(*ld, *st))
            return true;
        InstTaint &lt = le.it;
        InstTaint &stt = se->it;
        // Forward: store data -> load output.
        if (stt.src[1].nothing() && lt.dest.any()) {
            lt.dest = TaintMask::none();
            lt.stl_untaint = true;
            raiseFlag(le, 0);
            countUntaint(UntaintReason::kStlForward, le, 0);
            markLocalDirty(le);
            changed = true;
        }
        // Backward: load output -> store data.
        if (lt.dest.nothing() && stt.src[1].any()) {
            stt.src[1] = TaintMask::none();
            raiseFlag(*se, 2);
            countUntaint(UntaintReason::kStlForward, *se, 2);
            markLocalDirty(*se);
            changed = true;
        }
        return true;
    });
    return changed;
}

void
SptEngine::shadowClearPhase()
{
    if (cfg_.shadow == ShadowKind::kNone)
        return; // no taint-tracking structure to update
    if (!shadow_rescan_)
        return; // no candidate input changed since the last scan
    shadow_rescan_ = false;
    if (shadow_candidates_.empty())
        return; // no load that could still clear anything

    // Section 6.8 load rule, retroactive form: a non-speculative
    // load whose output register became untainted (e.g., backward-
    // declassified by a consumer transmitter at the VP) makes the
    // bytes it read publicly inferable — the attacker knows the load
    // accessed eff_addr (its address is declassified at the VP) and
    // knows the output value. Candidate bits (set when load data
    // arrives) cover every load that can still fire; visiting them
    // in ring (= seq) order matches the old LSQ walk.
    shadow_candidates_.forEach(head_, tail_, [&](uint64_t pos, unsigned) {
        Entry &e = entryAt(pos);
        const DynInst *ld = e.inst;
        if (ld->squashed || !ld->at_vp || ld->forwarded ||
            !ld->access_done)
            return true;
        InstTaint &it = e.it;
        if (!it.load_data_seen || it.shadow_cleared ||
            it.dest.any())
            return true;
        it.shadow_cleared = true;
        shadow_candidates_.clear(pos & idx_mask_);
        taint_store_->clearTaint(ld->eff_addr, ld->mem_bytes);
        stats_.inc("shadow.load_clears");
        return true;
    });
}

void
SptEngine::applyBroadcast(PhysReg reg, TaintMask mask)
{
    // The broadcast may carry information the master copy already
    // has (or lost to a retirement flush in between): intersecting
    // is monotone and sound either way. Dropping a non-subset mask
    // here would lose the untaint forever, since broadcastPhase has
    // already cleared the slot flag.
    const TaintMask cur = master_.get(reg);
    if ((cur & mask) != cur)
        ++untainted_regs_this_cycle_;
    master_.set(reg, cur & mask);
    // Only the in-flight slots naming `reg` can observe the
    // broadcast; walk the reverse index instead of the ROB,
    // compacting out slots that were recycled since registration.
    auto &refs = reg_slots_[reg];
    size_t w = 0;
    for (size_t r = 0; r < refs.size(); ++r) {
        const RegSlotRef ref = refs[r];
        Entry &e = entries_[ref.idx];
        if (!e.holds(ref.seq))
            continue;
        refs[w++] = ref;
        TaintMask &m = slotMask(e.it, ref.slot);
        const TaintMask before = m;
        m &= mask;
        // The slot's information is fully conveyed once it
        // matches the broadcast value.
        if (m == mask)
            clearFlag(e, ref.slot);
        if (m != before) {
            markLocalDirty(e);
            core_->noteGateInputsChanged();
        }
    }
    refs.resize(w);
    stats_.inc("untaint.broadcasts");
}

void
SptEngine::broadcastPhase()
{
    unsigned width = cfg_.broadcast_width;
    FaultHooks *faults = core_ ? core_->faultHooks() : nullptr;
    if (faults && faults->fire(FaultSite::kBroadcastStarve)) {
        // Starve the untaint bus for this cycle; raised flags stay
        // pending and drain on a later cycle.
        width = 0;
    }
    if (pending_flags_.empty())
        return; // nothing raised: the bus idles
    // Drain raised flags in arbitration order (a head-to-tail bitmap
    // scan: older instruction first, destination before sources) up
    // to the structural width.
    chosen_.clear();
    uint64_t pos;
    unsigned k;
    while (chosen_.size() < width &&
           pending_flags_.first(head_, tail_, pos, k)) {
        Entry &e = entryAt(pos);
        SPT_ASSERT(e.inst, "pending flag references a freed slot");
        const int slot = static_cast<int>(k);
        clearFlag(e, slot);
        const PhysReg reg = slotReg(*e.inst, slot);
        if (reg == kNoPhysReg || reg == PhysRegFile::kZeroReg)
            continue;
        Broadcast *dup = nullptr;
        for (Broadcast &b : chosen_)
            if (b.reg == reg)
                dup = &b;
        if (dup) {
            // A second slot naming an already-chosen register
            // rides along on the same broadcast: merge its mask
            // instead of burning a slot (and a cycle) on it.
            dup->mask &= slotMask(e.it, slot);
            continue;
        }
        chosen_.push_back({reg, slotMask(e.it, slot)});
    }
    for (const Broadcast &b : chosen_)
        applyBroadcast(b.reg, b.mask);
}

void
SptEngine::idealPropagate()
{
    // Unbounded, single-cycle transitive closure: iterate the rules
    // with instant global visibility until nothing changes.
    bool changed = true;
    while (changed) {
        changed = false;
        changed |= localRulesPhase();
        changed |= stlPhase();
        // Flush every flag as an immediate broadcast. A broadcast
        // may clear other pending flags; re-finding the bitmap's
        // first set flag each time handles that safely and keeps
        // arbitration order.
        uint64_t pos;
        unsigned k;
        while (pending_flags_.first(head_, tail_, pos, k)) {
            Entry &e = entryAt(pos);
            SPT_ASSERT(e.inst,
                       "pending flag references a freed slot");
            const int slot = static_cast<int>(k);
            clearFlag(e, slot);
            const PhysReg reg = slotReg(*e.inst, slot);
            if (reg != kNoPhysReg &&
                reg != PhysRegFile::kZeroReg) {
                applyBroadcast(reg, slotMask(e.it, slot));
                changed = true;
            }
        }
    }
}

void
SptEngine::tick()
{
    untainted_regs_this_cycle_ = 0;
    declassifyPhase();
    if (cfg_.method == UntaintMethod::kIdeal) {
        idealPropagate();
        shadowClearPhase();
    } else if (cfg_.method != UntaintMethod::kNone) {
        localRulesPhase();
        stlPhase();
        broadcastPhase();
        shadowClearPhase();
    } else {
        // Even with no propagation, VP declassifications must reach
        // the master copy so the transmitters themselves can execute;
        // in SPT{None} this happens only via the bounded broadcast.
        broadcastPhase();
    }
    if (untainted_regs_this_cycle_ > 0) {
        stats_.histogram("untaint.regs_per_untaint_cycle", 12)
            .record(untainted_regs_this_cycle_);
    }
}

} // namespace spt

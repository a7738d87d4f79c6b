/**
 * @file
 * Load/store unit logic of the Core: policy-gated memory accesses,
 * store-to-load forwarding over virtual addresses, memory-dependence
 * speculation, and violation detection.
 */

#include "common/logging.h"
#include "uarch/core.h"

namespace spt {

namespace {

bool
rangesOverlap(uint64_t a, unsigned an, uint64_t b, unsigned bn)
{
    return a < b + bn && b < a + an;
}

bool
rangeCovers(uint64_t outer, unsigned outer_n, uint64_t inner,
            unsigned inner_n)
{
    return outer <= inner && inner + inner_n <= outer + outer_n;
}

} // namespace

void
Core::memStage()
{
    if (mem_frozen_epoch_ == gate_epoch_) {
        // No gate input and no waiting entry changed since a walk that
        // opened no gate: walking again would ask no gate (every
        // verdict is memoised at this epoch) and charge the same.
        delay_mem_cycles_ += mem_frozen_charge_;
        return;
    }
    uint64_t charged = 0;
    bool opened = false;

    // Stores: the policy-gated "execution" step (address translation
    // and everything the paper counts as the store's transmit).
    unsigned store_ports = params_.store_ports;
    for (const DynInstPtr &st : sq_) {
        if (store_ports == 0)
            break;
        if (!st->addr_known || st->completed || st->squashed)
            continue;
        if (!memGateOpen(*st)) {
            noteTransmitterDelay(*st, DelayKind::kMemAccess);
            ++charged;
            break; // stores translate in order
        }
        opened = true;
        st->access_done = true;
        st->completed = true;
        --store_ports;
        stats_.inc("lsu.store_translations");
        if (observer_) {
            observer_->gateOpened(cycle_, *st, DelayKind::kMemAccess);
            observer_->memAccess(cycle_, *st);
        }
    }

    // Loads, oldest first.
    unsigned load_ports = params_.load_ports;
    for (std::size_t i = 0; i < waiting_loads_.size();) {
        if (load_ports == 0)
            break;
        const DynInstPtr &ld = waiting_loads_[i];
        if (!memGateOpen(*ld)) {
            noteTransmitterDelay(*ld, DelayKind::kMemAccess);
            ++charged;
            ++i;
            continue;
        }
        opened = true;
        if (tryLoadAccess(ld)) {
            --load_ports;
            waiting_loads_.erase(waiting_loads_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }

    if (!opened && memo_gates_ && !observer_ && !faults_) {
        mem_frozen_epoch_ = gate_epoch_;
        mem_frozen_charge_ = charged;
    }
}

/**
 * Attempts to start the memory access / forwarding of @p ld.
 * Returns true if the access was started (consumes a port).
 */
bool
Core::tryLoadAccess(const DynInstPtr &ld)
{
    // Scan older stores, youngest first, over *virtual* addresses
    // (which the LSQ knows even for stores whose policy-gated
    // execution has not happened yet — Section 6.7).
    DynInstPtr fwd;
    bool unknown_addr_seen = false;
    for (std::size_t i = sq_.size(); i-- > 0;) {
        const DynInstPtr &st = sq_[i];
        if (st->seq > ld->seq || st->squashed)
            continue;
        if (!st->addr_known) {
            if (!params_.mem_dep_speculation) {
                stats_.inc("lsu.load_dep_stall_cycles");
                return false;
            }
            if (ld->wait_store_seq != 0 &&
                st->seq == ld->wait_store_seq) {
                // Store-set predicted dependence: wait for it.
                stats_.inc("lsu.store_set_stall_cycles");
                return false;
            }
            unknown_addr_seen = true;
            continue;
        }
        if (!rangesOverlap(st->eff_addr, st->mem_bytes, ld->eff_addr,
                           ld->mem_bytes))
            continue;
        if (rangeCovers(st->eff_addr, st->mem_bytes, ld->eff_addr,
                        ld->mem_bytes)) {
            fwd = st;
            break;
        }
        // Partial overlap: wait until the store drains to memory.
        stats_.inc("lsu.partial_overlap_stall_cycles");
        return false;
    }

    unsigned latency;
    if (fwd) {
        ld->forwarded = true;
        ld->forwarding_store = fwd->seq;
        bool fast_path = engine_->stlForwardingPublic(*ld, *fwd);
        if (fast_path && faults_ &&
            faults_->fire(FaultSite::kStlDeny)) {
            // Deny the forwarding fast path: take the hidden
            // cache-access route below even though STLPublic holds.
            // The data is still forwarded from the store — only the
            // latency (and cache state) changes.
            fast_path = false;
        }
        if (fast_path) {
            // Ordinary forwarding fast path, no cache access.
            latency = memsys_.l1d().params().latency;
            stats_.inc("lsu.forwards_public");
        } else {
            // Hide the forwarding decision: access the cache anyway
            // and ignore the returned data (Section 6.7).
            const MemAccessResult res = memsys_.access(
                ld->eff_addr, AccessKind::kLoad, cycle_);
            if (!res.accepted) {
                stats_.inc("lsu.mshr_retries");
                ld->forwarded = false;
                ld->forwarding_store = 0;
                return false;
            }
            latency = res.latency;
            stats_.inc("lsu.forwards_hidden");
        }
    } else {
        const MemAccessResult res =
            memsys_.access(ld->eff_addr, AccessKind::kLoad, cycle_);
        if (!res.accepted) {
            stats_.inc("lsu.mshr_retries");
            return false;
        }
        latency = res.latency;
        if (unknown_addr_seen)
            ld->speculated_past_store = true;
        stats_.inc("lsu.load_accesses");
    }

    ld->access_done = true;
    if (observer_) {
        observer_->gateOpened(cycle_, *ld, DelayKind::kMemAccess);
        observer_->memAccess(cycle_, *ld);
    }
    scheduleCompletion(cycle_ + latency, ld);
    return true;
}

void
Core::completeLoadData(const DynInstPtr &ld)
{
    uint64_t raw;
    if (ld->forwarded) {
        const DynInst *st = findInst(ld->forwarding_store);
        if (st) {
            raw = st->store_data >>
                  (8 * (ld->eff_addr - st->eff_addr));
        } else {
            // The forwarding store retired while the load was in
            // flight; its data is in memory now.
            raw = mem_.read(ld->eff_addr, ld->mem_bytes);
        }
    } else {
        raw = mem_.read(ld->eff_addr, ld->mem_bytes);
    }
    ld->result = finishLoad(ld->si.op, raw);

    engine_->onLoadData(*ld, ld->forwarded, ld->forwarding_store);

    // A load into x0 has no destination register to write.
    if (ld->has_dest)
        writeReg(ld->prd, ld->result);
    ld->executed = true;
    ld->completed = true;
    if (observer_)
        observer_->executed(cycle_, *ld);
}

/**
 * A store's virtual address just became known: flag younger loads
 * that already obtained data from a stale source.
 */
void
Core::checkViolationsFromStore(const DynInstPtr &st)
{
    for (const DynInstPtr &ld : lq_) {
        if (ld->seq < st->seq || ld->squashed || !ld->access_done)
            continue;
        if (ld->mem_violation_pending)
            continue;
        if (!rangesOverlap(st->eff_addr, st->mem_bytes, ld->eff_addr,
                           ld->mem_bytes))
            continue;
        // The load got its data from memory or from a store older
        // than st; either way it missed st's data.
        if (ld->forwarded && ld->forwarding_store > st->seq)
            continue;
        ld->mem_violation_pending = true;
        addSquashCandidate(ld);
        ld->violating_store_pc = st->pc;
        stats_.inc("lsu.violations_detected");
    }
}

} // namespace spt

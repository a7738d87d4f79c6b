/**
 * @file
 * Commit, squash/recovery, and visibility-point logic of the Core.
 */

#include <algorithm>

#include "common/logging.h"
#include "uarch/core.h"

namespace spt {

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
Core::commitStage()
{
    for (unsigned n = 0; n < params_.commit_width; ++n) {
        if (rob_.empty())
            break;
        DynInstPtr d = rob_.front();
        if (!d->completed || d->squash_pending ||
            d->mem_violation_pending)
            break;

        if (d->is_store) {
            // The store buffer drains to the L1D; commit does not
            // stall on the access latency.
            mem_.write(d->eff_addr, d->store_data, d->mem_bytes);
            memsys_.access(d->eff_addr, AccessKind::kStore, cycle_);
            engine_->onStoreCommit(*d);
            store_sets_.storeRemoved(d->pc, d->seq);
            SPT_ASSERT(!sq_.empty() && sq_.front() == d,
                       "store commit out of order");
            sq_.erase(sq_.begin());
        }
        if (d->is_load) {
            SPT_ASSERT(!lq_.empty() && lq_.front() == d,
                       "load commit out of order");
            lq_.erase(lq_.begin());
        }
        if (d->is_ctrl) {
            SPT_ASSERT(cp_head_ < cp_tail_ &&
                           checkpointAt(cp_head_).seq == d->seq,
                       "control commit out of checkpoint order");
            ++cp_head_;
            bpu_.commitUpdate(d->pc, d->si, d->exec.is_taken,
                              d->exec.target);
        }
        if (d->has_dest && d->prev_prd != kNoPhysReg)
            prf_.free(d->prev_prd);

        engine_->onRetire(*d);
        if (commit_hook_)
            commit_hook_(*d);
        if (observer_)
            observer_->retired(cycle_, *d);
        rob_.pop_front();
        ++retired_;
        // A retired root no longer taints (STT); SPT frees its slot.
        noteGateInputsChanged();

        if (d->si.op == Opcode::kHalt) {
            halted_ = true;
            // Drain: squash everything fetched past the halt so the
            // RAT reflects final architectural state.
            squashFrom(d->seq + 1, d->pc + 1, nullptr);
            break;
        }
    }
}

// --------------------------------------------------------------------
// Squash handling
// --------------------------------------------------------------------

void
Core::handleSquashes()
{
    // At most one squash per cycle; oldest eligible first. A blocked
    // candidate older than the performed squash is charged one delay
    // cycle (candidates younger than it are squashed this cycle and
    // charge nothing — the same engine queries fire either way).
    // A squash edits the candidate list, so it gets its own
    // reference to the instruction and the loop ends.
    for (const DynInstPtr &d : squash_candidates_) {
        if (d->squash_pending) {
            if (engine_->mayResolveBranch(*d)) {
                performControlSquash(DynInstPtr(d));
                return;
            }
            noteTransmitterDelay(*d, DelayKind::kBranchResolve);
        }
        if (d->mem_violation_pending) {
            if (engine_->maySquashMemViolation(*d)) {
                performMemSquash(DynInstPtr(d));
                return;
            }
            noteTransmitterDelay(*d, DelayKind::kMemOrderSquash);
        }
    }
}

void
Core::performControlSquash(const DynInstPtr &branch)
{
    branch->squash_pending = false;
    stats_.inc("squash.control");
    if (observer_)
        observer_->gateOpened(cycle_, *branch,
                              DelayKind::kBranchResolve);
    squashFrom(branch->seq + 1, branch->actual_next_pc, branch.get());
    // The younger candidates went with the squash; the branch is now
    // the youngest one and leaves with its cleared flag.
    SPT_ASSERT(!squash_candidates_.empty() &&
                   squash_candidates_.back() == branch,
               "resolved branch missing from the squash candidates");
    squash_candidates_.pop_back();
    bpu_.repair(branch->pc, branch->si, branch->exec.is_taken);
}

void
Core::performMemSquash(const DynInstPtr &load)
{
    stats_.inc("squash.mem_violation");
    if (observer_)
        observer_->gateOpened(cycle_, *load,
                              DelayKind::kMemOrderSquash);
    store_sets_.trainViolation(load->pc, load->violating_store_pc);
    // Squash the load itself and everything younger; refetch from the
    // load's own pc.
    squashFrom(load->seq, load->pc, nullptr);
}

void
Core::squashFrom(SeqNum first_squashed, uint64_t new_fetch_pc,
                 const DynInst *resolved_branch)
{
    // Pop the squashed control instructions' checkpoints off the ring
    // tail (they may sit in the ROB or, predicted but not yet renamed,
    // in the fetch queue). If no resolved branch drives the recovery
    // (memory violation, halt drain), the oldest of them holds the
    // pre-prediction state to restore.
    const BranchPredictorUnit::Checkpoint *restore = nullptr;
    while (cp_tail_ > cp_head_ &&
           checkpointAt(cp_tail_ - 1).seq >= first_squashed) {
        --cp_tail_;
        restore = &checkpointAt(cp_tail_).cp;
    }
    if (resolved_branch) {
        SPT_ASSERT(cp_tail_ > cp_head_ &&
                       checkpointAt(cp_tail_ - 1).seq ==
                           resolved_branch->seq,
                   "resolved branch missing from the checkpoint ring");
        restore = &checkpointAt(cp_tail_ - 1).cp;
    }
    if (restore)
        bpu_.restore(*restore);

    // Walk the ROB from the tail, undoing rename mappings.
    while (!rob_.empty() && rob_.back()->seq >= first_squashed) {
        DynInstPtr d = rob_.back();
        d->squashed = true;
        engine_->onSquash(*d);
        if (observer_)
            observer_->squashed(cycle_, *d);
        if (d->has_dest) {
            rat_.set(d->si.rd, d->prev_prd);
            prf_.free(d->prd);
            // Its waiters are younger, hence squashed too.
            waiters_[d->prd].clear();
        }
        if (d->is_store)
            store_sets_.storeRemoved(d->pc, d->seq);
        if (!d->issued && needsReservationStation(*d))
            --rs_count_;
        rob_.pop_back();
        stats_.inc("squash.instructions");
    }
    while (!squash_candidates_.empty() &&
           squash_candidates_.back()->seq >= first_squashed)
        squash_candidates_.pop_back();
    while (!ready_.empty() && ready_.back()->seq >= first_squashed)
        ready_.pop_back();
    std::erase_if(lq_, [first_squashed](const DynInstPtr &d) {
        return d->seq >= first_squashed;
    });
    std::erase_if(sq_, [first_squashed](const DynInstPtr &d) {
        return d->seq >= first_squashed;
    });
    for (FetchEntry &fe : fetch_queue_) {
        fe.inst->squashed = true;
        engine_->onSquash(*fe.inst);
        if (observer_)
            observer_->squashed(cycle_, *fe.inst);
    }
    fetch_queue_.clear();

    fetch_pc_ = new_fetch_pc;
    fetch_stall_until_ = cycle_ + params_.redirect_penalty;
    noteGateInputsChanged();
}

// --------------------------------------------------------------------
// Visibility point
// --------------------------------------------------------------------

void
Core::updateVp()
{
    bool blocked = false;
    for (const DynInstPtr &d : rob_) {
        if (!blocked && !d->at_vp) {
            d->at_vp = true;
            noteGateInputsChanged();
            if (observer_)
                observer_->reachedVp(cycle_, *d);
        }
        if (params_.attack_model == AttackModel::kSpectre) {
            // Control-flow speculation, augmented with data
            // speculation sources (unresolved store addresses and
            // pending violations) so the VP stays sound under
            // memory-dependence speculation (paper Section 8).
            if (d->is_squash_source &&
                (!d->executed || d->squash_pending))
                blocked = true;
            if (d->is_store && !d->addr_known)
                blocked = true;
            if (d->mem_violation_pending)
                blocked = true;
        } else { // Futuristic: non-squashable.
            if (!d->completed || d->squash_pending ||
                d->mem_violation_pending)
                blocked = true;
        }
        if (blocked && !d->at_vp)
            break;
    }
}

} // namespace spt

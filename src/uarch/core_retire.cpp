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
            sq_.pop_front();
        }
        if (d->is_load) {
            SPT_ASSERT(!lq_.empty() && lq_.front() == d,
                       "load commit out of order");
            lq_.pop_front();
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
        if (vp_cursor_ > 0)
            --vp_cursor_;
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
    vp_cursor_ = std::min(vp_cursor_, rob_.size());
    while (!squash_candidates_.empty() &&
           squash_candidates_.back()->seq >= first_squashed)
        squash_candidates_.pop_back();
    while (!ready_.empty() && ready_.back()->seq >= first_squashed)
        ready_.pop_back();
    // The LSQ and its waiting loads are in seq order too.
    while (!lq_.empty() && lq_.back()->seq >= first_squashed)
        lq_.pop_back();
    while (!sq_.empty() && sq_.back()->seq >= first_squashed)
        sq_.pop_back();
    while (!waiting_loads_.empty() &&
           waiting_loads_.back()->seq >= first_squashed)
        waiting_loads_.pop_back();
    for (const FetchEntry &fe : fetch_queue_) {
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
    // The VP prefix runs from the ROB head up to and including the
    // first blocker. Everything before the cursor is in it for good,
    // so the walk resumes at the cursor.
    while (vp_cursor_ < rob_.size()) {
        DynInst &d = *rob_[vp_cursor_];
        if (!d.at_vp) {
            d.at_vp = true;
            noteGateInputsChanged();
            if (observer_)
                observer_->reachedVp(cycle_, d);
        }
        if (blocksVp(d))
            break;
        ++vp_cursor_;
    }
}

} // namespace spt

#include "uarch/core.h"

#include <algorithm>

#include "common/logging.h"

namespace spt {

namespace {

/** Heap order for completion events: the earliest (cycle, order)
 *  on top. */
template <typename Event>
bool
laterEvent(const Event &lhs, const Event &rhs)
{
    return lhs.cycle != rhs.cycle ? lhs.cycle > rhs.cycle
                                  : lhs.order > rhs.order;
}

} // namespace

Core::Core(Program program, const CoreParams &params,
           const MemorySystemParams &mem_params,
           std::unique_ptr<SecurityEngine> engine)
    : program_(std::move(program)), params_(params),
      memsys_(mem_params), engine_(std::move(engine)),
      prf_(params.num_phys_regs), fetch_pc_(program_.entry()),
      fetch_queue_(params.fetch_queue_size + params.fetch_width),
      rob_(params.rob_size), lq_(params.lq_size), sq_(params.sq_size)
{
    SPT_ASSERT(engine_ != nullptr, "core needs a security engine");
    program_.loadInto(mem_);
    // Architectural initial state: sp points at the stack top. The
    // initial RAT maps xN -> phys N, so write phys kRegSp directly.
    prf_.write(kRegSp, kDefaultStackTop);
    waiters_.resize(params_.num_phys_regs);
    waiting_loads_.reserve(params_.lq_size);
    // Every in-flight control instruction holds a checkpoint: at most
    // the ROB plus a full fetch queue plus one fetch group.
    uint64_t cap = 1;
    while (cap < uint64_t{params_.rob_size} + params_.fetch_queue_size +
                     params_.fetch_width)
        cap <<= 1;
    checkpoints_.resize(cap);
    cp_mask_ = cap - 1;
    engine_->attach(*this);
    memo_gates_ = engine_->fastForwardSafe();
}

bool
Core::needsReservationStation(const DynInst &d)
{
    return !(d.si.op == Opcode::kNop || d.si.op == Opcode::kHalt ||
             (d.si.op == Opcode::kJal && !d.has_dest));
}

uint64_t
Core::archReg(unsigned arch) const
{
    SPT_ASSERT(arch < kNumArchRegs, "arch register out of range");
    return prf_.value(rat_.lookup(static_cast<uint8_t>(arch)));
}

DynInst *
Core::findInst(SeqNum seq) const
{
    // Rename appends in seq order and squashes pop the tail, so the
    // ROB is always sorted by seq.
    const auto it = std::lower_bound(
        rob_.begin(), rob_.end(), seq,
        [](const DynInstPtr &d, SeqNum s) { return d->seq < s; });
    return it != rob_.end() && (*it)->seq == seq ? it->get()
                                                  : nullptr;
}

void
Core::addWaitingLoad(const DynInstPtr &ld)
{
    // AGU completion is out of order: insert at the seq position.
    const auto pos = std::upper_bound(
        waiting_loads_.begin(), waiting_loads_.end(), ld->seq,
        [](SeqNum s, const DynInstPtr &w) { return s < w->seq; });
    waiting_loads_.insert(pos, ld);
}

void
Core::addSquashCandidate(const DynInstPtr &d)
{
    // Completion is out of order: insert at the seq position.
    const auto pos = std::upper_bound(
        squash_candidates_.begin(), squash_candidates_.end(), d->seq,
        [](SeqNum s, const DynInstPtr &c) { return s < c->seq; });
    squash_candidates_.insert(pos, d);
}

uint64_t
Core::readOperand(PhysReg reg) const
{
    return reg == kNoPhysReg ? 0 : prf_.value(reg);
}

void
Core::writeReg(PhysReg reg, uint64_t value)
{
    prf_.write(reg, value);
    std::vector<DynInstPtr> &waiting = waiters_[reg];
    for (const DynInstPtr &w : waiting)
        if (!w->squashed && --w->waiting_srcs == 0)
            insertReady(w);
    waiting.clear();
}

void
Core::insertReady(const DynInstPtr &d)
{
    // Wakeups are out of order: insert at the seq position.
    const auto pos = std::upper_bound(
        ready_.begin(), ready_.end(), d->seq,
        [](SeqNum s, const DynInstPtr &r) { return s < r->seq; });
    ready_.insert(pos, d);
}

void
Core::scheduleCompletion(uint64_t cycle, const DynInstPtr &d)
{
    completions_.push_back({cycle, completion_order_++, d});
    std::push_heap(completions_.begin(), completions_.end(),
                   laterEvent<CompletionEvent>);
}

unsigned
Core::execLatency(const Instruction &si) const
{
    switch (si.op) {
      case Opcode::kMul:
      case Opcode::kMulh:
        return 3;
      case Opcode::kDiv:
      case Opcode::kRem:
        return 12;
      default:
        return 1;
    }
}

// --------------------------------------------------------------------
// Top level
// --------------------------------------------------------------------

void
Core::tick()
{
    ++cycle_;
    handleSquashes();
    commitStage();
    if (halted_)
        return;
    writebackStage();
    memStage();
    issueStage();
    renameDispatchStage();
    fetchStage();
    updateVp();
    engine_->tick();
    if (observer_)
        observer_->cycleEnd(cycle_);
}

Core::RunResult
Core::run(uint64_t max_cycles)
{
    uint64_t last_retired = retired_;
    uint64_t last_progress_cycle = cycle_;
    bool livelocked = false;
    // Fast-forward needs stats-pure gate prediction and an untouched
    // event stream: observers see per-cycle callbacks and fault
    // injectors consume per-cycle RNG draws, so either disables it.
    const bool may_fast_forward = params_.fast_forward &&
                                  !observer_ && !faults_ &&
                                  engine_->fastForwardSafe();
    while (!halted_ && cycle_ < max_cycles) {
        tick();
        if (retired_ != last_retired) {
            last_retired = retired_;
            last_progress_cycle = cycle_;
        } else if (params_.watchdog_cycles != 0 &&
                   cycle_ - last_progress_cycle >
                       params_.watchdog_cycles) {
            // Bounded-time livelock failure instead of spinning to
            // max_cycles; the caller (Simulator) reports the
            // termination reason and any diagnostics.
            livelocked = true;
            stats_.inc("watchdog.livelocks");
            break;
        }
        if (may_fast_forward && !halted_)
            tryFastForward(max_cycles, last_progress_cycle);
    }
    stats_.set("cycles", cycle_);
    stats_.set("instructions", retired_);
    publishDelayStats();
    return {cycle_, retired_, halted_, livelocked};
}

void
Core::publishDelayStats()
{
    // The per-gate delay totals go with the engine's counters (they
    // are properties of the protection scheme, not the core).
    StatSet &es = engine_->stats();
    es.set("delay.mem_cycles", delay_mem_cycles_);
    es.set("delay.branch_cycles", delay_branch_cycles_);
    es.set("delay.memorder_cycles", delay_memorder_cycles_);
    es.set("delay.total_cycles", delay_mem_cycles_ +
                                     delay_branch_cycles_ +
                                     delay_memorder_cycles_);
}

// --------------------------------------------------------------------
// Fast-forward (quiescent-cycle skipping)
// --------------------------------------------------------------------

bool
Core::quiescentCycle() const
{
    // A pure conjunction over tick()'s stages with stats-pure
    // queries only; a single stage that would change state makes
    // the cycle live. Quiescent state is frozen by construction:
    // every gate input (taint masks, at_vp, operand readiness) can
    // only change via the very stage activity this predicate rules
    // out, so a dead machine stays dead until a *timed* event
    // (completion, fetch wakeup) — exactly the wake set
    // tryFastForward computes. The conjuncts are ordered cheapest /
    // most-likely-live first so the predicate is O(1) on most live
    // cycles; conjunction order cannot change the verdict.

    // Fetch: an eligible fetch touches the I-cache and fetch queue.
    if (cycle_ >= fetch_stall_until_ &&
        fetch_queue_.size() < params_.fetch_queue_size &&
        program_.validPc(fetch_pc_))
        return false;
    // Commit: the ROB head must be blocked.
    if (!rob_.empty()) {
        const DynInst &f = *rob_.front();
        if (f.completed && !f.squash_pending &&
            !f.mem_violation_pending)
            return false;
    }
    // Rename: a ready, hazard-free fetch-queue head would rename.
    if (!fetch_queue_.empty()) {
        const FetchEntry &fe = fetch_queue_.front();
        if (fe.ready_cycle <= cycle_ &&
            renameHazardStat(*fe.inst) == nullptr)
            return false;
    }
    // Issue: any ready reservation-station entry would issue.
    if (!ready_.empty())
        return false;
    // Squash and memory gates (pure whenever fastForwardSafe
    // holds). A gate-open load counts as live even if the access
    // would be refused (MSHR full / dependence stalls mutate stats
    // and cache state).
    for (const DynInstPtr &d : squash_candidates_) {
        if (d->squash_pending && engine_->mayResolveBranch(*d))
            return false;
        if (d->mem_violation_pending &&
            engine_->maySquashMemViolation(*d))
            return false;
    }
    // A frozen memStage has found every memory gate closed, and
    // nothing it read has changed since.
    if (mem_frozen_epoch_ != gate_epoch_) {
        for (const DynInstPtr &st : sq_) {
            if (!st->addr_known || st->completed || st->squashed)
                continue;
            if (memGateOpen(*st))
                return false;
            break; // stores translate in order: only the first matters
        }
        for (const DynInstPtr &ld : waiting_loads_)
            if (memGateOpen(*ld))
                return false;
    }
    return engine_->quiescent();
}

void
Core::accrueSkippedCycles(uint64_t k)
{
    // Exactly the stat charges k blocked ticks would have made, in
    // bulk. Structured like tick(): squash gates, then the LSU, then
    // rename and fetch stalls.
    for (const DynInstPtr &d : squash_candidates_) {
        if (d->squash_pending)
            delay_branch_cycles_ += k;
        if (d->mem_violation_pending)
            delay_memorder_cycles_ += k;
    }
    for (const DynInstPtr &st : sq_) {
        if (!st->addr_known || st->completed || st->squashed)
            continue;
        delay_mem_cycles_ += k;
        break;
    }
    delay_mem_cycles_ += k * waiting_loads_.size();
    if (!fetch_queue_.empty()) {
        const FetchEntry &fe = fetch_queue_.front();
        if (fe.ready_cycle <= cycle_)
            if (const char *stat = renameHazardStat(*fe.inst))
                stats_.inc(stat, k);
    }
    if (cycle_ >= fetch_stall_until_ &&
        fetch_queue_.size() < params_.fetch_queue_size &&
        !program_.validPc(fetch_pc_))
        stats_.inc("fetch.invalid_pc_stalls", k);
    stats_.inc("ff.skipped_cycles", k);
}

void
Core::tryFastForward(uint64_t max_cycles,
                     uint64_t last_progress_cycle)
{
    // The wake cycle: the first future cycle whose tick may do real
    // work. max_cycles itself still ticks for real (matching the
    // run() loop bound), as does the watchdog-tripping cycle.
    uint64_t wake = max_cycles;
    if (!completions_.empty())
        wake = std::min(wake, completions_.front().cycle);
    if (fetch_stall_until_ > cycle_)
        wake = std::min(wake, fetch_stall_until_);
    if (!fetch_queue_.empty() &&
        fetch_queue_.front().ready_cycle > cycle_)
        wake = std::min(wake, fetch_queue_.front().ready_cycle);
    if (params_.watchdog_cycles != 0)
        wake = std::min(wake, last_progress_cycle +
                                  params_.watchdog_cycles + 1);
    if (wake <= cycle_ + 1)
        return; // nothing to skip
    if (!quiescentCycle())
        return;
    const uint64_t skipped = wake - 1 - cycle_;
    accrueSkippedCycles(skipped);
    cycle_ += skipped;
    stats_.inc("ff.windows");
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Core::fetchStage()
{
    if (halted_ || cycle_ < fetch_stall_until_)
        return;
    if (fetch_queue_.size() >= params_.fetch_queue_size)
        return;

    uint64_t pc = fetch_pc_;
    const unsigned line_bytes = memsys_.l1i().params().line_bytes;
    uint64_t cur_line = ~uint64_t{0};
    unsigned icache_latency = 0;

    for (unsigned count = 0; count < params_.fetch_width; ++count) {
        if (!program_.validPc(pc)) {
            // Wrong-path fetch ran off the program; wait for a
            // redirect.
            stats_.inc("fetch.invalid_pc_stalls");
            break;
        }
        const uint64_t line = pc * kInstrBytes / line_bytes;
        if (line != cur_line && !params_.perfect_icache) {
            const MemAccessResult res = memsys_.access(
                pc * kInstrBytes, AccessKind::kIfetch, cycle_);
            if (res.hit_level > 1) {
                // Miss: stall until the fill arrives, then refetch.
                fetch_stall_until_ = cycle_ + res.latency;
                stats_.inc("fetch.icache_miss_stalls");
                break;
            }
            cur_line = line;
            icache_latency = res.latency;
        }

        DynInstPtr d = inst_pool_.make();
        d->seq = next_seq_++;
        d->pc = pc;
        d->si = program_.at(pc);
        const OpTraits &t = opTraits(d->si.op);
        d->is_load = t.is_load;
        d->is_store = t.is_store;
        d->is_ctrl = t.is_cond_branch || t.is_jump;
        d->is_squash_source =
            t.is_cond_branch || d->si.op == Opcode::kJalr;
        d->has_dest = t.has_dest && d->si.rd != kRegZero;
        d->num_srcs = t.num_srcs;
        d->mem_bytes = t.mem_bytes;

        if (d->is_ctrl) {
            SPT_ASSERT(cp_tail_ - cp_head_ < checkpoints_.size(),
                       "checkpoint ring overflow");
            CheckpointSlot &slot = checkpointAt(cp_tail_++);
            slot.seq = d->seq;
            bpu_.checkpoint(slot.cp);
            const BranchPrediction p = bpu_.predict(pc, d->si);
            d->predicted_taken = p.taken;
            d->pred_next_pc = p.next_pc;
        } else {
            d->pred_next_pc = pc + 1;
        }

        fetch_queue_.push_back(
            {d, cycle_ + icache_latency + params_.frontend_extra_delay});
        stats_.inc("fetch.instructions");
        if (observer_)
            observer_->fetch(cycle_, *d);

        const uint64_t next = d->pred_next_pc;
        pc = next;
        if (d->is_ctrl && next != d->pc + 1) {
            // Redirected fetch resumes at the target next cycle.
            ++count;
            break;
        }
    }
    fetch_pc_ = pc;
}

// --------------------------------------------------------------------
// Rename + dispatch
// --------------------------------------------------------------------

const char *
Core::renameHazardStat(const DynInst &d) const
{
    // Check order matches the charge order below: the first failing
    // structural check is the one billed per stalled cycle.
    if (rob_.size() >= params_.rob_size)
        return "rename.rob_full";
    if (d.has_dest && !prf_.hasFree())
        return "rename.no_phys_regs";
    if (d.is_load && lq_.size() >= params_.lq_size)
        return "rename.lq_full";
    if (d.is_store && sq_.size() >= params_.sq_size)
        return "rename.sq_full";
    if (needsReservationStation(d) && rs_count_ >= params_.rs_size)
        return "rename.rs_full";
    return nullptr;
}

void
Core::renameDispatchStage()
{
    for (unsigned n = 0; n < params_.rename_width; ++n) {
        if (fetch_queue_.empty())
            break;
        FetchEntry &fe = fetch_queue_.front();
        if (fe.ready_cycle > cycle_)
            break;
        DynInstPtr d = fe.inst;

        // Structural hazards.
        if (const char *hazard = renameHazardStat(*d)) {
            stats_.inc(hazard);
            break;
        }
        const bool needs_rs = needsReservationStation(*d);

        // Rename.
        if (d->num_srcs >= 1)
            d->prs1 = rat_.lookup(d->si.rs1);
        if (d->num_srcs >= 2)
            d->prs2 = rat_.lookup(d->si.rs2);
        if (d->has_dest) {
            d->prev_prd = rat_.lookup(d->si.rd);
            d->prd = prf_.allocate();
            rat_.set(d->si.rd, d->prd);
        }
        if (observer_)
            observer_->rename(cycle_, *d);
        engine_->onRename(*d);

        // Dispatch.
        rob_.push_back(d);
        if (d->is_load) {
            lq_.push_back(d);
            if (auto wait = store_sets_.loadRenamed(d->pc))
                d->wait_store_seq = *wait;
        }
        if (d->is_store) {
            sq_.push_back(d);
            store_sets_.storeRenamed(d->pc, d->seq);
        }
        if (needs_rs) {
            ++rs_count_;
            // Wait on each distinct source that is not ready yet.
            if (d->num_srcs >= 1 && !prf_.ready(d->prs1)) {
                waiters_[d->prs1].push_back(d);
                ++d->waiting_srcs;
            }
            if (d->num_srcs >= 2 && d->prs2 != d->prs1 &&
                !prf_.ready(d->prs2)) {
                waiters_[d->prs2].push_back(d);
                ++d->waiting_srcs;
            }
            // Dispatch is in seq order, so a ready entry is the
            // youngest in the list.
            if (d->waiting_srcs == 0)
                ready_.push_back(d);
        } else {
            // NOP/HALT/plain JAL complete at dispatch.
            d->executed = true;
            d->completed = true;
            d->actual_next_pc = d->pred_next_pc;
        }
        fetch_queue_.pop_front();
        stats_.inc("rename.instructions");
    }
}

// --------------------------------------------------------------------
// Issue + execute scheduling
// --------------------------------------------------------------------

void
Core::issueStage()
{
    unsigned issue_width = params_.issue_width;
    if (faults_ && faults_->fire(FaultSite::kIssueJitter)) {
        // Scheduler jitter: nothing issues this cycle.
        issue_width = 0;
    }
    // The ready list is in seq order: the oldest ready entries issue.
    const std::size_t n =
        std::min<std::size_t>(issue_width, ready_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const DynInstPtr &d = ready_[i];
        d->issued = true;
        stats_.inc("issue.instructions");
        if (observer_)
            observer_->issue(cycle_, *d);

        const uint64_t rs1v = readOperand(d->prs1);
        const uint64_t rs2v = readOperand(d->prs2);
        d->exec = evaluateOp(d->si, d->pc, rs1v, rs2v);
        scheduleCompletion(cycle_ + execLatency(d->si), d);
    }
    ready_.erase(ready_.begin(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(n));
    rs_count_ -= static_cast<unsigned>(n);
}

// --------------------------------------------------------------------
// Writeback (completion events)
// --------------------------------------------------------------------

void
Core::writebackStage()
{
    while (!completions_.empty() &&
           completions_.front().cycle <= cycle_) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      laterEvent<CompletionEvent>);
        const DynInstPtr d = std::move(completions_.back().inst);
        completions_.pop_back();
        if (d->squashed)
            continue;
        completeInst(d);
    }
}

void
Core::completeInst(const DynInstPtr &d)
{
    if (d->isMem() && !d->addr_known) {
        // AGU completion: the virtual address (and store data) is now
        // known to the LSQ, before any memory access is performed.
        // The instruction joins the LSQ's waiting set, so a frozen
        // memStage must walk again.
        d->addr_known = true;
        d->eff_addr = d->exec.mem_addr;
        mem_frozen_epoch_ = 0;
        if (d->is_load)
            addWaitingLoad(d);
        if (d->is_store) {
            d->store_data = d->exec.value;
            d->executed = true;
            if (observer_)
                observer_->executed(cycle_, *d);
            checkViolationsFromStore(d);
        }
        return;
    }
    if (d->is_load) {
        completeLoadData(d);
        return;
    }

    // ALU / control completion.
    d->executed = true;
    d->completed = true;
    if (observer_)
        observer_->executed(cycle_, *d);
    if (d->has_dest) {
        d->result = d->exec.value;
        writeReg(d->prd, d->result);
    }
    if (d->is_ctrl) {
        d->actual_next_pc =
            d->exec.is_taken ? d->exec.target : d->pc + 1;
        if (d->actual_next_pc != d->pred_next_pc) {
            d->mispredicted = true;
            d->squash_pending = true;
            addSquashCandidate(d);
            stats_.inc("branch.mispredicts");
        } else {
            stats_.inc("branch.correct");
            if (faults_ && d->is_squash_source &&
                faults_->fire(FaultSite::kExtraSquash)) {
                // Forced squash of a correctly predicted branch:
                // refetches down the same (correct) path, so the
                // architectural result is unchanged. Restricted to
                // squash-source branches — the VP already treats
                // them as unresolved until squash_pending clears,
                // so no instruction past the VP is ever squashed.
                d->squash_pending = true;
                addSquashCandidate(d);
            }
        }
    }
}

} // namespace spt

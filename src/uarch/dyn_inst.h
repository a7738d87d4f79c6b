/**
 * @file
 * The in-flight dynamic instruction record shared by the fetch queue,
 * ROB, reservation station, LSQ and completion queue, and the
 * per-Core pool that recycles the records.
 */

#ifndef SPT_UARCH_DYN_INST_H
#define SPT_UARCH_DYN_INST_H

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "isa/instruction.h"
#include "isa/semantics.h"
#include "uarch/types.h"

namespace spt {

class DynInstPool;
class DynInstPtr;

struct DynInst {
    // --- identity ---------------------------------------------------
    SeqNum seq = 0;
    uint64_t pc = 0;
    Instruction si;

    // --- static classification (cached from traits) ------------------
    bool is_load = false;
    bool is_store = false;
    bool is_ctrl = false;         ///< any control flow
    bool is_squash_source = false;///< cond branch or JALR (can mispredict)
    bool has_dest = false;        ///< writes a (non-x0) register
    uint8_t num_srcs = 0;
    unsigned mem_bytes = 0;

    // --- rename ------------------------------------------------------
    PhysReg prd = kNoPhysReg;
    PhysReg prs1 = kNoPhysReg;
    PhysReg prs2 = kNoPhysReg;
    PhysReg prev_prd = kNoPhysReg;

    // --- pipeline status ----------------------------------------------
    bool issued = false;     ///< left the RS
    bool executed = false;   ///< result/outcome computed
    bool completed = false;  ///< commit-eligible
    bool squashed = false;
    /** Source registers this RS entry still waits on; a register
     *  named by both sources counts once. The entry joins the core's
     *  ready list when this reaches 0. */
    uint8_t waiting_srcs = 0;

    // --- control flow -------------------------------------------------
    // The pre-prediction predictor checkpoint of a control
    // instruction lives in the core's fetch-ordered checkpoint ring,
    // not here.
    bool predicted_taken = false;
    uint64_t pred_next_pc = 0;
    uint64_t actual_next_pc = 0;
    bool mispredicted = false;
    /** Resolution effects (redirect + squash) computed but deferred
     *  until the security policy allows them (implicit-channel rule). */
    bool squash_pending = false;

    // --- memory --------------------------------------------------------
    bool addr_known = false;   ///< virtual effective address computed
    uint64_t eff_addr = 0;
    uint64_t store_data = 0;   ///< store: data operand value
    bool access_done = false;  ///< memory access performed/forwarded
    bool forwarded = false;    ///< load: value came via STL forwarding
    SeqNum forwarding_store = 0;
    /** Load issued to memory while older store addresses were still
     *  unknown (memory-dependence speculation). */
    bool speculated_past_store = false;
    /** A store discovered this load read stale data; squash deferred
     *  until the policy allows it. */
    bool mem_violation_pending = false;
    /** pc of the store that flagged the violation (for store-set
     *  training when the squash is performed). */
    uint64_t violating_store_pc = 0;
    /** Store-set predicted dependence: wait until this store's
     *  address is known (0 = none). */
    SeqNum wait_store_seq = 0;
    /** Memo of the last mayAccessMemory verdict: gate_open holds
     *  while gate_epoch equals the core's gate epoch (0 = never
     *  asked). See Core::gateEpoch. */
    uint64_t gate_epoch = 0;
    bool gate_open = false;

    // --- execution ------------------------------------------------------
    ExecResult exec;
    uint64_t result = 0; ///< final dest value (after finishLoad)

    // --- security ---------------------------------------------------------
    /** Reached the visibility point (monotone until squash). */
    bool at_vp = false;
    /** Slot of this instruction's taint record in the security
     *  engine's ROB-parallel taint storage; assigned at rename,
     *  kNoTaintIdx while not renamed (or under engines that keep no
     *  per-instruction state). */
    uint32_t taint_idx = kNoTaintIdx;

    bool isMem() const { return is_load || is_store; }

  private:
    friend class DynInstPtr;
    friend class DynInstPool;
    uint32_t refs_ = 0;
    DynInstPool *pool_ = nullptr;
};

/**
 * Intrusive, non-atomic handle to a pooled DynInst. Copying one into
 * a pipeline structure costs a plain increment; the record returns to
 * its pool when the last handle drops, so a squashed instruction that
 * a pending completion event still names is never recycled under it.
 * Handles must not outlive the Core that owns the pool.
 */
class DynInstPtr
{
  public:
    DynInstPtr() = default;
    DynInstPtr(const DynInstPtr &o) noexcept : p_(o.p_) { acquire(); }
    DynInstPtr(DynInstPtr &&o) noexcept
        : p_(std::exchange(o.p_, nullptr))
    {
    }
    DynInstPtr &
    operator=(const DynInstPtr &o) noexcept
    {
        DynInstPtr(o).swap(*this);
        return *this;
    }
    DynInstPtr &
    operator=(DynInstPtr &&o) noexcept
    {
        DynInstPtr(std::move(o)).swap(*this);
        return *this;
    }
    ~DynInstPtr() { release(); }

    DynInst *get() const { return p_; }
    DynInst &operator*() const { return *p_; }
    DynInst *operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }
    friend bool
    operator==(const DynInstPtr &a, const DynInstPtr &b)
    {
        return a.p_ == b.p_;
    }
    void swap(DynInstPtr &o) noexcept { std::swap(p_, o.p_); }

  private:
    friend class DynInstPool;
    explicit DynInstPtr(DynInst *p) : p_(p) { acquire(); }
    void
    acquire() const
    {
        if (p_)
            ++p_->refs_;
    }
    inline void release();

    DynInst *p_ = nullptr;
};

/**
 * The records a Core's instructions come from. Storage only grows, to
 * the largest number of records alive at once (bounded by the ROB, the
 * fetch queue, and squashed instructions that a completion event or a
 * register's waiter list still names), so a warm core allocates
 * nothing per instruction.
 */
class DynInstPool
{
  public:
    DynInstPool() = default;
    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;

    /** A value-initialised record with one handle. */
    DynInstPtr
    make()
    {
        DynInst *d;
        if (free_.empty()) {
            d = &storage_.emplace_back();
        } else {
            d = free_.back();
            free_.pop_back();
            *d = DynInst{};
        }
        d->pool_ = this;
        return DynInstPtr(d);
    }

  private:
    friend class DynInstPtr;
    std::deque<DynInst> storage_; ///< stable addresses
    std::vector<DynInst *> free_;
};

inline void
DynInstPtr::release()
{
    if (p_ && --p_->refs_ == 0)
        p_->pool_->free_.push_back(p_);
}

} // namespace spt

#endif // SPT_UARCH_DYN_INST_H

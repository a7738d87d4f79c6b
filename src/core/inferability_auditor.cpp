#include "core/inferability_auditor.h"

#include <sstream>

namespace spt {

InferabilityAuditor::InferabilityAuditor(Core &core,
                                         SptEngine &engine)
    : core_(core), engine_(engine)
{
    // The zero register is public knowledge.
    known_regs_[PhysRegFile::kZeroReg] = 0;
}

void
InferabilityAuditor::learnReg(PhysReg reg, uint64_t value)
{
    if (reg != kNoPhysReg)
        known_regs_[reg] = value;
}

bool
InferabilityAuditor::knows(PhysReg reg) const
{
    return reg != kNoPhysReg && known_regs_.count(reg) > 0;
}

uint64_t
InferabilityAuditor::knownValue(PhysReg reg) const
{
    return known_regs_.at(reg);
}

bool
InferabilityAuditor::knowsBytes(uint64_t addr, unsigned n) const
{
    for (unsigned i = 0; i < n; ++i)
        if (!known_bytes_.count(addr + i))
            return false;
    return true;
}

uint64_t
InferabilityAuditor::knownBytes(uint64_t addr, unsigned n) const
{
    uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i)
        v |= static_cast<uint64_t>(known_bytes_.at(addr + i))
             << (8 * i);
    return v;
}

void
InferabilityAuditor::learnBytes(uint64_t addr, unsigned n,
                                uint64_t value)
{
    for (unsigned i = 0; i < n; ++i)
        known_bytes_[addr + i] =
            static_cast<uint8_t>(value >> (8 * i));
}

void
InferabilityAuditor::eraseBytes(uint64_t addr, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        known_bytes_.erase(addr + i);
}

/**
 * Applies committed-path stores to the attacker's memory knowledge,
 * in program order: a store with attacker-known address and data
 * publishes the bytes; any other store invalidates them (erasing
 * knowledge is always sound, so the ground-truth address may be
 * used for it).
 */
void
InferabilityAuditor::processStores()
{
    for (const DynInstPtr &st : core_.storeQueue()) {
        if (st->squashed || !st->at_vp || !st->addr_known)
            continue;
        if (stores_processed_.count(st->seq))
            continue;
        stores_processed_.insert(st->seq);
        if (knows(st->prs1) && knows(st->prs2))
            learnBytes(st->eff_addr, st->mem_bytes,
                       knownValue(st->prs2));
        else
            eraseBytes(st->eff_addr, st->mem_bytes);
    }
}

void
InferabilityAuditor::flag(uint64_t pc, SeqNum seq,
                          const Instruction &si,
                          const std::string &what)
{
    ++violations_;
    std::ostringstream os;
    os << "cycle " << core_.cycle() << " pc " << pc << " seq " << seq
       << " (" << toString(si) << "): " << what;
    log_.push_back(os.str());
}

void
InferabilityAuditor::dropStaleKnowledge()
{
    // A physical register being re-produced by an in-flight
    // instruction (not yet ready) no longer holds the value the
    // attacker learned; forget it until re-derived.
    for (const DynInstPtr &d : core_.rob()) {
        if (d->squashed || !d->has_dest)
            continue;
        if (!core_.physRegs().ready(d->prd)) {
            known_regs_.erase(d->prd);
            // Close audits of the previous generation of this
            // physical register: their value is gone.
            std::erase_if(pending_, [&](const Pending &p) {
                if (p.reg != d->prd || p.seq == d->seq)
                    return false;
                ++window_closed_;
                return true;
            });
        }
    }
}

void
InferabilityAuditor::seedKnowledge()
{
    PhysRegFile &prf = core_.physRegs();
    for (const DynInstPtr &d : core_.rob()) {
        if (d->squashed)
            continue;
        const auto *t = engine_.instTaint(d->seq);
        // Declassified transmitter/branch operands leak their
        // values non-speculatively.
        if (t && t->declassified) {
            if (d->num_srcs >= 1 && prf.ready(d->prs1) &&
                (d->isMem() || d->is_ctrl))
                learnReg(d->prs1, prf.value(d->prs1));
            if (d->num_srcs >= 2 && d->is_ctrl &&
                prf.ready(d->prs2))
                learnReg(d->prs2, prf.value(d->prs2));
        }
        // Immediate-class outputs are program text (Section 6.5).
        if (d->has_dest &&
            opTraits(d->si.op).untaint_class ==
                UntaintClass::kImmediate &&
            prf.ready(d->prd))
            learnReg(d->prd, prf.value(d->prd));
    }
}

bool
InferabilityAuditor::propagateOnce()
{
    PhysRegFile &prf = core_.physRegs();
    bool changed = false;
    for (const DynInstPtr &d : core_.rob()) {
        if (d->squashed)
            continue;
        const OpTraits &traits = opTraits(d->si.op);

        // Forward: compute outputs of pure ops from known inputs.
        if (d->has_dest && !d->is_load && !knows(d->prd)) {
            const bool in0 = d->num_srcs < 1 || knows(d->prs1);
            const bool in1 = d->num_srcs < 2 || knows(d->prs2);
            if (in0 && in1) {
                const uint64_t a =
                    d->num_srcs >= 1 ? knownValue(d->prs1) : 0;
                const uint64_t b =
                    d->num_srcs >= 2 ? knownValue(d->prs2) : 0;
                learnReg(d->prd,
                         evaluateOp(d->si, d->pc, a, b).value);
                changed = true;
            }
        }

        // Backward: invert MOV/ADD/SUB/XOR-class ops.
        if (d->has_dest && knows(d->prd) &&
            traits.untaint_class != UntaintClass::kOpaque &&
            !d->is_load) {
            const uint64_t out = knownValue(d->prd);
            const uint64_t imm =
                static_cast<uint64_t>(d->si.imm);
            auto learn_src = [&](PhysReg reg, uint64_t value) {
                if (!knows(reg)) {
                    learnReg(reg, value);
                    changed = true;
                }
            };
            switch (d->si.op) {
              case Opcode::kMov:
                learn_src(d->prs1, out);
                break;
              case Opcode::kNot:
                learn_src(d->prs1, ~out);
                break;
              case Opcode::kNeg:
                learn_src(d->prs1, static_cast<uint64_t>(
                                       -static_cast<int64_t>(out)));
                break;
              case Opcode::kAddi:
                learn_src(d->prs1, out - imm);
                break;
              case Opcode::kXori:
                learn_src(d->prs1, out ^ imm);
                break;
              case Opcode::kAdd:
                if (knows(d->prs1))
                    learn_src(d->prs2, out - knownValue(d->prs1));
                else if (knows(d->prs2))
                    learn_src(d->prs1, out - knownValue(d->prs2));
                break;
              case Opcode::kSub:
                if (knows(d->prs1))
                    learn_src(d->prs2, knownValue(d->prs1) - out);
                else if (knows(d->prs2))
                    learn_src(d->prs1, out + knownValue(d->prs2));
                break;
              case Opcode::kXor:
                if (knows(d->prs1))
                    learn_src(d->prs2, out ^ knownValue(d->prs1));
                else if (knows(d->prs2))
                    learn_src(d->prs1, out ^ knownValue(d->prs2));
                break;
              default:
                break;
            }
        }

        // Store-to-load forwarding with a known store value: the
        // engine only propagates untaint when STLPublic holds, i.e.
        // the attacker knows the pair; model the value flow.
        if (d->is_load && d->forwarded && !knows(d->prd)) {
            const DynInst *st = core_.findInst(d->forwarding_store);
            if (st && st->addr_known && knows(st->prs2)) {
                const uint64_t raw =
                    knownValue(st->prs2) >>
                    (8 * (d->eff_addr - st->eff_addr));
                learnReg(d->prd, finishLoad(d->si.op, raw));
                changed = true;
            }
        }

        // Memory: a load with an attacker-known address reads
        // attacker-known bytes (the ROB is public, so the attacker
        // sees which access happened); dually, a non-speculative
        // load with a known output reveals the bytes it read (the
        // shadow rules of Section 6.8, justified by Lemma 1).
        if (d->is_load && d->access_done && !d->forwarded &&
            knows(d->prs1)) {
            if (!knows(d->prd) &&
                !load_mem_checked_.count(d->seq)) {
                // One shot, at access time: byte knowledge is only
                // guaranteed fresh before younger stores land.
                load_mem_checked_.insert(d->seq);
                if (knowsBytes(d->eff_addr, d->mem_bytes)) {
                    learnReg(d->prd,
                             finishLoad(d->si.op,
                                        knownBytes(d->eff_addr,
                                                   d->mem_bytes)));
                    changed = true;
                }
            } else if (d->at_vp && knows(d->prd) &&
                       prf.ready(d->prd) &&
                       !knowsBytes(d->eff_addr, d->mem_bytes)) {
                learnBytes(d->eff_addr, d->mem_bytes,
                           core_.memory().read(d->eff_addr,
                                               d->mem_bytes));
                changed = true;
            }
        }
    }
    return changed;
}

void
InferabilityAuditor::auditUntaints()
{
    PhysRegFile &prf = core_.physRegs();
    for (const DynInstPtr &d : core_.rob()) {
        if (d->squashed)
            continue;
        const auto *t = engine_.instTaint(d->seq);
        if (!t)
            continue;
        // Untaints through store-to-load forwarding are out of the
        // auditor's model (it has no STLPublic reasoning); account
        // for the skip instead of dropping the event silently.
        if (t->stl_untaint && skip_seq_.insert(d->seq).second) {
            ++stl_skipped_;
            ++observed_;
            engine_.stats().inc("audit.stl_skipped");
        }
        if (skip_seq_.count(d->seq))
            continue;
        // Queue the destination slot once it is fully untainted and
        // architecturally ready; derivation inputs may lag by a few
        // cycles, so the verdict is deferred.
        if (!d->has_dest || t->dest.any() || !prf.ready(d->prd))
            continue;
        if (audited_slots_.count(d->seq))
            continue;
        audited_slots_.insert(d->seq);
        ++observed_;
        pending_.push_back({d->seq, d->pc, d->si, d->prd,
                            prf.value(d->prd),
                            core_.cycle() + 200});
    }
}

void
InferabilityAuditor::resolvePending()
{
    std::erase_if(pending_, [this](const Pending &p) {
        if (knows(p.reg)) {
            ++audited_;
            if (knownValue(p.reg) != p.expected) {
                ++mismatches_;
                std::ostringstream os;
                os << "attacker derived " << knownValue(p.reg)
                   << " but the register held " << p.expected;
                flag(p.pc, p.seq, p.si, os.str());
            }
            return true;
        }
        if (core_.cycle() > p.deadline) {
            ++audited_;
            flag(p.pc, p.seq, p.si,
                 "untainted destination not derivable by the "
                 "attacker within the deadline");
            return true;
        }
        return false;
    });
}

void
InferabilityAuditor::tick()
{
    dropStaleKnowledge();
    seedKnowledge();
    // Small in-flight graphs converge in a handful of passes.
    for (int i = 0; i < 8 && propagateOnce(); ++i) {
    }
    processStores();
    auditUntaints();
    resolvePending();
}

void
InferabilityAuditor::finalize()
{
    for (const Pending &p : pending_) {
        ++audited_;
        flag(p.pc, p.seq, p.si,
             "untainted destination never derived by the end of "
             "the run");
    }
    pending_.clear();
}

} // namespace spt

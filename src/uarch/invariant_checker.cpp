#include "uarch/invariant_checker.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "uarch/core.h"

namespace spt {

namespace {

enum EventKind : uint8_t {
    kEvRename,
    kEvIssue,
    kEvExecuted,
    kEvMemAccess,
    kEvVp,
    kEvRetired,
    kEvSquashed,
    kEvTaint,
    kEvGate,
};

const char *
eventKindName(uint8_t kind)
{
    switch (kind) {
      case kEvRename:    return "rename";
      case kEvIssue:     return "issue";
      case kEvExecuted:  return "executed";
      case kEvMemAccess: return "mem-access";
      case kEvVp:        return "vp";
      case kEvRetired:   return "retired";
      case kEvSquashed:  return "squashed";
      case kEvTaint:     return "taint";
      case kEvGate:      return "gate-open";
    }
    return "?";
}

std::string
instLine(const DynInst &d)
{
    std::ostringstream os;
    os << "seq=" << d.seq << " pc=" << d.pc << " `"
       << toString(d.si) << "`";
    if (d.issued)
        os << " issued";
    if (d.executed)
        os << " executed";
    if (d.completed)
        os << " completed";
    if (d.at_vp)
        os << " at_vp";
    if (d.squash_pending)
        os << " squash_pending";
    if (d.mem_violation_pending)
        os << " mem_violation_pending";
    if (d.squashed)
        os << " squashed";
    return os.str();
}

std::vector<std::string>
robDump(const Core &core, std::size_t cap = 64)
{
    std::vector<std::string> lines;
    for (const DynInstPtr &d : core.rob()) {
        if (lines.size() >= cap) {
            lines.push_back("... (" +
                            std::to_string(core.rob().size() - cap) +
                            " more)");
            break;
        }
        lines.push_back(instLine(*d));
    }
    return lines;
}

} // namespace

// --------------------------------------------------------------------
// DiagnosticReport
// --------------------------------------------------------------------

void
DiagnosticReport::toJson(JsonWriter &jw) const
{
    jw.beginObject();
    jw.field("kind", kind);
    jw.field("message", message);
    jw.field("cycle", cycle);
    jw.field("seq", static_cast<uint64_t>(seq));
    jw.field("pc", pc);
    jw.key("rob").beginArray();
    for (const std::string &line : rob)
        jw.value(line);
    jw.endArray();
    jw.key("events").beginArray();
    for (const std::string &line : events)
        jw.value(line);
    jw.endArray();
    jw.key("engine_counters").beginObject();
    for (const auto &[name, value] : engine_counters)
        jw.field(name, value);
    jw.endObject();
    jw.endObject();
}

// --------------------------------------------------------------------
// InvariantChecker
// --------------------------------------------------------------------

InvariantChecker::InvariantChecker(Core &core) : core_(core)
{
    ring_.reserve(kEventRing);
}

void
InvariantChecker::record(uint64_t cycle, uint8_t kind,
                         const DynInst &d)
{
    const Event ev{cycle, kind, d.seq, d.pc};
    if (ring_.size() < kEventRing) {
        ring_.push_back(ev);
    } else {
        ring_[ring_next_] = ev;
        ring_next_ = (ring_next_ + 1) % kEventRing;
    }
}

std::vector<std::string>
InvariantChecker::eventLines() const
{
    std::vector<std::string> lines;
    lines.reserve(ring_.size());
    const std::size_t n = ring_.size();
    const std::size_t start = n < kEventRing ? 0 : ring_next_;
    for (std::size_t i = 0; i < n; ++i) {
        const Event &ev = ring_[(start + i) % kEventRing];
        std::ostringstream os;
        os << "cycle=" << ev.cycle << " "
           << eventKindName(ev.kind) << " seq=" << ev.seq
           << " pc=" << ev.pc;
        lines.push_back(os.str());
    }
    return lines;
}

void
InvariantChecker::violation(const char *kind, std::string message,
                            uint64_t cycle, const DynInst *d)
{
    ++violations_;
    if (reports_.size() >= kMaxReports)
        return;
    DiagnosticReport rep;
    rep.kind = kind;
    rep.message = std::move(message);
    rep.cycle = cycle;
    if (d) {
        rep.seq = d->seq;
        rep.pc = d->pc;
    }
    rep.rob = robDump(core_);
    rep.events = eventLines();
    core_.publishDelayStats();
    rep.engine_counters = core_.engine().stats().counters();
    reports_.push_back(std::move(rep));
}

void
InvariantChecker::rename(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvRename, d);
}

void
InvariantChecker::issue(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvIssue, d);
}

void
InvariantChecker::executed(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvExecuted, d);
}

void
InvariantChecker::reachedVp(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvVp, d);
}

void
InvariantChecker::squashed(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvSquashed, d);
}

void
InvariantChecker::checkTransmit(uint64_t cycle, const DynInst &d,
                                DelayKind kind, const char *what)
{
    if (core_.engine().transmitPublic(d, kind))
        return;
    std::ostringstream os;
    os << what << " `" << toString(d.si) << "` (seq " << d.seq
       << ", pc " << d.pc
       << ") proceeded while its operands are non-public under "
       << core_.engine().name();
    violation("tainted-transmitter", os.str(), cycle, &d);
}

void
InvariantChecker::memAccess(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvMemAccess, d);
    checkTransmit(cycle, d, DelayKind::kMemAccess,
                  d.is_load ? "load" : "store");
}

void
InvariantChecker::gateOpened(uint64_t cycle, const DynInst &d,
                             DelayKind kind)
{
    record(cycle, kEvGate, d);
    // kMemAccess gate openings are immediately followed by the
    // memAccess hook, which performs the check; avoid double counting.
    if (kind == DelayKind::kBranchResolve)
        checkTransmit(cycle, d, kind, "branch resolution of");
    else if (kind == DelayKind::kMemOrderSquash)
        checkTransmit(cycle, d, kind, "memory-order squash of");
}

void
InvariantChecker::retired(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvRetired, d);
    if (d.seq <= last_retired_seq_) {
        std::ostringstream os;
        os << "commit order broken: seq " << d.seq
           << " retired after seq " << last_retired_seq_;
        violation("commit-order", os.str(), cycle, &d);
    }
    last_retired_seq_ = std::max(last_retired_seq_, d.seq);
}

void
InvariantChecker::taintEvent(uint64_t cycle, TaintEvent ev,
                             const DynInst &d, uint8_t /*slot*/)
{
    record(cycle, kEvTaint, d);
    if (ev != TaintEvent::kTaintedAtRename)
        ++observed_untaints_;
}

void
InvariantChecker::checkStructure(uint64_t cycle)
{
    const CoreParams &p = core_.params();
    const auto &rob = core_.rob();

    if (rob.size() > p.rob_size)
        violation("rob-overflow",
                  "ROB holds " + std::to_string(rob.size()) +
                      " > capacity " + std::to_string(p.rob_size),
                  cycle, nullptr);
    SeqNum prev = 0;
    for (const DynInstPtr &d : rob) {
        if (d->seq <= prev) {
            violation("rob-order",
                      "ROB seq not strictly increasing at seq " +
                          std::to_string(d->seq),
                      cycle, d.get());
            break;
        }
        prev = d->seq;
        if (!core_.engine().taintStateConsistent(*d)) {
            std::ostringstream os;
            os << "engine taint slot of seq " << d->seq
               << " does not resolve to its instruction";
            violation("taint-index", os.str(), cycle, d.get());
        }
    }

    const auto in_rob = [&rob](const DynInstPtr &d) {
        const auto it = std::lower_bound(
            rob.begin(), rob.end(), d->seq,
            [](const DynInstPtr &e, SeqNum s) { return e->seq < s; });
        return it != rob.end() && (*it)->seq == d->seq &&
               it->get() == d.get();
    };
    const auto checkQueue = [&](const Ring<DynInstPtr> &q,
                                unsigned cap, const char *name) {
        if (q.size() > cap)
            violation("lsq-overflow",
                      std::string(name) + " holds " +
                          std::to_string(q.size()) + " > capacity " +
                          std::to_string(cap),
                      cycle, nullptr);
        for (const DynInstPtr &d : q) {
            if (d->squashed || !in_rob(d)) {
                violation("lsq-orphan",
                          std::string(name) + " entry seq " +
                              std::to_string(d->seq) +
                              " is squashed or not in the ROB",
                          cycle, d.get());
                break;
            }
        }
        // The memo is trusted only while its epoch is current: ask
        // the gate again and compare.
        for (const DynInstPtr &d : q) {
            if (d->gate_epoch != core_.gateEpoch() ||
                core_.engine().mayAccessMemory(*d) == d->gate_open)
                continue;
            std::ostringstream os;
            os << name << " entry seq " << d->seq
               << " memoised mayAccessMemory=" << d->gate_open
               << " at the current gate epoch, but the gate now says "
               << !d->gate_open;
            violation("gate-memo", os.str(), cycle, d.get());
        }
    };
    checkQueue(core_.loadQueue(), p.lq_size, "LQ");
    checkQueue(core_.storeQueue(), p.sq_size, "SQ");
    checkVpPrefix(cycle);
    checkWaitingLoads(cycle);

    const uint64_t occupancy =
        core_.engine().broadcastQueueOccupancy();
    const uint64_t bound = 3 * static_cast<uint64_t>(p.rob_size);
    if (occupancy > bound)
        violation("broadcast-unbounded",
                  "broadcast queue holds " +
                      std::to_string(occupancy) +
                      " flags > bound " + std::to_string(bound),
                  cycle, nullptr);
}

void
InvariantChecker::checkVpPrefix(uint64_t cycle)
{
    // The head-to-tail walk the VP cursor replaces: at_vp must hold
    // up to and including the first VP blocker, and nowhere after it.
    bool blocked = false;
    for (const DynInstPtr &d : core_.rob()) {
        if (d->at_vp == !blocked) {
            blocked = blocked || core_.blocksVp(*d);
            continue;
        }
        std::ostringstream os;
        os << "seq " << d->seq << " has at_vp=" << d->at_vp
           << ", but a head-to-tail VP walk under the "
           << (core_.attackModel() == AttackModel::kSpectre
                   ? "spectre"
                   : "futuristic")
           << " model gives " << !blocked;
        violation("vp-prefix", os.str(), cycle, d.get());
        return;
    }
}

void
InvariantChecker::checkWaitingLoads(uint64_t cycle)
{
    // The waiting list must be exactly the LQ entries memStage gates,
    // in seq order.
    const std::vector<DynInstPtr> &waiting = core_.waitingLoads();
    std::size_t w = 0;
    for (const DynInstPtr &ld : core_.loadQueue()) {
        if (!ld->addr_known || ld->access_done)
            continue;
        if (w < waiting.size() && waiting[w] == ld) {
            ++w;
            continue;
        }
        violation("lq-waiting",
                  "LQ entry seq " + std::to_string(ld->seq) +
                      " has a known address and no access, but is not "
                      "next on the waiting-load list",
                  cycle, ld.get());
        return;
    }
    if (w != waiting.size())
        violation("lq-waiting",
                  "waiting-load list entry seq " +
                      std::to_string(waiting[w]->seq) +
                      " is not an LQ entry with a known address and "
                      "no access",
                  cycle, waiting[w].get());
}

void
InvariantChecker::cycleEnd(uint64_t cycle)
{
    checkStructure(cycle);
}

void
InvariantChecker::finish(uint64_t final_cycle)
{
    const uint64_t counted =
        core_.engine().stats().get("untaint.events");
    if (counted != observed_untaints_) {
        std::ostringstream os;
        os << "taint conservation broken: engine counted " << counted
           << " untaint events, observer saw " << observed_untaints_;
        violation("untaint-conservation", os.str(), final_cycle,
                  nullptr);
    }
}

DiagnosticReport
InvariantChecker::livelockReport(Core &core, uint64_t cycle,
                                 const InvariantChecker *checker)
{
    DiagnosticReport rep;
    rep.kind = "livelock";
    rep.message = "no instruction committed within the core retire "
                  "watchdog interval";
    rep.cycle = cycle;
    rep.rob = robDump(core);
    if (checker)
        rep.events = checker->eventLines();
    rep.engine_counters = core.engine().stats().counters();
    return rep;
}

} // namespace spt

/**
 * @file
 * Runtime machine-wide invariant checker, attached through the
 * PipelineObserver mux. Observes only — it never mutates simulated
 * state, so golden untaint.* counters are bit-identical with the
 * checker on (pinned by tests/test_fault_injection.cpp).
 *
 * Invariant catalogue (DESIGN.md §11):
 *  - commit order: retired seq numbers strictly increase;
 *  - no tainted transmitter: at every gate opening (memory access,
 *    branch resolution, memory-order squash) the engine's
 *    ground-truth claim `transmitPublic` must hold — this is the
 *    paper's core security property, checked against the *claim*,
 *    not the (possibly mutation-seeded) policy gate;
 *  - taint conservation: observed untaint events must equal the
 *    engine's own `untaint.events` counter at the end of the run;
 *  - structural consistency, every cycle: ROB within capacity and
 *    seq-sorted, LQ/SQ within capacity and subsets of the ROB,
 *    engine taint slots resolve to their owning instruction
 *    (SecurityEngine::taintStateConsistent), and the broadcast
 *    queue is bounded by 3 flags per ROB entry;
 *  - gate memo, every cycle: each LQ/SQ entry whose memoised
 *    mayAccessMemory verdict is current (DynInst::gate_epoch equals
 *    Core::gateEpoch) gets the same verdict when the gate is asked
 *    again — the core's epoch bumps cover every gate input change;
 *  - VP prefix, every cycle: the ROB's at_vp flags are what a
 *    head-to-tail walk gives under the run's attack model (set up to
 *    and including the first Core::blocksVp instruction, clear after
 *    it), which the core's VP cursor must reproduce;
 *  - waiting loads, every cycle: Core::waitingLoads is exactly the
 *    LQ entries with a known address and no access started, in seq
 *    order.
 *
 * On violation the checker records a structured DiagnosticReport
 * (machine dump, the engine counters including the core's delay.*
 * totals so far, and the last 64 pipeline events) instead of
 * aborting;
 * the run continues so a campaign can count every violation, and
 * sweeps classify the outcome afterwards (RunStatus::kViolation).
 *
 * Forward progress is not checked here: the core's retire watchdog
 * (CoreParams::watchdog_cycles) is the one livelock detector, and
 * livelockReport() turns its verdict into a report that carries
 * this checker's event history.
 */

#ifndef SPT_UARCH_INVARIANT_CHECKER_H
#define SPT_UARCH_INVARIANT_CHECKER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "uarch/pipeline_observer.h"
#include "uarch/types.h"

namespace spt {

class Core;
class JsonWriter;

/** A structured post-mortem: what failed, where the machine was,
 *  and the recent event history leading up to it. */
struct DiagnosticReport {
    std::string kind;    ///< "livelock", "tainted-transmitter", ...
    std::string message; ///< one-line specifics
    uint64_t cycle = 0;
    SeqNum seq = 0; ///< offending instruction, 0 if machine-wide
    uint64_t pc = 0;
    std::vector<std::string> rob;    ///< head of the ROB, one line each
    std::vector<std::string> events; ///< last <= 64 pipeline events
    std::map<std::string, uint64_t> engine_counters;

    void toJson(JsonWriter &jw) const;
};

class InvariantChecker : public PipelineObserver
{
  public:
    /** Reports kept; violations past the cap are only counted. */
    static constexpr std::size_t kMaxReports = 8;

    explicit InvariantChecker(Core &core);

    // --- PipelineObserver ---------------------------------------------
    void rename(uint64_t cycle, const DynInst &d) override;
    void issue(uint64_t cycle, const DynInst &d) override;
    void executed(uint64_t cycle, const DynInst &d) override;
    void memAccess(uint64_t cycle, const DynInst &d) override;
    void reachedVp(uint64_t cycle, const DynInst &d) override;
    void retired(uint64_t cycle, const DynInst &d) override;
    void squashed(uint64_t cycle, const DynInst &d) override;
    void taintEvent(uint64_t cycle, TaintEvent ev, const DynInst &d,
                    uint8_t slot) override;
    void gateOpened(uint64_t cycle, const DynInst &d,
                    DelayKind kind) override;
    void cycleEnd(uint64_t cycle) override;

    /** End-of-run checks (taint conservation); call after the core
     *  stops, before reading verdicts. */
    void finish(uint64_t final_cycle);

    /** Broken invariants — what sweeps classify as
     *  RunStatus::kViolation. A run that merely stalled is a
     *  livelock, which the core's watchdog reports. */
    uint64_t violations() const { return violations_; }
    const std::vector<DiagnosticReport> &reports() const
    {
        return reports_;
    }

    /** Machine dump for a livelock detected by the core's retire
     *  watchdog; carries @p checker's event history when one is
     *  attached (nullptr otherwise). */
    static DiagnosticReport
    livelockReport(Core &core, uint64_t cycle,
                   const InvariantChecker *checker);

  private:
    struct Event {
        uint64_t cycle;
        uint8_t kind;
        SeqNum seq;
        uint64_t pc;
    };
    static constexpr std::size_t kEventRing = 64;

    Core &core_;

    uint64_t violations_ = 0;
    std::vector<DiagnosticReport> reports_;

    SeqNum last_retired_seq_ = 0;
    uint64_t observed_untaints_ = 0;

    std::vector<Event> ring_;
    std::size_t ring_next_ = 0;

    void record(uint64_t cycle, uint8_t kind, const DynInst &d);
    void checkTransmit(uint64_t cycle, const DynInst &d,
                       DelayKind kind, const char *what);
    void checkStructure(uint64_t cycle);
    void checkVpPrefix(uint64_t cycle);
    void checkWaitingLoads(uint64_t cycle);
    void violation(const char *kind, std::string message,
                   uint64_t cycle, const DynInst *d);
    std::vector<std::string> eventLines() const;
};

} // namespace spt

#endif // SPT_UARCH_INVARIANT_CHECKER_H

/**
 * @file
 * Top-level simulation driver: builds a Core from a SimConfig, runs
 * a program to completion, optionally lockstep-checks every commit
 * against the functional reference CPU, and gathers all statistics
 * (the equivalent of gem5's stats.txt).
 *
 * Threading contract (relied on by sim/exp_runner.h): one Simulator
 * per thread, no shared mutable state. A Simulator owns its entire
 * machine (core, memory system, engine, reference CPU) and only
 * reads the Program it was given; concurrent Simulators over the
 * same const Program are race-free. The only process-global state
 * reachable from run() is the logging verbose flag (atomic, see
 * logging.h) and the lazily-built workload registries (immutable
 * after magic-static initialization). Audited for PR 3; keep new
 * code free of mutable statics on the run() path.
 */

#ifndef SPT_SIM_SIMULATOR_H
#define SPT_SIM_SIMULATOR_H

#include <memory>
#include <ostream>
#include <string>

#include "isa/functional_cpu.h"
#include "sim/profile.h"
#include "sim/sim_config.h"
#include "sim/trace.h"

namespace spt {

class JsonWriter;
class InvariantChecker;

/** Why run() returned. */
enum class Termination : uint8_t {
    kHalted,      ///< the program's HALT committed
    kMaxCycles,   ///< the cycle budget elapsed
    kLivelock,    ///< retire-progress watchdog tripped
};

const char *terminationName(Termination t);

struct SimResult {
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    bool halted = false;
    double ipc = 0.0;
    Termination termination = Termination::kMaxCycles;
};

class Simulator
{
  public:
    Simulator(const Program &program, const SimConfig &config);
    ~Simulator();

    /** Runs until HALT (or max_cycles); may be called once. */
    SimResult run();

    /**
     * Streams the taint-lifecycle trace of the run into @p text
     * (human-readable events) and/or @p pipeview (gem5-O3PipeView
     * form, Konata-compatible); either may be null. Must be called
     * before run(); the streams must outlive it.
     */
    void enableTrace(std::ostream *text, std::ostream *pipeview);

    /** Non-null after run() iff config.faults has a nonzero rate. */
    const FaultInjector *faults() const { return injector_.get(); }
    /** Non-null after run() iff config.invariants was set. */
    const InvariantChecker *invariants() const
    {
        return checker_.get();
    }
    /** Structured DiagnosticReports as a JSON array: the checker's
     *  reports, then a livelock report when the core watchdog
     *  tripped; the literal "[]" when there is nothing to report. */
    std::string diagnosticsJson() const;

    /** Non-null after run() iff config.profile was set. */
    const DelayProfiler *profiler() const { return profiler_.get(); }
    /** Non-null after run() iff config.interval_stats > 0. */
    const IntervalRecorder *intervals() const
    {
        return intervals_.get();
    }

    Core &core() { return *core_; }
    const SimConfig &config() const { return config_; }

    /** Dumps every component's statistics ("stats.txt"). */
    void dumpStats(std::ostream &os) const;

    /** The same statistics as one JSON document ("stats.json"),
     *  reusing StatSet::dumpJson — no second serializer. */
    void dumpStatsJson(JsonWriter &jw) const;

    /** Counter lookup across components, e.g. "core.cycles",
     *  "engine.untaint.forward", "mem.l1_hits". */
    uint64_t stat(const std::string &name) const;

  private:
    const Program &program_;
    SimConfig config_;
    std::unique_ptr<Core> core_;
    std::unique_ptr<FunctionalCpu> reference_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<DelayProfiler> profiler_;
    std::unique_ptr<IntervalRecorder> intervals_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<InvariantChecker> checker_;
    ObserverMux observers_;
    bool ran_ = false;
    bool livelocked_ = false;
};

/** Convenience: run @p program under @p engine_cfg / @p model and
 *  return the result (used by benches and examples). */
SimResult runProgram(const Program &program,
                     const EngineConfig &engine_cfg,
                     AttackModel model,
                     uint64_t max_cycles = 500'000'000);

} // namespace spt

#endif // SPT_SIM_SIMULATOR_H

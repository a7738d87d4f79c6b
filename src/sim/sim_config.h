/**
 * @file
 * Simulation configuration: Table 1 (machine parameters) defaults
 * and the Table 2 design-variant factory.
 */

#ifndef SPT_SIM_SIM_CONFIG_H
#define SPT_SIM_SIM_CONFIG_H

#include <string>
#include <vector>

#include "core/engine_factory.h"
#include "mem/memory_system.h"
#include "sim/fault_injector.h"
#include "uarch/core.h"

namespace spt {

struct SimConfig {
    CoreParams core;              ///< Table 1 pipeline parameters
    MemorySystemParams mem;       ///< Table 1 cache/NoC/DRAM
    EngineConfig engine;          ///< Table 2 protection variant
    uint64_t max_cycles = 500'000'000;
    /** Compare every commit against the functional reference CPU. */
    bool lockstep_check = false;
    /** Attribute every delayed-transmitter cycle to a cause, keyed
     *  by PC (sim/profile.h). Off by default: the observer hooks are
     *  a single null-pointer test when no observer is installed. */
    bool profile = false;
    /** Snapshot IPC / delay / taint-population metrics every N
     *  cycles; 0 disables interval recording. */
    uint64_t interval_stats = 0;
    /** Seeded timing-fault schedule (sim/fault_injector.h); all
     *  rates zero (the default) means no injection. */
    FaultPlan faults;
    /** Attach the runtime InvariantChecker
     *  (uarch/invariant_checker.h). Observer-only — simulated state
     *  and untaint counters are unchanged; results gain violation
     *  verdicts and diagnostics. */
    bool invariants = false;
};

/** A named Table-2 design variant. */
struct NamedConfig {
    std::string name;
    EngineConfig engine;
};

/** The seven design variants of Table 2, in the paper's order. */
std::vector<NamedConfig> table2Configs();

} // namespace spt

#endif // SPT_SIM_SIM_CONFIG_H

/**
 * @file
 * Differential soundness harness: runs a program under the dynamic
 * `SptEngine` while checking every static knowledge claim from
 * `KnowledgeAnalysis` against the engine's taint state at retire.
 *
 * The contract (see knowledge_analysis.h): a kRobust claim says the
 * operand's justifying declassifications are all program-order-older
 * VP events, so under `UntaintMethod::kIdeal` the dynamic engine
 * must have untainted the operand by the time the reader commits. A
 * robust claim the engine denies is a bug in one of the two sides —
 * the harness reports it like an `InferabilityAuditor` violation.
 * kWindowed claims carry no retire-time guarantee (their untaint may
 * land only while the producer is in flight); their denial rate is
 * reported as a precision/timing gap metric, never asserted.
 */

#ifndef SPT_ANALYSIS_DIFFERENTIAL_H
#define SPT_ANALYSIS_DIFFERENTIAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/knowledge_analysis.h"
#include "core/spt_engine.h"
#include "isa/program_fuzzer.h"
#include "uarch/types.h"

namespace spt {

struct DifferentialConfig {
    AttackModel attack_model = AttackModel::kSpectre;
    ShadowKind shadow = ShadowKind::kShadowMem;
    uint64_t max_cycles = 1'000'000;
    /** Worker threads for the fuzzed sweeps (0 = SPT_JOBS env,
     *  then hardware_concurrency; see common/parallel.h). Each seed
     *  gets its own fuzzer, analysis, and core, so results are
     *  independent of the worker count. */
    unsigned jobs = 0;
};

struct DifferentialResult {
    bool halted = false;
    uint64_t robust_checked = 0;
    uint64_t robust_denied = 0; ///< soundness violations; must be 0
    uint64_t windowed_checked = 0;
    uint64_t windowed_denied = 0; ///< timing-gap metric, not a bug
    std::vector<std::string> log; ///< one line per robust denial

    double windowedDenialRate() const
    {
        return windowed_checked == 0
                   ? 0.0
                   : static_cast<double>(windowed_denied) /
                         static_cast<double>(windowed_checked);
    }
};

/** Runs @p program to completion on the out-of-order core with an
 *  ideal-untaint SptEngine, checking @p analysis's claims at every
 *  commit. @p analysis must have been built over the same program. */
DifferentialResult runDifferential(const Program &program,
                                   const KnowledgeAnalysis &analysis,
                                   const DifferentialConfig &config);

/** Aggregate of a fuzzed differential campaign. `per_program[i]`
 *  is the result for seed `first_seed + i` regardless of worker
 *  count or completion order. */
struct DifferentialSweepResult {
    std::vector<DifferentialResult> per_program;
    uint64_t programs = 0;
    uint64_t robust_checked = 0;
    uint64_t robust_denied = 0;
    uint64_t windowed_checked = 0;
    uint64_t windowed_denied = 0;

    double windowedDenialRate() const
    {
        return windowed_checked == 0
                   ? 0.0
                   : static_cast<double>(windowed_denied) /
                         static_cast<double>(windowed_checked);
    }
};

/** Fuzzes `count` programs (seeds first_seed .. first_seed+count-1,
 *  each program's seed fixed independently of scheduling), builds
 *  the static knowledge analysis for each, and runs the dynamic
 *  check on `config.jobs` worker threads. */
DifferentialSweepResult
runDifferentialSweep(uint64_t first_seed, unsigned count,
                     const FuzzConfig &fuzz,
                     const DifferentialConfig &config);

} // namespace spt

#endif // SPT_ANALYSIS_DIFFERENTIAL_H

/**
 * @file
 * Parallel experiment runner: the shared sweep engine behind every
 * figure-regeneration driver, the golden-stats recorder, the chaos
 * campaign driver, and the throughput bench.
 *
 * A sweep is a vector of `RunJob` descriptors (program x engine
 * config x attack model x seed x fault plan). The runner executes
 * them on a fixed-size worker pool (`--jobs N` / SPT_JOBS, default
 * hardware_concurrency — see common/parallel.h) and collects each
 * job's `RunOutcome` into a result slot indexed by job id, so the
 * assembled vector is bit-identical regardless of thread count or
 * completion order. Drivers therefore build their whole grid up
 * front, run it once, and render tables/JSON from the slots in grid
 * order.
 *
 * Determinism guarantees:
 *  - one Simulator per job, constructed and run entirely on the
 *    executing worker; the simulated machine is single-threaded and
 *    touches no global mutable state (Rng instances are
 *    function-local, see rng.h; logging is thread-safe, see
 *    logging.h),
 *  - results are addressed by job index, never by completion order,
 *  - host timing (`RunOutcome::host_seconds`) is the only
 *    thread-count-dependent field; everything else — cycles,
 *    instructions, every engine counter and histogram, fault draws,
 *    diagnostics — is a pure function of the job descriptor.
 *
 * Duplicate jobs within a sweep are memoized: jobs with equal
 * content keys (ResultCache::canonicalKey — program content, every
 * engine-config field, attack model, seed, cycle limit, fault plan,
 * robustness knobs, observability flags; not the label) are
 * simulated once and the outcome is copied into every duplicate
 * slot. This is what spares e.g. a normalized-overhead grid from
 * re-deriving its UnsafeBaseline column per normalization.
 *
 * Cross-process reuse: with a cache directory configured
 * (RunnerPolicy::cache_dir or SPT_CACHE_DIR), each unique job is
 * first looked up under the same key in the on-disk result cache
 * (sim/result_cache.h) and only simulated on a miss; clean outcomes
 * are stored the moment they finish (read_write mode), so a sweep
 * killed part-way and rerun on the same cache re-simulates only the
 * slots it had not stored. A hit replays the recorded outcome
 * including its original host_seconds, so warm-cache artifacts are
 * byte-identical to the cold run that populated the cache. `verify`
 * mode re-simulates every hit and counts byte mismatches into
 * SweepStats::cache.verify_mismatches — the soundness gate for the
 * "hits are provably exact" claim.
 *
 * Failure isolation (PR 5): by default any exception escaping a job
 * still fails the whole sweep — but it now fails *deterministically*
 * (the lowest-indexed failing slot's exception is rethrown, not
 * whichever worker lost the race) and the message identifies the
 * job. Under `RunnerPolicy::keep_going` the sweep always completes:
 * each failing slot is classified (crash / timeout / livelock /
 * invariant violation) into `RunOutcome::status` with the exception
 * text and a one-line job descriptor preserved, and healthy slots
 * are unaffected.
 */

#ifndef SPT_SIM_EXP_RUNNER_H
#define SPT_SIM_EXP_RUNNER_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "isa/instruction.h"
#include "sim/result_cache.h"
#include "sim/sim_config.h"
#include "sim/simulator.h"

namespace spt {

/** One design point of a sweep grid. The program is non-owning and
 *  must outlive the sweep (all drivers point into the static
 *  workload/golden-suite registries or locals). */
struct RunJob {
    const Program *program = nullptr;
    EngineConfig engine;
    AttackModel attack_model = AttackModel::kFuturistic;
    /** Free key component for sweeps whose points differ by input
     *  generation (e.g. fuzz seeds) rather than configuration; not
     *  interpreted by the runner. */
    uint64_t seed = 0;
    uint64_t max_cycles = 500'000'000;
    /** Capture the taint-lifecycle trace (text + pipeview) into the
     *  outcome. Observability outputs are pure functions of the
     *  simulated machine, so they are byte-identical for any worker
     *  count — pinned by tests/test_observability.cpp. */
    bool trace = false;
    /** Capture the delay-attribution profile JSON into the outcome. */
    bool profile = false;
    /** Interval-metrics period; 0 disables the time series. */
    uint64_t interval_stats = 0;
    /** Seeded timing-fault schedule; all-zero rates = no injection. */
    FaultPlan faults;
    /** Attach the runtime invariant checker (observer-only). */
    bool invariants = false;
    /** Retire-progress watchdog override; 0 keeps the CoreParams
     *  default (uarch/core.h). */
    uint64_t watchdog_cycles = 0;
    /** Fast-forward quiescent periods (CoreParams::fast_forward).
     *  Result- and stat-identical to ticking every cycle (pinned by
     *  the fast-forward equivalence tests), but still part of the
     *  job key: the ff.* skip counters differ. */
    bool fast_forward = false;
    /** Free-form name for reports ("pchase/SPT{Bwd,ShadowL1}").
     *  Not part of the job key: two jobs differing only by label
     *  are the same simulation. */
    std::string label;
};

/** How a job concluded, strongest classification first. */
enum class RunStatus : uint8_t {
    kOk,        ///< halted normally
    kTimeout,   ///< the cycle budget cut it off
    kLivelock,  ///< retire-progress watchdog tripped
    kViolation, ///< the invariant checker reported a violation
    kCrash,     ///< an exception escaped the simulation
};

const char *runStatusName(RunStatus s);

/** Everything a driver reads back from one simulation. */
struct RunOutcome {
    SimResult result;
    std::map<std::string, uint64_t> engine_counters;
    std::map<std::string, Histogram> engine_histograms;
    /** Host wall-clock of the simulation itself. Memoized slots did
     *  not simulate and carry 0.0 here (see `memoized`): summing
     *  host_seconds over any slot range bills each unique run
     *  exactly once. */
    double host_seconds = 0.0;
    /** True for duplicate slots served from an earlier slot's
     *  outcome instead of a fresh simulation. */
    bool memoized = false;
    /** Observability artifacts, empty unless the corresponding RunJob
     *  flag was set. Deterministic byte-for-byte (any --jobs). */
    std::string trace_text;
    std::string trace_pipeview;
    std::string profile_json;
    std::string intervals_json;

    // --- robustness (PR 5) --------------------------------------------
    RunStatus status = RunStatus::kOk;
    /** Exception text for kCrash ("PANIC at ...: unknown protection
     *  scheme"); empty otherwise. */
    std::string error;
    /** One-line descriptor of the job that produced this outcome
     *  (label if set, else engine/model/seed). Per-slot: memoized
     *  duplicates keep their own label. */
    std::string job_desc;
    /** Structured DiagnosticReport array ("[]" when clean); only
     *  populated when the job ran with invariants. */
    std::string diagnostics_json;
    /** fault.<site>.draws / fault.<site>.injected per enabled site. */
    std::map<std::string, uint64_t> fault_counters;
    /** Architectural register file at end of run — the basis of the
     *  metamorphic fault-equivalence check (faults perturb timing,
     *  never values). All zero for crashed jobs. */
    std::array<uint64_t, kNumArchRegs> arch_regs{};

    uint64_t
    counter(const std::string &name) const
    {
        const auto it = engine_counters.find(name);
        return it == engine_counters.end() ? 0 : it->second;
    }

    bool failed() const { return status != RunStatus::kOk; }
};

/** Sweep-level failure handling and the on-disk result cache. The
 *  default reproduces the historic contract: first failure (by slot
 *  index) aborts the sweep, no cache. */
struct RunnerPolicy {
    /** Complete the sweep even when jobs fail; failures are
     *  classified into RunOutcome::status instead of thrown. */
    bool keep_going = false;
    /** Result-cache directory (sim/result_cache.h). Empty resolves
     *  the SPT_CACHE_DIR environment variable (with SPT_CACHE_MODE,
     *  default read_write), which is how every bench and tool gains
     *  cross-process reuse with zero code changes; still empty
     *  means no cache. */
    std::string cache_dir;
    /** Mode used when cache_dir is set explicitly (the environment
     *  path reads SPT_CACHE_MODE instead). kOff disables the cache
     *  even with cache_dir set. */
    CacheMode cache_mode = CacheMode::kReadWrite;
};

/** Bookkeeping from the last ExpRunner::run call. */
struct SweepStats {
    unsigned workers = 1;    ///< pool size actually used
    uint64_t unique_jobs = 0;
    uint64_t memo_hits = 0;  ///< jobs served from an earlier slot
    double wall_seconds = 0.0;
    uint64_t failed_jobs = 0; ///< slots with status != kOk
    /** job_desc of the lowest-indexed failed slot; empty if none. */
    std::string first_failure;
    /** Result-cache traffic of this sweep (all zero with the cache
     *  off). */
    CacheStats cache;
    /** Resolved cache mode name ("off" when disabled). */
    std::string cache_mode = "off";
    /** Resolved cache directory ("" when disabled). */
    std::string cache_dir;
};

class ExpRunner
{
  public:
    /** @param jobs worker count; 0 resolves SPT_JOBS then
     *  hardware_concurrency (common/parallel.h). */
    explicit ExpRunner(unsigned jobs = 0);

    /** Executes the grid; outcome i corresponds to grid[i]. Throws
     *  FatalError on a null program. Without keep_going, any
     *  exception escaping a job (e.g. SPT_FATAL/SPT_PANIC inside
     *  the simulator) fails the sweep cleanly after the pool has
     *  drained — deterministically, lowest failing slot first. */
    std::vector<RunOutcome> run(const std::vector<RunJob> &grid,
                                const RunnerPolicy &policy);
    std::vector<RunOutcome>
    run(const std::vector<RunJob> &grid)
    {
        return run(grid, RunnerPolicy{});
    }

    const SweepStats &lastSweep() const { return last_; }
    unsigned workers() const { return workers_; }

  private:
    unsigned workers_;
    SweepStats last_;
};

} // namespace spt

#endif // SPT_SIM_EXP_RUNNER_H

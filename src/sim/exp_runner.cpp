#include "sim/exp_runner.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"
#include "common/parallel.h"
#include "uarch/invariant_checker.h"

namespace spt {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::kOk:        return "ok";
      case RunStatus::kTimeout:   return "timeout";
      case RunStatus::kLivelock:  return "livelock";
      case RunStatus::kViolation: return "violation";
      case RunStatus::kCrash:     return "crash";
    }
    return "?";
}

namespace {

/** One-line human identity of a job for reports: label if set,
 *  else engine/model/seed/faults (RunOutcome::job_desc). */
std::string
describeRunJob(const RunJob &job)
{
    if (!job.label.empty())
        return job.label;
    std::string desc = engineConfigName(job.engine);
    desc += job.attack_model == AttackModel::kSpectre
                ? "/spectre"
                : "/futuristic";
    if (job.seed != 0)
        desc += "/seed=" + std::to_string(job.seed);
    if (job.faults.any())
        desc += "/faults@" + std::to_string(job.faults.seed);
    return desc;
}

SimConfig
configFor(const RunJob &job)
{
    SimConfig cfg;
    cfg.engine = job.engine;
    cfg.core.attack_model = job.attack_model;
    cfg.max_cycles = job.max_cycles;
    cfg.profile = job.profile;
    cfg.interval_stats = job.interval_stats;
    cfg.faults = job.faults;
    cfg.invariants = job.invariants;
    if (job.watchdog_cycles != 0)
        cfg.core.watchdog_cycles = job.watchdog_cycles;
    cfg.core.fast_forward = job.fast_forward;
    return cfg;
}

/** Classification order: the strongest signal wins. A violating run
 *  that also livelocked is a violation (the livelock is one more of
 *  its diagnostic reports); a run that merely stalled is a
 *  livelock. */
RunStatus
classify(const Simulator &sim, const SimResult &r)
{
    if (sim.invariants() != nullptr &&
        sim.invariants()->violations() != 0)
        return RunStatus::kViolation;
    switch (r.termination) {
      case Termination::kLivelock:
        return RunStatus::kLivelock;
      case Termination::kMaxCycles:
        return RunStatus::kTimeout;
      case Termination::kHalted:
        break;
    }
    return RunStatus::kOk;
}

/** Simulates @p job. An exception escaping the simulation becomes a
 *  kCrash outcome, with the exception itself kept in @p error. */
RunOutcome
simulate(const RunJob &job, std::exception_ptr *error)
{
    RunOutcome out;
    try {
        Simulator sim(*job.program, configFor(job));
        std::ostringstream trace_text, trace_pipeview;
        if (job.trace)
            sim.enableTrace(&trace_text, &trace_pipeview);
        const auto j0 = std::chrono::steady_clock::now();
        out.result = sim.run();
        const auto j1 = std::chrono::steady_clock::now();
        out.host_seconds =
            std::chrono::duration<double>(j1 - j0).count();
        const StatSet &stats = sim.core().engine().stats();
        out.engine_counters = stats.counters();
        out.engine_histograms = stats.histograms();
        if (job.trace) {
            out.trace_text = trace_text.str();
            out.trace_pipeview = trace_pipeview.str();
        }
        if (sim.profiler())
            out.profile_json = sim.profiler()->toJson();
        if (sim.intervals())
            out.intervals_json = sim.intervals()->toJson();
        if (sim.faults())
            out.fault_counters = sim.faults()->counters();
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            out.arch_regs[r] = sim.core().archReg(r);
        out.status = classify(sim, out.result);
        if (job.invariants || out.status != RunStatus::kOk)
            out.diagnostics_json = sim.diagnosticsJson();
    } catch (const std::exception &e) {
        out.status = RunStatus::kCrash;
        out.error = e.what();
        *error = std::current_exception();
    }
    return out;
}

/** Resolves the RunnerPolicy/environment cache configuration into
 *  an open cache, or nullptr when disabled. */
std::unique_ptr<ResultCache>
openCache(const RunnerPolicy &policy)
{
    std::string dir = policy.cache_dir;
    CacheMode mode = policy.cache_mode;
    if (dir.empty()) {
        const char *env_dir = std::getenv("SPT_CACHE_DIR");
        if (env_dir == nullptr || *env_dir == '\0')
            return nullptr;
        dir = env_dir;
        mode = CacheMode::kReadWrite;
        if (const char *env_mode = std::getenv("SPT_CACHE_MODE"))
            mode = parseCacheMode(env_mode);
    }
    if (mode == CacheMode::kOff)
        return nullptr;
    return std::make_unique<ResultCache>(std::move(dir), mode);
}

} // namespace

ExpRunner::ExpRunner(unsigned jobs) : workers_(resolveJobs(jobs)) {}

std::vector<RunOutcome>
ExpRunner::run(const std::vector<RunJob> &grid,
               const RunnerPolicy &policy)
{
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].program == nullptr)
            SPT_FATAL("RunJob " << i << " has a null program");

    // Deduplicate up front on the content key: unique jobs run on
    // the pool, duplicate slots are filled by copy afterwards. Keys
    // are computed here on the main thread: the hash memo
    // canonicalKey fills is shared mutable state the pool workers
    // must not touch (common/parallel.h contract).
    KeyHashMemo memo;
    std::vector<std::string> keys(grid.size());
    std::vector<std::size_t> unique;       // grid indices to simulate
    std::vector<std::size_t> source(grid.size()); // slot -> source slot
    std::unordered_map<std::string, std::size_t> first_by_key;
    unique.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        keys[i] = ResultCache::canonicalKey(grid[i], &memo);
        source[i] = first_by_key.emplace(keys[i], i).first->second;
        if (source[i] == i)
            unique.push_back(i);
    }

    const std::unique_ptr<ResultCache> cache = openCache(policy);
    std::vector<RunOutcome> outcomes(grid.size());
    // Exceptions are caught per slot and resolved after the pool
    // drains, so a failing sweep (a) always identifies the
    // lowest-indexed failing job regardless of worker scheduling and
    // (b) under keep_going completes with the failure confined to
    // its own slot.
    std::vector<std::exception_ptr> errors(grid.size());
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(unique.size(), workers_, [&](std::size_t u) {
        const std::size_t slot = unique[u];
        const RunJob &job = grid[slot];
        const std::string &key = keys[slot];
        RunOutcome cached;
        const bool hit = cache && cache->lookup(key, &cached);
        if (hit && cache->mode() != CacheMode::kVerify) {
            outcomes[slot] = std::move(cached);
            return;
        }
        RunOutcome out = simulate(job, &errors[slot]);
        if (hit) {
            // Verify mode: the fresh outcome wins; a byte mismatch
            // with the stored record is the finding.
            if (ResultCache::encodeOutcomeDeterministic(out) !=
                ResultCache::encodeOutcomeDeterministic(cached))
                cache->noteVerifyMismatch(key);
        } else if (cache) {
            // Stored the moment it finishes: a sweep killed after
            // this point does not re-simulate this slot.
            cache->store(key, out);
        }
        outcomes[slot] = std::move(out);
    });
    const auto t1 = std::chrono::steady_clock::now();

    for (std::size_t i = 0; i < grid.size(); ++i)
        if (source[i] != i) {
            outcomes[i] = outcomes[source[i]];
            // A memo hit costs no host time; copying the source
            // slot's timing would bill the unique run once per
            // duplicate in every per-config host-time total.
            outcomes[i].memoized = true;
            outcomes[i].host_seconds = 0.0;
        }
    // Descriptors are per-slot, not per-unique-run: duplicates may
    // carry distinct labels.
    for (std::size_t i = 0; i < grid.size(); ++i)
        outcomes[i].job_desc = describeRunJob(grid[i]);

    last_.workers = workers_;
    last_.unique_jobs = unique.size();
    last_.memo_hits = grid.size() - unique.size();
    last_.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    last_.cache = cache ? cache->stats() : CacheStats{};
    last_.cache_mode =
        cache ? cacheModeName(cache->mode()) : "off";
    last_.cache_dir = cache ? cache->dir() : "";
    last_.failed_jobs = 0;
    last_.first_failure.clear();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!outcomes[i].failed())
            continue;
        ++last_.failed_jobs;
        if (last_.first_failure.empty())
            last_.first_failure = outcomes[i].job_desc;
    }

    if (!policy.keep_going)
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (errors[source[i]])
                std::rethrow_exception(errors[source[i]]);
    return outcomes;
}

} // namespace spt

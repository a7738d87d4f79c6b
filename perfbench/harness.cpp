/**
 * @file
 * Repository benchmark harness, driven by perfbench/run.py.
 *
 *   spt_perfbench setup --workload W --seed N --work-dir D [--quick]
 *       Performs only the set-up (workload registry, Table-2 grid,
 *       cache directory) and prints the CLOCK_MONOTONIC time in ns at
 *       which the first timed call would start; run.py subtracts its
 *       spawn time to get "process start to first timed call".
 *
 *   spt_perfbench run --workload W --seed N --seconds S --trace 0|1
 *                     --work-dir D [--quick]
 *       Measures for about S seconds. Prints a human report on stderr
 *       and one JSON object on stdout: {"correct", "attempted",
 *       "failed", "metrics"}. --trace 0 gives the end-to-end metrics
 *       (no instrumentation anywhere); --trace 1 gives the per-layer
 *       metrics from a separate traced pass.
 *
 * Layers are timed from outside, through public APIs only: the
 * workload registry, table2Configs(), ExpRunner + ResultCache (sim),
 * Simulator construction, Core::run (uarch) with a timing decorator
 * around the engine from makeEngine() (core), MemorySystem (mem) and
 * FunctionalCpu as the correctness reference (isa).
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/engine_factory.h"
#include "isa/functional_cpu.h"
#include "mem/memory_system.h"
#include "sim/exp_runner.h"
#include "sim/result_cache.h"
#include "sim/sim_config.h"
#include "sim/simulator.h"
#include "uarch/core.h"
#include "workloads/workloads.h"

namespace fs = std::filesystem;
using namespace spt;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

/** One row of a workload's grid: a kernel under some configs. */
struct Cell {
    std::string kernel;
    /** table2Configs() names, in grid order. */
    std::vector<std::string> configs;
};

struct WorkloadSpec {
    const char *name;
    std::vector<Cell> cells;
    std::vector<AttackModel> models;
    bool fast_forward;
    /** ExpRunner pool size per stream. */
    unsigned workers;
    /** Concurrent measuring processes, each running the whole grid.
     *  Single-worker workloads use one per hardware thread, so a run
     *  samples every CPU instead of whichever one it was placed on. */
    unsigned streams;
    /** Add a fig7-style UnsafeBaseline normalization column: duplicate
     *  jobs that ExpRunner's memo serves without simulating. */
    bool norm_column;
};

WorkloadSpec
workloadSpec(const std::string &name, bool quick)
{
    const AttackModel fut = AttackModel::kFuturistic;
    const AttackModel spec = AttackModel::kSpectre;
    const std::vector<std::string> spt_stt = {
        "SPT{Bwd,ShadowL1}", "SPT{Fwd,NoShadowL1}", "STT"};
    const std::vector<std::string> baselines = {"UnsafeBaseline",
                                                "SecureBaseline"};
    std::vector<std::string> table2;
    for (const NamedConfig &c : table2Configs())
        table2.push_back(c.name);
    WorkloadSpec s;
    if (name == "taint-heavy") {
        // spmv, the longest kernel (~5 s per SPT job), runs under one
        // config only so that a 30 s run still fits two rounds.
        s = {"taint-heavy",
             {{"hashtab", spt_stt},
              {"ct-chacha20", spt_stt},
              {"spmv", {"SPT{Bwd,ShadowL1}"}}},
             {fut},
             false,
             1,
             4,
             false};
    } else if (name == "stall-ff") {
        s = {"stall-ff",
             {{"pchase", baselines},
              {"stream", baselines},
              {"spmv", baselines}},
             {fut},
             true,
             1,
             4,
             false};
    } else if (name == "fig-sweep") {
        s = {"fig-sweep",
             {{"ct-aes-bitslice", table2},
              {"ct-chacha20", table2},
              {"treesearch", table2}},
             {spec, fut},
             false,
             4,
             1,
             true};
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (taint-heavy, stall-ff, "
                                    "fig-sweep)");
    }
    if (quick)
        s.cells = {{"ct-aes-bitslice", s.cells.front().configs}};
    const unsigned hw = hardwareJobs();
    s.workers = std::min(s.workers, hw);
    s.streams = std::min(s.streams, hw);
    return s;
}

const char *
modelName(AttackModel m)
{
    return m == AttackModel::kSpectre ? "spectre" : "futuristic";
}

/** The workload's job grid in canonical order. */
std::vector<RunJob>
buildGrid(const WorkloadSpec &spec)
{
    std::map<std::string, EngineConfig> by_name;
    for (const NamedConfig &c : table2Configs())
        by_name.emplace(c.name, c.engine);
    std::vector<RunJob> grid;
    for (const Cell &cell : spec.cells) {
        const Program &program = workloadByName(cell.kernel).program;
        for (AttackModel model : spec.models) {
            RunJob job;
            job.program = &program;
            job.attack_model = model;
            job.fast_forward = spec.fast_forward;
            for (const std::string &cfg : cell.configs) {
                const auto it = by_name.find(cfg);
                if (it == by_name.end())
                    throw std::invalid_argument("no Table-2 config " +
                                                cfg);
                job.engine = it->second;
                job.label = cell.kernel + "/" + cfg + "/" +
                            modelName(model);
                grid.push_back(job);
            }
            if (spec.norm_column) {
                job.engine = by_name.at("UnsafeBaseline");
                job.label = cell.kernel + "/UnsafeBaseline-norm/" +
                            modelName(model);
                grid.push_back(job);
            }
        }
    }
    return grid;
}

/** Submission order for one round of one stream, as grid indices: a
 *  permutation drawn from the benchmark seed. */
std::vector<std::size_t>
permutation(std::size_t n, uint64_t seed, uint64_t stream, uint64_t rep)
{
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    std::seed_seq seq{seed, stream, rep};
    std::mt19937_64 rng(seq);
    std::shuffle(idx.begin(), idx.end(), rng);
    return idx;
}

std::vector<RunJob>
inOrder(const std::vector<RunJob> &grid, const std::vector<std::size_t> &idx)
{
    std::vector<RunJob> order;
    order.reserve(idx.size());
    for (std::size_t i : idx)
        order.push_back(grid[i]);
    return order;
}

/** Everything set-up produces. */
struct Setup {
    WorkloadSpec spec;
    std::vector<RunJob> grid;
    fs::path work_dir;
    double registry_ms = 0.0;
};

Setup
setUp(const std::string &workload, bool quick, const fs::path &work_dir)
{
    Setup s;
    const auto t0 = Clock::now();
    allWorkloads();
    s.registry_ms = secondsSince(t0) * 1e3;
    s.spec = workloadSpec(workload, quick);
    s.grid = buildGrid(s.spec);
    s.work_dir = work_dir;
    fs::create_directories(work_dir);
    return s;
}

// --------------------------------------------------------------------
// Correctness
// --------------------------------------------------------------------

struct Reference {
    uint64_t checksum = 0;
    uint64_t instructions = 0;
};

/** Per-job checks against FunctionalCpu and against every earlier
 *  run of the same job; failures are printed by job name. */
class Checker
{
  public:
    explicit Checker(const std::vector<RunJob> &grid)
    {
        for (const RunJob &job : grid) {
            if (refs_.count(job.program))
                continue;
            FunctionalCpu cpu(*job.program);
            const FunctionalCpu::RunResult r = cpu.run();
            if (!r.halted)
                throw std::runtime_error("reference run of " +
                                         job.label + " did not halt");
            refs_[job.program] = {cpu.reg(kChecksumReg),
                                  r.instructions};
        }
    }

    void
    check(const RunJob &job, bool halted, uint64_t checksum,
          uint64_t cycles, uint64_t instructions, const char *phase,
          const std::string &extra_error = "")
    {
        ++attempted_;
        std::string why = extra_error;
        const Reference &ref = refs_.at(job.program);
        if (why.empty() && !halted)
            why = "did not halt";
        if (why.empty() && checksum != ref.checksum)
            why = "a7 checksum differs from FunctionalCpu";
        if (why.empty() && instructions != ref.instructions)
            why = "instruction count differs from FunctionalCpu";
        const auto [it, first] =
            seen_.emplace(job.label, std::make_pair(cycles, instructions));
        if (why.empty() && !first &&
            it->second != std::make_pair(cycles, instructions))
            why = "cycles/instructions differ between runs";
        if (why.empty())
            return;
        ++failed_;
        std::fprintf(stderr, "FAIL %s [%s]: %s\n", job.label.c_str(),
                     phase, why.c_str());
    }

    void
    check(const RunJob &job, const RunOutcome &o, const char *phase)
    {
        std::string err;
        if (o.status != RunStatus::kOk)
            err = std::string("status ") + runStatusName(o.status) +
                  (o.error.empty() ? "" : ": " + o.error);
        check(job, o.result.halted, o.arch_regs[kChecksumReg],
              o.result.cycles, o.result.instructions, phase, err);
    }

    void
    fail(const RunJob &job, const char *phase, const std::string &why)
    {
        ++attempted_;
        ++failed_;
        std::fprintf(stderr, "FAIL %s [%s]: %s\n", job.label.c_str(),
                     phase, why.c_str());
    }

    /** Adds the counts of checks made in another process. */
    void
    add(uint64_t attempted, uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** Retired instructions of @p job's program, as FunctionalCpu
     *  counted them; every checked run must match. */
    uint64_t
    instructions(const RunJob &job) const
    {
        return refs_.at(job.program).instructions;
    }

  private:
    std::map<const Program *, Reference> refs_;
    std::map<std::string, std::pair<uint64_t, uint64_t>> seen_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** FNV-1a digest of the simulated results of a grid in canonical
 *  order: cycles, instructions and every engine counter per job. A
 *  host-speed-only change must leave it unchanged. */
uint64_t
simulatedDigest(const std::vector<RunJob> &grid,
                const std::map<std::string, RunOutcome> &by_label)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff;
        h *= 0x100000001b3ULL;
    };
    for (const RunJob &job : grid) {
        const RunOutcome &o = by_label.at(job.label);
        mix(job.label);
        mix(std::to_string(o.result.cycles));
        mix(std::to_string(o.result.instructions));
        for (const auto &[name, value] : o.engine_counters)
            mix(name + "=" + std::to_string(value));
    }
    return h;
}

// --------------------------------------------------------------------
// Untraced sweeps through ExpRunner + ResultCache
// --------------------------------------------------------------------

struct Sweep {
    std::vector<RunOutcome> outcomes; ///< in submission order
    SweepStats stats;
    double wall_s = 0.0;
};

Sweep
runSweep(const std::vector<RunJob> &order, unsigned workers,
         const fs::path &cache_dir, CacheMode mode)
{
    RunnerPolicy policy;
    policy.keep_going = true;
    policy.cache_dir = cache_dir.string();
    policy.cache_mode = mode;
    ExpRunner runner(workers);
    Sweep s;
    const auto t0 = Clock::now();
    s.outcomes = runner.run(order, policy);
    s.wall_s = secondsSince(t0);
    s.stats = runner.lastSweep();
    return s;
}

/** Σ host seconds of Simulator::run over the jobs that really
 *  simulated (memo hits carry 0). */
double
uniqueHostSeconds(const Sweep &s)
{
    double host = 0.0;
    for (const RunOutcome &o : s.outcomes)
        host += o.host_seconds;
    return host;
}

// --------------------------------------------------------------------
// Traced pass: Core built directly, engine wrapped in a timer
// --------------------------------------------------------------------

enum Hook : unsigned {
    kTick,
    kRename,
    kRetire,
    kSquash,
    kLoadData,
    kStoreCommit,
    kNumHooks
};

struct HookTime {
    uint64_t ns = 0;
    uint64_t calls = 0;
};

/** One data-side memory access seen at the engine boundary. */
struct MemRef {
    uint64_t addr;
    uint64_t cycle;
    bool store;
};

/**
 * Forwards every SecurityEngine virtual to the engine makeEngine()
 * built, timing the pipeline-event hooks and tick(), and counting
 * (not timing) the policy queries. Fast-forward support calls are
 * forwarded untimed, so fast-forward behaves exactly as untraced.
 */
class TimedEngine final : public SecurityEngine
{
  public:
    TimedEngine(std::unique_ptr<SecurityEngine> inner,
                std::vector<MemRef> *mem_refs)
        : inner_(std::move(inner)), mem_refs_(mem_refs)
    {
    }

    void
    attach(Core &core) override
    {
        SecurityEngine::attach(core);
        inner_->attach(core);
    }

    const char *name() const override { return inner_->name(); }

    void
    onRename(DynInst &d) override
    {
        const Span s(hooks_[kRename]);
        inner_->onRename(d);
    }
    void
    onSquash(const DynInst &d) override
    {
        const Span s(hooks_[kSquash]);
        inner_->onSquash(d);
    }
    void
    onRetire(const DynInst &d) override
    {
        const Span s(hooks_[kRetire]);
        inner_->onRetire(d);
    }
    void
    onLoadData(DynInst &d, bool forwarded, SeqNum store_seq) override
    {
        if (!forwarded)
            mem_refs_->push_back({d.eff_addr, core_->cycle(), false});
        const Span s(hooks_[kLoadData]);
        inner_->onLoadData(d, forwarded, store_seq);
    }
    void
    onStoreCommit(const DynInst &d) override
    {
        mem_refs_->push_back({d.eff_addr, core_->cycle(), true});
        const Span s(hooks_[kStoreCommit]);
        inner_->onStoreCommit(d);
    }

    bool
    mayAccessMemory(const DynInst &d) const override
    {
        ++queries_;
        return inner_->mayAccessMemory(d);
    }
    bool
    mayResolveBranch(const DynInst &d) const override
    {
        ++queries_;
        return inner_->mayResolveBranch(d);
    }
    bool
    maySquashMemViolation(const DynInst &d) const override
    {
        ++queries_;
        return inner_->maySquashMemViolation(d);
    }
    bool
    stlForwardingPublic(const DynInst &ld,
                        const DynInst &st) const override
    {
        ++queries_;
        return inner_->stlForwardingPublic(ld, st);
    }

    void
    tick() override
    {
        const Span s(hooks_[kTick]);
        inner_->tick();
    }

    bool quiescent() const override { return inner_->quiescent(); }
    bool
    fastForwardSafe() const override
    {
        return inner_->fastForwardSafe();
    }
    void
    accrueBlockedTransmit(const DynInst &d, DelayKind kind,
                          uint64_t cycles) override
    {
        inner_->accrueBlockedTransmit(d, kind, cycles);
    }
    bool
    transmitPublic(const DynInst &d, DelayKind kind) const override
    {
        return inner_->transmitPublic(d, kind);
    }
    bool
    taintStateConsistent(const DynInst &d) const override
    {
        return inner_->taintStateConsistent(d);
    }
    DelayCause
    delayCause(const DynInst &d, DelayKind kind) const override
    {
        return inner_->delayCause(d, kind);
    }
    uint64_t
    broadcastQueueOccupancy() const override
    {
        return inner_->broadcastQueueOccupancy();
    }
    uint64_t
    taintedRegCount() const override
    {
        return inner_->taintedRegCount();
    }

    const HookTime &hook(Hook h) const { return hooks_[h]; }
    uint64_t queries() const { return queries_; }

    /** The counters an untraced run reports: the wrapped engine's own
     *  plus the delay.* totals Core::run publishes into the engine it
     *  holds (this decorator). */
    std::map<std::string, uint64_t>
    counters() const
    {
        std::map<std::string, uint64_t> all = inner_->stats().counters();
        for (const auto &[name, value] : stats().counters())
            all[name] = value;
        return all;
    }

  private:
    struct Span {
        explicit Span(HookTime &h) : h_(h), t0_(Clock::now()) {}
        ~Span()
        {
            h_.ns += nsSince(t0_);
            ++h_.calls;
        }
        HookTime &h_;
        Clock::time_point t0_;
    };

    std::unique_ptr<SecurityEngine> inner_;
    std::vector<MemRef> *mem_refs_;
    HookTime hooks_[kNumHooks];
    mutable uint64_t queries_ = 0;
};

/** What the traced run of one job measured. */
struct Traced {
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    bool halted = false;
    uint64_t checksum = 0;
    std::map<std::string, uint64_t> counters;
    uint64_t sim_ctor_ns = 0;
    uint64_t run_ns = 0; ///< Core::run
    HookTime hooks[kNumHooks];
    uint64_t queries = 0;
    uint64_t l1d_accesses = 0;
    uint64_t l1d_misses = 0;
    uint64_t mshr_rejects = 0;
    uint64_t mispredicts = 0;
    std::vector<MemRef> mem_refs;
    std::string error;

    uint64_t
    engineNs() const
    {
        uint64_t ns = 0;
        for (const HookTime &h : hooks)
            ns += h.ns;
        return ns;
    }
};

/** The machine configuration ExpRunner builds for @p job. */
SimConfig
configFor(const RunJob &job)
{
    SimConfig cfg;
    cfg.engine = job.engine;
    cfg.core.attack_model = job.attack_model;
    cfg.core.fast_forward = job.fast_forward;
    cfg.max_cycles = job.max_cycles;
    return cfg;
}

Traced
traceJob(const RunJob &job)
{
    Traced t;
    try {
        const SimConfig cfg = configFor(job);
        {
            const auto c0 = Clock::now();
            auto sim = std::make_unique<Simulator>(*job.program, cfg);
            t.sim_ctor_ns = nsSince(c0);
        }
        auto timed =
            std::make_unique<TimedEngine>(makeEngine(cfg.engine),
                                          &t.mem_refs);
        const TimedEngine &engine = *timed;
        Core core(*job.program, cfg.core, cfg.mem, std::move(timed));
        const auto r0 = Clock::now();
        const Core::RunResult r = core.run(cfg.max_cycles);
        t.run_ns = nsSince(r0);
        t.cycles = r.cycles;
        t.instructions = r.instructions;
        t.halted = r.halted;
        t.checksum = core.archReg(kChecksumReg);
        t.counters = engine.counters();
        for (unsigned h = 0; h < kNumHooks; ++h)
            t.hooks[h] = engine.hook(static_cast<Hook>(h));
        t.queries = engine.queries();
        const StatSet &l1d = core.memorySystem().l1d().stats();
        t.l1d_misses = l1d.get("read_misses") + l1d.get("write_misses");
        t.l1d_accesses = t.l1d_misses + l1d.get("read_hits") +
                         l1d.get("write_hits");
        t.mshr_rejects = core.memorySystem().stats().get("mshr_rejects");
        t.mispredicts = core.stats().get("branch.mispredicts");
    } catch (const std::exception &e) {
        t.error = e.what();
    }
    return t;
}

/** Host ns per MemorySystem::access, replaying @p refs in a fresh
 *  hierarchy with the default (Table-1) parameters. */
double
replayMemNs(const std::vector<MemRef> &refs, uint64_t *accesses)
{
    MemorySystem mem;
    uint64_t now = 0;
    const auto t0 = Clock::now();
    for (const MemRef &r : refs) {
        now = std::max(now, r.cycle);
        mem.access(r.addr,
                   r.store ? AccessKind::kStore : AccessKind::kLoad, now);
    }
    const uint64_t ns = nsSince(t0);
    *accesses += refs.size();
    return static_cast<double>(ns);
}

// --------------------------------------------------------------------
// Output
// --------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void
report(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
}

// --------------------------------------------------------------------
// Modes
// --------------------------------------------------------------------

struct Args {
    std::string mode;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    fs::path work_dir;
    bool quick = false;
};

/** Samples one stream collects; streams run as separate processes. */
struct Samples {
    std::vector<double> cold_s, warm_s;
    /** Per round, Simulator::run host seconds of every grid job in grid
     *  order (0 where the runner's memo served the job). */
    std::vector<double> job_s;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t digest = 0;
    double rss_mb = 0.0;
};

std::string
serialize(const Samples &s)
{
    std::ostringstream os;
    os.precision(17);
    os << s.attempted << ' ' << s.failed << ' ' << s.digest << ' '
       << s.rss_mb;
    for (const std::vector<double> *v : {&s.cold_s, &s.warm_s, &s.job_s}) {
        os << ' ' << v->size();
        for (double x : *v)
            os << ' ' << x;
    }
    return os.str();
}

Samples
deserialize(const std::string &text)
{
    std::istringstream is(text);
    Samples s;
    is >> s.attempted >> s.failed >> s.digest >> s.rss_mb;
    for (std::vector<double> *v : {&s.cold_s, &s.warm_s, &s.job_s}) {
        std::size_t n = 0;
        is >> n;
        v->resize(n);
        for (double &x : *v)
            is >> x;
    }
    if (!is)
        throw std::runtime_error("malformed stream result");
    return s;
}

/** One stream: rounds of a cold sweep into a fresh cache followed by
 *  warm replays from it, until the time budget is spent. */
Samples
measureStream(const Setup &setup, const Args &args, unsigned stream,
              Checker checker)
{
    constexpr unsigned kWarmReplays = 5;
    const auto start = Clock::now();
    Samples out;
    for (uint64_t rep = 0;; ++rep) {
        const auto r0 = Clock::now();
        const std::vector<std::size_t> idx =
            permutation(setup.grid.size(), args.seed, stream, rep);
        const std::vector<RunJob> order = inOrder(setup.grid, idx);
        const fs::path cache =
            setup.work_dir / ("cache-" + std::to_string(stream) + "-" +
                              std::to_string(rep));
        fs::create_directories(cache);
        const Sweep cold = runSweep(order, setup.spec.workers, cache,
                                    CacheMode::kReadWrite);
        out.cold_s.push_back(cold.wall_s);
        std::map<std::string, RunOutcome> by_label;
        std::vector<double> job_s(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            checker.check(order[i], cold.outcomes[i], "cold");
            by_label[order[i].label] = cold.outcomes[i];
            job_s[idx[i]] = cold.outcomes[i].host_seconds;
        }
        out.job_s.insert(out.job_s.end(), job_s.begin(), job_s.end());
        if (rep == 0)
            out.digest = simulatedDigest(setup.grid, by_label);
        for (unsigned w = 0; w < kWarmReplays; ++w) {
            const Sweep warm = runSweep(order, setup.spec.workers, cache,
                                        CacheMode::kReadOnly);
            out.warm_s.push_back(warm.wall_s);
            for (std::size_t i = 0; i < order.size(); ++i)
                checker.check(order[i], warm.outcomes[i], "warm");
            if (warm.stats.cache.misses != 0)
                checker.fail(order[0], "warm",
                             "warm replay missed the cache");
        }
        fs::remove_all(cache);
        const double round_s = secondsSince(r0);
        if (secondsSince(start) + round_s > args.seconds)
            break;
    }
    std::fprintf(stderr, "  stream %u, cold sweep per round (s):", stream);
    for (double s : out.cold_s)
        std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    out.attempted = checker.attempted();
    out.failed = checker.failed();
    return out;
}

/** Runs the workload's streams as concurrent child processes (each
 *  its own ExpRunner, so the runner's process-global state is never
 *  shared) and returns their samples. */
std::vector<Samples>
runStreams(const Setup &setup, const Args &args, const Checker &checker)
{
    const unsigned n = setup.spec.streams;
    if (n == 1)
        return {measureStream(setup, args, 0, checker)};
    std::fflush(nullptr);
    std::vector<std::pair<pid_t, int>> kids;
    for (unsigned s = 0; s < n; ++s) {
        int fd[2];
        if (pipe(fd) != 0)
            throw std::runtime_error("pipe failed");
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            // Die with the parent rather than outlive it.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            close(fd[0]);
            int code = 0;
            try {
                const std::string text =
                    serialize(measureStream(setup, args, s, checker));
                if (write(fd[1], text.data(), text.size()) !=
                    static_cast<ssize_t>(text.size()))
                    code = 2;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "stream %u: %s\n", s, e.what());
                code = 2;
            }
            close(fd[1]);
            _exit(code);
        }
        close(fd[1]);
        kids.emplace_back(pid, fd[0]);
    }
    std::vector<Samples> all;
    bool ok = true;
    for (const auto &[pid, fd] : kids) {
        std::string text;
        char buf[4096];
        for (ssize_t got; (got = read(fd, buf, sizeof buf)) > 0;)
            text.append(buf, static_cast<std::size_t>(got));
        close(fd);
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            ok = false;
        else
            all.push_back(deserialize(text));
    }
    if (!ok)
        throw std::runtime_error("a measuring stream failed");
    return all;
}

/**
 * End-to-end metrics (tracing off). Each timing is the best of its
 * repetitions: interference from other tenants of a shared host only
 * ever adds time, so the fastest repetition is the steadiest estimate
 * of the code's own cost. Throughput takes the best time of each
 * unique job over every round of every stream; the medians are
 * printed on stderr for comparison.
 */
std::vector<Metric>
measureEndToEnd(const Setup &setup, const Args &args, Checker &checker,
                uint64_t *digest)
{
    Samples all;
    for (const Samples &s : runStreams(setup, args, checker)) {
        for (auto [from, to] :
             {std::pair{&s.cold_s, &all.cold_s}, {&s.warm_s, &all.warm_s},
              {&s.job_s, &all.job_s}})
            to->insert(to->end(), from->begin(), from->end());
        all.attempted += s.attempted;
        all.failed += s.failed;
        all.rss_mb = std::max(all.rss_mb, s.rss_mb);
        if (all.digest != 0 && s.digest != all.digest) {
            ++all.failed;
            std::fprintf(stderr, "FAIL streams disagree on the "
                                 "simulated digest\n");
        }
        all.digest = s.digest;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    all.rss_mb = std::max(all.rss_mb,
                          static_cast<double>(ru.ru_maxrss) / 1024.0);
    checker.add(all.attempted, all.failed);
    *digest = all.digest;

    // Host seconds of each unique simulation over every round of every
    // stream. Grid jobs with one canonical key are one simulation: the
    // runner serves the duplicates without simulating, at 0 seconds.
    const std::size_t n = setup.grid.size();
    std::vector<std::string> keys;
    for (const RunJob &job : setup.grid)
        keys.push_back(ResultCache::canonicalKey(job));
    std::map<std::string, std::vector<double>> job_s;
    std::map<std::string, uint64_t> job_instr;
    for (std::size_t k = 0; k < all.job_s.size(); ++k) {
        if (all.job_s[k] <= 0.0)
            continue;
        job_s[keys[k % n]].push_back(all.job_s[k]);
        job_instr[keys[k % n]] = checker.instructions(setup.grid[k % n]);
    }
    const auto best = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    double instr = 0.0, best_s = 0.0, median_s = 0.0;
    for (const auto &[key, samples] : job_s) {
        instr += static_cast<double>(job_instr.at(key));
        best_s += best(samples);
        median_s += median(samples);
    }
    std::fprintf(stderr,
                 "  %zu rounds, %zu warm replays; medians: %.4f Minstr/s, "
                 "cold %.4f s, warm %.6f s\n",
                 all.cold_s.size(), all.warm_s.size(),
                 ratio(instr / 1e6, median_s), median(all.cold_s),
                 median(all.warm_s));
    return {
        {"sim_minstr_per_s", ratio(instr / 1e6, best_s), "Minstr/s"},
        {"sweep_cold_s", best(all.cold_s), "s"},
        {"sweep_warm_s", best(all.warm_s), "s"},
        {"peak_rss_mb", all.rss_mb, "MiB"},
    };
}

/** Per-layer sums over every traced job and round. */
struct LayerSums {
    double cycles = 0, instr = 0, run_ns = 0, engine_ns = 0;
    double untraced_host_s = 0, traced_host_s = 0;
    HookTime hooks[kNumHooks];
    double queries = 0, delay_cycles = 0, untaint_events = 0;
    double l1d_accesses = 0, l1d_misses = 0, mshr_rejects = 0;
    double mispredicts = 0, mem_ns = 0, mem_accesses = 0;
    double sim_ctor_ns = 0, jobs = 0;
    double busy_host_s = 0, pool_s = 0;
    double unique_jobs = 0, memo_hits = 0;
    double cache_hits = 0, cache_misses = 0, cache_bytes = 0;
    double key_ns = 0, lookup_ns = 0, decode_ns = 0, store_ns = 0;
    double cache_calls = 0, rounds = 0;
};

void
traceRound(const Setup &setup, const Args &args, uint64_t rep,
           Checker &checker, LayerSums &L, uint64_t *digest)
{
    const std::vector<RunJob> order = inOrder(
        setup.grid, permutation(setup.grid.size(), args.seed, 0, rep));
    const unsigned workers = setup.spec.workers;
    const fs::path cache = setup.work_dir / ("cache-" + std::to_string(rep));
    const fs::path scratch =
        setup.work_dir / ("store-" + std::to_string(rep));
    fs::create_directories(cache);

    // Untraced cold + warm sweep: runner and cache counts, and the
    // untraced Simulator::run time each traced run is compared to.
    const Sweep cold =
        runSweep(order, workers, cache, CacheMode::kReadWrite);
    const Sweep warm =
        runSweep(order, workers, cache, CacheMode::kReadOnly);
    std::map<std::string, RunOutcome> by_label;
    for (std::size_t i = 0; i < order.size(); ++i) {
        checker.check(order[i], cold.outcomes[i], "cold");
        checker.check(order[i], warm.outcomes[i], "warm");
        by_label[order[i].label] = cold.outcomes[i];
    }
    if (rep == 0)
        *digest = simulatedDigest(setup.grid, by_label);
    L.busy_host_s += uniqueHostSeconds(cold);
    L.pool_s += workers * cold.wall_s;
    L.unique_jobs += static_cast<double>(cold.stats.unique_jobs);
    L.memo_hits += static_cast<double>(cold.stats.memo_hits);
    L.cache_hits += static_cast<double>(cold.stats.cache.hits +
                                        warm.stats.cache.hits);
    L.cache_misses += static_cast<double>(cold.stats.cache.misses +
                                          warm.stats.cache.misses);
    L.cache_bytes += static_cast<double>(cold.stats.cache.bytes_written);

    // The unique jobs, traced on the same number of workers.
    std::vector<std::size_t> unique;
    for (std::size_t i = 0; i < order.size(); ++i)
        if (!cold.outcomes[i].memoized)
            unique.push_back(i);
    std::vector<Traced> traced(unique.size());
    parallelFor(unique.size(), workers, [&](std::size_t u) {
        traced[u] = traceJob(order[unique[u]]);
    });

    ResultCache reader(cache.string(), CacheMode::kReadOnly);
    ResultCache writer(scratch.string(), CacheMode::kReadWrite);
    for (std::size_t u = 0; u < unique.size(); ++u) {
        const RunJob &job = order[unique[u]];
        const RunOutcome &untraced = cold.outcomes[unique[u]];
        Traced &t = traced[u];
        checker.check(job, t.halted, t.checksum, t.cycles,
                      t.instructions, "traced", t.error);
        if (t.error.empty() && t.counters != untraced.engine_counters)
            checker.fail(job, "traced",
                         "engine counters differ from the untraced run");
        L.cycles += static_cast<double>(t.cycles);
        L.instr += static_cast<double>(t.instructions);
        L.run_ns += static_cast<double>(t.run_ns);
        L.engine_ns += static_cast<double>(t.engineNs());
        L.untraced_host_s += untraced.host_seconds;
        L.traced_host_s += static_cast<double>(t.run_ns) * 1e-9;
        for (unsigned h = 0; h < kNumHooks; ++h) {
            L.hooks[h].ns += t.hooks[h].ns;
            L.hooks[h].calls += t.hooks[h].calls;
        }
        L.queries += static_cast<double>(t.queries);
        L.delay_cycles +=
            static_cast<double>(untraced.counter("delay.total_cycles"));
        L.untaint_events +=
            static_cast<double>(untraced.counter("untaint.events"));
        L.l1d_accesses += static_cast<double>(t.l1d_accesses);
        L.l1d_misses += static_cast<double>(t.l1d_misses);
        L.mshr_rejects += static_cast<double>(t.mshr_rejects);
        L.mispredicts += static_cast<double>(t.mispredicts);
        L.sim_ctor_ns += static_cast<double>(t.sim_ctor_ns);
        L.jobs += 1;

        uint64_t accesses = 0;
        L.mem_ns += replayMemNs(t.mem_refs, &accesses);
        L.mem_accesses += static_cast<double>(accesses);
        t.mem_refs = {};

        // ResultCache calls, timed one by one on this job.
        auto c0 = Clock::now();
        const std::string key = ResultCache::canonicalKey(job);
        L.key_ns += static_cast<double>(nsSince(c0));
        RunOutcome hit;
        c0 = Clock::now();
        const bool found = reader.lookup(key, &hit);
        L.lookup_ns += static_cast<double>(nsSince(c0));
        if (!found)
            checker.fail(job, "cache", "lookup missed a stored job");
        const std::string bytes = ResultCache::encodeOutcome(untraced);
        c0 = Clock::now();
        const RunOutcome decoded = ResultCache::decodeOutcome(bytes);
        L.decode_ns += static_cast<double>(nsSince(c0));
        if (decoded.result.cycles != untraced.result.cycles)
            checker.fail(job, "cache", "decoded outcome differs");
        c0 = Clock::now();
        writer.store(key, untraced);
        L.store_ns += static_cast<double>(nsSince(c0));
        L.cache_calls += 1;
    }
    fs::remove_all(cache);
    fs::remove_all(scratch);
    L.rounds += 1;
}

std::vector<Metric>
measureLayers(const Setup &setup, const Args &args, Checker &checker,
              uint64_t *digest)
{
    LayerSums L;
    const auto start = Clock::now();
    for (uint64_t rep = 0;; ++rep) {
        const auto r0 = Clock::now();
        traceRound(setup, args, rep, checker, L, digest);
        const double round_s = secondsSince(r0);
        if (secondsSince(start) + round_s > args.seconds)
            break;
    }
    const double kinstr = L.instr / 1e3;
    const double ticked = static_cast<double>(L.hooks[kTick].calls);
    const double core_self_ns = L.run_ns - L.engine_ns;
    auto perCall = [&L](Hook h) {
        return ratio(static_cast<double>(L.hooks[h].ns),
                     static_cast<double>(L.hooks[h].calls));
    };
    // Conservation line for the self-test: the split sums to Core::run
    // by construction (self time is the remainder).
    std::fprintf(stderr,
                 "  layer-split core_run_ns=%.0f engine_ns=%.0f "
                 "core_self_ns=%.0f rounds=%.0f\n",
                 L.run_ns, L.engine_ns, core_self_ns, L.rounds);
    return {
        {"core.self_ns_per_cycle", ratio(core_self_ns, ticked), "ns"},
        {"core.ticked_share", ratio(ticked, L.cycles), "share"},
        {"core.cycles_per_kinstr", ratio(L.cycles, kinstr),
         "cycles/kinstr"},
        {"core.ipc", ratio(L.instr, L.cycles), "instr/cycle"},
        {"engine.share", ratio(L.engine_ns, L.run_ns), "share"},
        {"engine.tick_ns_per_cycle", perCall(kTick), "ns"},
        {"engine.rename_ns", perCall(kRename), "ns"},
        {"engine.retire_ns", perCall(kRetire), "ns"},
        {"engine.squash_ns", perCall(kSquash), "ns"},
        {"engine.loaddata_ns", perCall(kLoadData), "ns"},
        {"engine.queries_per_cycle", ratio(L.queries, L.cycles),
         "1/cycle"},
        {"engine.delay_cycles_per_kinstr", ratio(L.delay_cycles, kinstr),
         "cycles/kinstr"},
        {"engine.untaint_events_per_kinstr",
         ratio(L.untaint_events, kinstr), "1/kinstr"},
        {"mem.accesses_per_kinstr", ratio(L.l1d_accesses, kinstr),
         "1/kinstr"},
        {"mem.l1d_miss_rate", ratio(L.l1d_misses, L.l1d_accesses),
         "share"},
        {"mem.mshr_rejects_per_kinstr", ratio(L.mshr_rejects, kinstr),
         "1/kinstr"},
        {"mem.access_ns", ratio(L.mem_ns, L.mem_accesses), "ns"},
        {"bp.mispredicts_per_kinstr", ratio(L.mispredicts, kinstr),
         "1/kinstr"},
        {"runner.busy_share", ratio(L.busy_host_s, L.pool_s), "share"},
        {"runner.unique_jobs", ratio(L.unique_jobs, L.rounds), "count"},
        {"runner.memo_hits", ratio(L.memo_hits, L.rounds), "count"},
        {"cache.hits", ratio(L.cache_hits, L.rounds), "count"},
        {"cache.misses", ratio(L.cache_misses, L.rounds), "count"},
        {"cache.bytes_written", ratio(L.cache_bytes, L.rounds), "bytes"},
        {"cache.key_us", ratio(L.key_ns / 1e3, L.cache_calls), "us"},
        {"cache.lookup_us", ratio(L.lookup_ns / 1e3, L.cache_calls),
         "us"},
        {"cache.decode_us", ratio(L.decode_ns / 1e3, L.cache_calls),
         "us"},
        {"cache.store_us", ratio(L.store_ns / 1e3, L.cache_calls), "us"},
        {"sim.ctor_ms", ratio(L.sim_ctor_ns / 1e6, L.jobs), "ms"},
        {"workloads.build_ms", setup.registry_ms, "ms"},
        {"trace_overhead_pct",
         100.0 * (ratio(L.traced_host_s, L.untraced_host_s) - 1.0), "%"},
    };
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("missing mode (setup | run)");
    Args a;
    a.mode = argv[1];
    if (a.mode != "setup" && a.mode != "run")
        throw std::invalid_argument("unknown mode " + a.mode);
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--quick") {
            a.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = std::stoi(v);
        else if (flag == "--work-dir")
            a.work_dir = v;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.workload.empty() || a.work_dir.empty())
        throw std::invalid_argument("--workload and --work-dir are "
                                    "required");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace takes 0 or 1");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

int
runMain(const Args &args)
{
    const Setup setup = setUp(args.workload, args.quick, args.work_dir);
    if (args.mode == "setup") {
        timespec ts{};
        clock_gettime(CLOCK_MONOTONIC, &ts);
        std::printf("%lld\n",
                    static_cast<long long>(ts.tv_sec) * 1000000000LL +
                        ts.tv_nsec);
        fs::remove_all(setup.work_dir);
        return 0;
    }
    Checker checker(setup.grid);
    uint64_t digest = 0;
    std::fprintf(stderr,
                 "[perfbench] %s: %zu jobs, %u stream(s) x %u worker(s), "
                 "fast-forward %s, trace %d\n",
                 setup.spec.name, setup.grid.size(), setup.spec.streams,
                 setup.spec.workers,
                 setup.spec.fast_forward ? "on" : "off", args.trace);
    const std::vector<Metric> metrics =
        args.trace ? measureLayers(setup, args, checker, &digest)
                   : measureEndToEnd(setup, args, checker, &digest);
    fs::remove_all(setup.work_dir);
    report(metrics);
    std::fprintf(stderr, "  digest %s %016llx\n", setup.spec.name,
                 static_cast<unsigned long long>(digest));
    std::fprintf(stderr, "  fail_share %llu/%llu\n",
                 static_cast<unsigned long long>(checker.failed()),
                 static_cast<unsigned long long>(checker.attempted()));
    printResult(checker.failed() == 0, checker.attempted(),
                checker.failed(), metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "spt_perfbench: %s\n", e.what());
        return 2;
    }
}

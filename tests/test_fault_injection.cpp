/**
 * @file
 * Robustness subsystem tests (PR 5): the seeded fault injector
 * (sim/fault_injector.h), the runtime invariant checker
 * (uarch/invariant_checker.h), graceful sweep degradation
 * (sim/exp_runner.h RunnerPolicy), and the chaos campaign driver
 * (sim/chaos.h).
 *
 * The two properties everything here hangs on:
 *  - metamorphic architectural equivalence: faults perturb timing
 *    only, so faulted runs retire the same instructions to the same
 *    architectural state as fault-free runs;
 *  - checker honesty: zero false positives on the golden suite (and
 *    zero perturbation of its untaint counters), plus guaranteed
 *    detection of a seeded taint bug (the mutation control).
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "isa/assembler.h"
#include "sim/chaos.h"
#include "sim/exp_runner.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "uarch/invariant_checker.h"
#include "workloads/attack_programs.h"
#include "workloads/golden_suite.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

// --------------------------------------------------------------------
// FaultInjector unit behavior
// --------------------------------------------------------------------

std::vector<bool>
fireSequence(FaultInjector &inj, FaultSite site, std::size_t n)
{
    std::vector<bool> seq;
    seq.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        seq.push_back(inj.fire(site));
    return seq;
}

TEST(FaultInjector, SameSeedSameSequence)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.set(FaultSite::kCacheEvict, 100'000); // 10%
    FaultInjector a(plan);
    FaultInjector b(plan);
    const auto sa = fireSequence(a, FaultSite::kCacheEvict, 2000);
    const auto sb = fireSequence(b, FaultSite::kCacheEvict, 2000);
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(a.draws(FaultSite::kCacheEvict), 2000u);
    EXPECT_GT(a.fired(FaultSite::kCacheEvict), 0u);
    EXPECT_LT(a.fired(FaultSite::kCacheEvict), 2000u);

    FaultPlan other = plan;
    other.seed = 43;
    FaultInjector c(other);
    EXPECT_NE(sa, fireSequence(c, FaultSite::kCacheEvict, 2000));
}

TEST(FaultInjector, SitesDrawFromIndependentStreams)
{
    // Enabling (and consulting) another site must not shift the
    // Bernoulli sequence a site sees — each has its own stream.
    FaultPlan lone;
    lone.seed = 7;
    lone.set(FaultSite::kMshrStall, 50'000);
    FaultInjector a(lone);
    const auto sa = fireSequence(a, FaultSite::kMshrStall, 1000);

    FaultPlan both = lone;
    both.set(FaultSite::kIssueJitter, 200'000);
    FaultInjector b(both);
    std::vector<bool> sb;
    for (std::size_t i = 0; i < 1000; ++i) {
        b.fire(FaultSite::kIssueJitter); // interleaved consultation
        sb.push_back(b.fire(FaultSite::kMshrStall));
    }
    EXPECT_EQ(sa, sb);
}

TEST(FaultInjector, ZeroRateConsumesNoDrawsAndNeverFires)
{
    FaultPlan plan;
    plan.seed = 9;
    plan.set(FaultSite::kExtraSquash, 0);
    FaultInjector inj(plan);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(inj.fire(FaultSite::kExtraSquash));
    EXPECT_EQ(inj.draws(FaultSite::kExtraSquash), 0u);
    EXPECT_EQ(inj.totalFired(), 0u);
    // Disabled sites stay out of the campaign counters.
    EXPECT_TRUE(inj.counters().empty());
}

// --------------------------------------------------------------------
// Job-key coverage of the robustness descriptor fields
// --------------------------------------------------------------------

TEST(FaultInjection, JobKeyCoversRobustnessFields)
{
    const Program pchase = makePointerChase(128, 1);
    RunJob job;
    job.program = &pchase;
    job.engine.scheme = ProtectionScheme::kSpt;

    std::set<std::string> keys;
    keys.insert(ResultCache::canonicalKey(job));
    auto expect_fresh = [&](const RunJob &j, const char *what) {
        EXPECT_TRUE(keys.insert(ResultCache::canonicalKey(j)).second)
            << what << " not reflected in canonicalKey";
    };

    RunJob j = job;
    j.faults.seed = 5;
    expect_fresh(j, "fault seed");
    j = job;
    j.faults.set(FaultSite::kCacheEvict, 1000);
    expect_fresh(j, "cache-evict rate");
    j = job;
    j.faults.set(FaultSite::kIssueJitter, 1000);
    expect_fresh(j, "issue-jitter rate");
    j = job;
    j.invariants = true;
    expect_fresh(j, "invariants");
    j = job;
    j.watchdog_cycles = 500;
    expect_fresh(j, "watchdog_cycles");
    j = job;
    j.engine.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    expect_fresh(j, "mutation");

    // The label is presentation, not a design point: equal keys.
    j = job;
    j.label = "pretty name";
    EXPECT_FALSE(keys.insert(ResultCache::canonicalKey(j)).second);
}

// --------------------------------------------------------------------
// Invariant checker: zero false positives, zero perturbation
// --------------------------------------------------------------------

TEST(InvariantChecker, GoldenSuiteCleanAndCountersUnperturbed)
{
    // Every golden case under every Table-2 config: the checker must
    // stay silent, and — because it is observer-only — attaching it
    // must leave every engine counter (untaint.* and delay.*
    // included) bit-identical to the unobserved run. The unobserved
    // run lets memStage charge a frozen walk's delay without walking;
    // the checked one walks every cycle, so equal delay.mem_cycles
    // pin that shortcut under every scheme's gate.
    std::vector<RunJob> grid;
    for (const NamedConfig &nc : table2Configs()) {
        for (const GoldenCase &c : goldenSuite()) {
            RunJob plain;
            plain.program = &c.program;
            plain.engine = nc.engine;
            plain.attack_model = c.model;
            plain.label = nc.name + "/" + c.name;
            RunJob checked = plain;
            checked.invariants = true;
            grid.push_back(plain);
            grid.push_back(checked);
        }
    }
    ExpRunner runner(2);
    const std::vector<RunOutcome> out = runner.run(grid);
    for (std::size_t i = 0; i < out.size(); i += 2) {
        const RunOutcome &plain = out[i];
        const RunOutcome &checked = out[i + 1];
        EXPECT_EQ(checked.status, RunStatus::kOk)
            << grid[i].label << ": " << checked.diagnostics_json;
        EXPECT_EQ(checked.diagnostics_json, "[]") << grid[i].label;
        EXPECT_EQ(plain.engine_counters, checked.engine_counters)
            << grid[i].label;
        EXPECT_EQ(plain.result.cycles, checked.result.cycles)
            << grid[i].label;
        EXPECT_EQ(plain.arch_regs, checked.arch_regs)
            << grid[i].label;
    }
}

// --------------------------------------------------------------------
// Mutation control: the checker must catch a seeded taint bug
// --------------------------------------------------------------------

TEST(InvariantChecker, DetectsSeededLeakyMemGate)
{
    const Program pchase = makePointerChase(256, 1);
    RunJob job;
    job.program = &pchase;
    job.engine.scheme = ProtectionScheme::kSpt;
    job.engine.spt.method = UntaintMethod::kBackward;
    job.engine.spt.shadow = ShadowKind::kShadowL1;
    job.engine.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    job.invariants = true;

    ExpRunner runner(1);
    RunnerPolicy policy;
    policy.keep_going = true;
    const std::vector<RunOutcome> out = runner.run({job}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::kViolation);
    EXPECT_NE(out[0].diagnostics_json.find("tainted-transmitter"),
              std::string::npos)
        << out[0].diagnostics_json;
    // The report's engine counters include the delay totals so far,
    // although the violation fired mid-run.
    EXPECT_NE(out[0].diagnostics_json.find("\"delay.mem_cycles\""),
              std::string::npos)
        << out[0].diagnostics_json;
    // The leaky gate actually opened: the bug manifested, the
    // checker did not fire vacuously.
    EXPECT_GT(out[0].counter("mutation.leaky_gate_opens"), 0u);
    // Timing bug only: the run still computes the right answer.
    EXPECT_TRUE(out[0].result.halted);
}

// --------------------------------------------------------------------
// The memory-gate memo is checked, not trusted
// --------------------------------------------------------------------

/** Opens memory on a flag the test flips without telling the core,
 *  so a memoised verdict can go stale. */
class FlagGateEngine : public SecurityEngine
{
  public:
    const char *name() const override { return "flag-gate"; }
    bool mayAccessMemory(const DynInst &) const override
    {
        return open;
    }
    bool open = false;
};

struct FlagGateRun {
    std::unique_ptr<Core> core;
    std::unique_ptr<InvariantChecker> checker;
};

/** Blocks a load at the flag gate, opens the gate (announcing the
 *  change to the core or not) and runs on with the checker on. */
void
runFlagGate(bool announce_change, FlagGateRun &run)
{
    const Program p = assemble(R"(
    li   t0, 0x100000
    ld   a7, 0(t0)
    halt
)");
    auto engine = std::make_unique<FlagGateEngine>();
    FlagGateEngine *gate = engine.get();
    CoreParams cp;
    cp.attack_model = AttackModel::kFuturistic;
    run.core = std::make_unique<Core>(p, cp, MemorySystemParams{},
                                      std::move(engine));
    Core &core = *run.core;
    run.checker = std::make_unique<InvariantChecker>(core);
    core.setObserver(run.checker.get());
    // The load reaches the gate and blocks; the machine then stalls
    // with a frozen gate epoch.
    for (int c = 0; c < 200; ++c)
        core.tick();
    ASSERT_EQ(core.loadQueue().size(), 1u);
    ASSERT_EQ(core.loadQueue()[0]->gate_epoch, core.gateEpoch());
    ASSERT_FALSE(core.loadQueue()[0]->gate_open);
    gate->open = true;
    if (announce_change)
        core.noteGateInputsChanged();
    core.run(10'000);
}

TEST(InvariantChecker, DetectsStaleGateMemo)
{
    FlagGateRun run;
    runFlagGate(false, run);
    ASSERT_TRUE(run.checker);
    EXPECT_GT(run.checker->violations(), 0u);
    ASSERT_FALSE(run.checker->reports().empty());
    EXPECT_EQ(run.checker->reports()[0].kind, "gate-memo");
    // The stale memo kept the load blocked.
    EXPECT_FALSE(run.core->halted());
}

TEST(InvariantChecker, AnnouncedGateChangeKeepsMemoCurrent)
{
    FlagGateRun run;
    runFlagGate(true, run);
    ASSERT_TRUE(run.checker);
    EXPECT_EQ(run.checker->violations(), 0u);
    EXPECT_TRUE(run.core->halted());
}

// --------------------------------------------------------------------
// Watchdogs
// --------------------------------------------------------------------

TEST(Watchdog, TinyRetireWatchdogReportsLivelock)
{
    // A 10-cycle commit-progress watchdog trips on the first cold
    // DRAM miss; the run must end cleanly as kLivelock (no panic)
    // with a synthesized diagnostic even without the checker.
    const Program pchase = makePointerChase(256, 1);
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.core.watchdog_cycles = 10;
    Simulator sim(pchase, cfg);
    const SimResult r = sim.run();
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.termination, Termination::kLivelock);
    EXPECT_NE(sim.diagnosticsJson(), "[]");
    EXPECT_NE(sim.diagnosticsJson().find("livelock"),
              std::string::npos);
}

TEST(Watchdog, CheckerLivelockAndRunnerClassification)
{
    const Program pchase = makePointerChase(256, 1);
    RunJob job;
    job.program = &pchase;
    job.engine.scheme = ProtectionScheme::kSpt;
    job.watchdog_cycles = 10;
    job.invariants = true;
    RunnerPolicy policy;
    policy.keep_going = true;
    const std::vector<RunOutcome> out =
        ExpRunner(1).run({job}, policy);
    EXPECT_EQ(out[0].status, RunStatus::kLivelock);
    EXPECT_EQ(out[0].result.termination, Termination::kLivelock);
    // One detector, one report: the core watchdog's.
    const std::string &diag = out[0].diagnostics_json;
    const std::string kind = "\"kind\": \"livelock\"";
    const std::size_t first = diag.find(kind);
    ASSERT_NE(first, std::string::npos) << diag;
    EXPECT_EQ(diag.find(kind, first + 1), std::string::npos) << diag;

    // With instructions in flight when it trips, the report carries
    // the checker's event history ("cycle=... <event> seq=...").
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.core.watchdog_cycles = 10;
    cfg.core.perfect_icache = true;
    cfg.invariants = true;
    Simulator sim(pchase, cfg);
    EXPECT_EQ(sim.run().termination, Termination::kLivelock);
    EXPECT_NE(sim.diagnosticsJson().find("cycle="), std::string::npos)
        << sim.diagnosticsJson();
}

TEST(Watchdog, CycleBudgetClassifiesAsTimeout)
{
    const Program pchase = makePointerChase(256, 1);
    RunJob job;
    job.program = &pchase;
    job.engine.scheme = ProtectionScheme::kUnsafeBaseline;
    job.max_cycles = 200; // far too small to finish
    RunnerPolicy policy;
    policy.keep_going = true;
    const std::vector<RunOutcome> out =
        ExpRunner(1).run({job}, policy);
    EXPECT_EQ(out[0].status, RunStatus::kTimeout);
    EXPECT_EQ(out[0].result.termination, Termination::kMaxCycles);
}

// --------------------------------------------------------------------
// Graceful sweep degradation
// --------------------------------------------------------------------

TEST(KeepGoing, CrashIsolatedToItsSlot)
{
    const Program pchase = makePointerChase(256, 1);
    std::vector<RunJob> grid;
    for (int i = 0; i < 4; ++i) {
        RunJob job;
        job.program = &pchase;
        job.engine.scheme = ProtectionScheme::kUnsafeBaseline;
        job.seed = static_cast<uint64_t>(i);
        grid.push_back(job);
    }
    grid[2].engine.scheme = static_cast<ProtectionScheme>(0xee);
    grid[2].label = "the broken one";

    ExpRunner runner(2);
    RunnerPolicy policy;
    policy.keep_going = true;
    const std::vector<RunOutcome> out = runner.run(grid, policy);
    ASSERT_EQ(out.size(), 4u);
    for (const std::size_t ok : {0u, 1u, 3u}) {
        EXPECT_EQ(out[ok].status, RunStatus::kOk) << "slot " << ok;
        EXPECT_TRUE(out[ok].result.halted) << "slot " << ok;
    }
    EXPECT_EQ(out[2].status, RunStatus::kCrash);
    EXPECT_NE(out[2].error.find("unknown protection scheme"),
              std::string::npos)
        << out[2].error;
    EXPECT_EQ(out[2].job_desc, "the broken one");
    EXPECT_EQ(runner.lastSweep().failed_jobs, 1u);
    EXPECT_EQ(runner.lastSweep().first_failure, "the broken one");
}

TEST(KeepGoing, DefaultPolicyStillThrowsDeterministically)
{
    // The historic contract (pinned also by test_exp_runner.cpp):
    // without keep_going the sweep rethrows — and now always the
    // lowest-indexed failing slot, for any worker count.
    const Program pchase = makePointerChase(256, 1);
    std::vector<RunJob> grid;
    for (int i = 0; i < 6; ++i) {
        RunJob job;
        job.program = &pchase;
        job.engine.scheme = ProtectionScheme::kUnsafeBaseline;
        job.seed = static_cast<uint64_t>(i);
        grid.push_back(job);
    }
    grid[1].engine.scheme = static_cast<ProtectionScheme>(0xee);
    grid[4].engine.scheme = static_cast<ProtectionScheme>(0xef);
    for (const unsigned workers : {1u, 4u}) {
        try {
            ExpRunner(workers).run(grid);
            FAIL() << "sweep did not throw";
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what())
                          .find("unknown protection scheme"),
                      std::string::npos);
        }
    }
}

// --------------------------------------------------------------------
// Chaos campaigns
// --------------------------------------------------------------------

ChaosConfig
smallCampaign(const Program &pchase, const Program &chacha,
              const Program &spectre)
{
    ChaosConfig cfg;
    cfg.seed = 1234;
    cfg.rate_ppm = 20'000;
    cfg.workloads = {{"pchase", &pchase},
                     {"chacha20", &chacha},
                     {"spectre-v1", &spectre}};
    cfg.engines = chaosEngines();
    return cfg;
}

TEST(ChaosCampaign, MetamorphicEquivalenceAcrossAllFaultKinds)
{
    // Every fault site x three engines x three behavior classes:
    // the campaign must be clean (no violations, no architectural
    // divergence, no failed runs) while actually injecting faults.
    const Program pchase = makePointerChase(256, 1);
    const Program chacha = makeChaCha20(2);
    const Program spectre = makeSpectreV1().program;
    ChaosConfig cfg = smallCampaign(pchase, chacha, spectre);
    const ChaosResult result = runChaosCampaign(cfg);
    EXPECT_TRUE(result.summary.clean())
        << result.json.substr(0, 4000);
    EXPECT_GT(result.summary.faults_injected, 0u);
    // 3 workloads x 3 engines x (1 baseline + 6 fault sites).
    EXPECT_EQ(result.summary.runs, 3u * 3u * 7u);
    EXPECT_TRUE(result.diagnostics.empty());
}

TEST(ChaosCampaign, ByteIdenticalAcrossWorkerCounts)
{
    const Program pchase = makePointerChase(256, 1);
    const Program chacha = makeChaCha20(2);
    const Program spectre = makeSpectreV1().program;
    ChaosConfig cfg = smallCampaign(pchase, chacha, spectre);
    cfg.mutate = true;
    cfg.jobs = 1;
    const ChaosResult serial = runChaosCampaign(cfg);
    cfg.jobs = 4;
    const ChaosResult pooled = runChaosCampaign(cfg);
    EXPECT_EQ(serial.json, pooled.json);
    EXPECT_TRUE(serial.summary.mutation_detected);
}

TEST(ChaosCampaign, MutationControlDetectsSeededBug)
{
    const Program pchase = makePointerChase(256, 1);
    const Program chacha = makeChaCha20(2);
    const Program spectre = makeSpectreV1().program;
    ChaosConfig cfg = smallCampaign(pchase, chacha, spectre);
    cfg.mutate = true;
    const ChaosResult result = runChaosCampaign(cfg);
    EXPECT_TRUE(result.summary.mutation_ran);
    EXPECT_TRUE(result.summary.mutation_detected);
    // The campaign proper stays clean; only mutation cells fire.
    EXPECT_TRUE(result.summary.clean());
    EXPECT_FALSE(result.diagnostics.empty());
}

} // namespace
} // namespace spt

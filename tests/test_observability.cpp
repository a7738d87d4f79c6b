/**
 * @file
 * Observability subsystem (sim/trace.h, sim/profile.h): golden-trace
 * byte stability, zero perturbation when observers are off,
 * delay-cause conservation against the engine's own counters, trace
 * checker diagnostics, and interval-metrics structure.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "sim/exp_runner.h"
#include "sim/simulator.h"
#include "workloads/attack_programs.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

struct TracedRun {
    std::string text;
    std::string pipeview;
    SimResult result;
    std::map<std::string, uint64_t> engine_counters;
};

TracedRun
runTraced(const Program &program, const SimConfig &cfg)
{
    Simulator sim(program, cfg);
    std::ostringstream text, pipeview;
    sim.enableTrace(&text, &pipeview);
    TracedRun out;
    out.result = sim.run();
    out.text = text.str();
    out.pipeview = pipeview.str();
    out.engine_counters = sim.core().engine().stats().counters();
    return out;
}

SimConfig
sptConfig()
{
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.engine.spt.method = UntaintMethod::kBackward;
    cfg.engine.spt.shadow = ShadowKind::kShadowL1;
    cfg.core.attack_model = AttackModel::kFuturistic;
    return cfg;
}

TEST(Trace, GoldenByteStableAcrossRuns)
{
    // pchase: tainted pointer loads delay, reach the VP, declassify
    // and shadow-untaint — all taint-lifecycle event kinds appear
    // (ct-chacha20 would be vacuous here: constant-time kernels
    // produce no untaint events at all, see the golden baseline).
    const Program program = makePointerChase(256, 1);
    const SimConfig cfg = sptConfig();
    const TracedRun a = runTraced(program, cfg);
    const TracedRun b = runTraced(program, cfg);
    EXPECT_TRUE(a.result.halted);
    EXPECT_FALSE(a.text.empty());
    EXPECT_FALSE(a.pipeview.empty());
    // Byte-for-byte: the trace is a pure function of the simulated
    // machine (no host time, no pointer values).
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.pipeview, b.pipeview);

    // A real trace must contain the taint lifecycle, not just the
    // pipeline skeleton.
    EXPECT_NE(a.text.find(" taint "), std::string::npos);
    EXPECT_NE(a.text.find(" untaint "), std::string::npos);
    EXPECT_NE(a.text.find(" retire "), std::string::npos);
    EXPECT_NE(a.pipeview.find("O3PipeView:fetch:"),
              std::string::npos);
    EXPECT_NE(a.pipeview.find("O3PipeView:retire:"),
              std::string::npos);

    // And it must satisfy its own consistency checker.
    std::istringstream in(a.text);
    std::string error;
    EXPECT_TRUE(validateTraceText(in, &error)) << error;
}

TEST(Trace, ObserversDoNotPerturbTheMachine)
{
    const Program program = makeChaCha20(2);
    SimConfig plain = sptConfig();

    Simulator bare(program, plain);
    const SimResult bare_result = bare.run();
    const auto bare_counters =
        bare.core().engine().stats().counters();

    SimConfig observed = sptConfig();
    observed.profile = true;
    observed.interval_stats = 500;
    const TracedRun traced = runTraced(program, observed);

    // Every observer on at once must leave the simulated machine
    // bit-identical: same cycles, same instructions, same engine
    // counters (delay.* and untaint.* included).
    EXPECT_EQ(traced.result.cycles, bare_result.cycles);
    EXPECT_EQ(traced.result.instructions, bare_result.instructions);
    EXPECT_EQ(traced.engine_counters, bare_counters);
}

TEST(Profile, DelayAttributionConservesEngineCounter)
{
    // Every scheme that delays transmitters, over workloads with
    // and without actual delays: the profiler's attributed total
    // must equal the engine's delay.total_cycles exactly (both are
    // fed from the same single call site per gate).
    const Program pchase = makePointerChase(256, 1);
    const Program chacha = makeChaCha20(2);
    const AttackProgram spectre = makeSpectreV1();

    std::vector<std::pair<const char *, ProtectionScheme>> schemes =
        {{"spt", ProtectionScheme::kSpt},
         {"secure-baseline", ProtectionScheme::kSecureBaseline},
         {"stt", ProtectionScheme::kStt}};
    uint64_t delayed_total = 0;
    for (const auto &[label, scheme] : schemes) {
        for (const Program *program :
             {&pchase, &chacha, &spectre.program}) {
            SimConfig cfg = sptConfig();
            cfg.engine.scheme = scheme;
            cfg.profile = true;
            Simulator sim(*program, cfg);
            sim.run();
            ASSERT_NE(sim.profiler(), nullptr);
            const uint64_t engine_total =
                sim.stat("engine.delay.total_cycles");
            EXPECT_EQ(sim.profiler()->totalCycles(), engine_total)
                << label;
            // Per-cause cycles must re-sum to the same total: no
            // cycle charged twice or dropped.
            uint64_t by_cause = 0;
            for (size_t c = 0;
                 c < static_cast<size_t>(DelayCause::kNumCauses);
                 ++c)
                by_cause += sim.profiler()->causeCycles(
                    static_cast<DelayCause>(c));
            EXPECT_EQ(by_cause, engine_total) << label;
            // And the per-PC map as well.
            uint64_t by_pc = 0;
            for (const auto &[pc, pd] : sim.profiler()->byPc())
                by_pc += pd.total;
            EXPECT_EQ(by_pc, engine_total) << label;
            delayed_total += engine_total;
        }
    }
    // The grid must exercise real delays somewhere or the equalities
    // above are vacuous.
    EXPECT_GT(delayed_total, 0u);
}

TEST(Profile, JsonAndTableAreDeterministic)
{
    const Program program = makePointerChase(256, 1);
    SimConfig cfg = sptConfig();
    cfg.profile = true;

    auto run_once = [&] {
        Simulator sim(program, cfg);
        sim.run();
        std::ostringstream table;
        sim.profiler()->writeTable(table);
        return std::make_pair(sim.profiler()->toJson(),
                              table.str());
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_NE(a.first.find("\"total_delay_cycles\""),
              std::string::npos);
    EXPECT_NE(a.second.find("top delay sources"),
              std::string::npos);
}

TEST(ExpRunnerObservability, ArtifactsIdenticalAcrossWorkerCounts)
{
    const Program pchase = makePointerChase(256, 1);
    const Program hashtab = makeHashTable(300, 300);

    std::vector<RunJob> grid;
    for (const Program *program : {&pchase, &hashtab}) {
        RunJob job;
        job.program = program;
        job.engine.scheme = ProtectionScheme::kSpt;
        job.engine.spt.method = UntaintMethod::kBackward;
        job.engine.spt.shadow = ShadowKind::kShadowL1;
        job.profile = true;
        grid.push_back(job);
    }

    const std::vector<RunOutcome> a = ExpRunner(1).run(grid);
    const std::vector<RunOutcome> b = ExpRunner(4).run(grid);
    ASSERT_EQ(a.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_FALSE(a[i].profile_json.empty()) << "slot " << i;
        EXPECT_EQ(a[i].profile_json, b[i].profile_json)
            << "slot " << i;
    }

    // The profile flag is part of the job key: a profiled and a
    // plain run of the same design point may not share a slot.
    RunJob plain = grid[0];
    plain.profile = false;
    EXPECT_NE(ResultCache::canonicalKey(grid[0]),
              ResultCache::canonicalKey(plain));
}

TEST(TraceChecker, AcceptsWellFormedAndRejectsMalformed)
{
    auto check = [](const char *trace, std::string *error) {
        std::istringstream in(trace);
        return validateTraceText(in, error);
    };
    std::string error;

    EXPECT_TRUE(check("1 fetch seq=1 pc=0 nop\n"
                      "2 rename seq=1 pc=0\n"
                      "3 retire seq=1 pc=0\n",
                      &error))
        << error;

    // First event must be fetch.
    EXPECT_FALSE(check("2 rename seq=1 pc=0\n", &error));
    EXPECT_NE(error.find("not fetch"), std::string::npos) << error;

    // Per-seq cycles may not go backwards.
    EXPECT_FALSE(check("5 fetch seq=1 pc=0 nop\n"
                       "9 fetch seq=2 pc=1 nop\n"
                       "7 rename seq=1 pc=0\n",
                       &error));

    // Nothing after retire.
    EXPECT_FALSE(check("1 fetch seq=1 pc=0 nop\n"
                       "2 retire seq=1 pc=0\n"
                       "3 vp seq=1 pc=0\n",
                       &error));
    EXPECT_NE(error.find("after retire"), std::string::npos)
        << error;

    // delay-start needs a matching closer before retire...
    EXPECT_FALSE(check("1 fetch seq=1 pc=0 nop\n"
                       "2 delay-start seq=1 pc=0 kind=mem\n"
                       "3 retire seq=1 pc=0\n",
                       &error));
    EXPECT_NE(error.find("open delay"), std::string::npos) << error;

    // ...or by end of trace.
    EXPECT_FALSE(check("1 fetch seq=1 pc=0 nop\n"
                       "2 delay-start seq=1 pc=0 kind=mem\n",
                       &error));

    // A squash closes the interval.
    EXPECT_TRUE(check("1 fetch seq=1 pc=0 nop\n"
                      "2 delay-start seq=1 pc=0 kind=mem\n"
                      "3 delay-squash seq=1 pc=0 kind=mem cycles=1\n"
                      "3 squash seq=1 pc=0\n",
                      &error))
        << error;

    // No nested intervals.
    EXPECT_FALSE(check("1 fetch seq=1 pc=0 nop\n"
                       "2 delay-start seq=1 pc=0 kind=mem\n"
                       "3 delay-start seq=1 pc=0 kind=mem\n",
                       &error));
    EXPECT_NE(error.find("nested"), std::string::npos) << error;
}

TEST(IntervalStats, SamplesCoverTheRunExactly)
{
    const Program program = makeChaCha20(2);
    SimConfig cfg = sptConfig();
    cfg.interval_stats = 500;
    Simulator sim(program, cfg);
    const SimResult r = sim.run();
    ASSERT_NE(sim.intervals(), nullptr);
    const auto &samples = sim.intervals()->samples();
    ASSERT_FALSE(samples.empty());

    uint64_t instructions = 0, prev_cycle = 0;
    for (const auto &s : samples) {
        EXPECT_EQ(s.cycles, s.cycle - prev_cycle);
        // Every interval except the final partial one spans at
        // least the period.
        if (&s != &samples.back()) {
            EXPECT_GE(s.cycles, 500u);
        }
        prev_cycle = s.cycle;
        instructions += s.instructions;
    }
    // The series tiles the run: ends at the final cycle and sums
    // to the retired-instruction total.
    EXPECT_EQ(samples.back().cycle, r.cycles);
    EXPECT_EQ(instructions, r.instructions);

    const std::string json = sim.intervals()->toJson();
    EXPECT_NE(json.find("\"period\": 500"), std::string::npos);
    EXPECT_NE(json.find("\"tainted_regs\""), std::string::npos);
}

} // namespace
} // namespace spt

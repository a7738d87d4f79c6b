/**
 * @file
 * Pipeline parameter sweeps: the core must stay architecturally
 * correct (lockstep vs the functional CPU) across widths, window
 * sizes and port counts — and narrower machines must never be
 * faster.
 */

#include <gtest/gtest.h>

#include "isa/functional_cpu.h"
#include "isa/program_fuzzer.h"
#include "sim/simulator.h"

namespace spt {
namespace {

uint64_t
runWithParams(const Program &p, const CoreParams &cp,
              ProtectionScheme scheme = ProtectionScheme::kSpt)
{
    SimConfig cfg;
    cfg.core = cp;
    cfg.core.perfect_icache = true;
    cfg.engine.scheme = scheme;
    cfg.lockstep_check = true;
    cfg.max_cycles = 10'000'000;
    Simulator sim(p, cfg);
    const SimResult r = sim.run();
    EXPECT_TRUE(r.halted);

    FunctionalCpu cpu(p);
    cpu.run(10'000'000);
    EXPECT_EQ(sim.core().archReg(17), cpu.reg(17));
    return r.cycles;
}

TEST(PipelineParams, WidthSweepCorrectAndMonotone)
{
    const Program p = fuzzProgram(0x51de);
    uint64_t prev = ~uint64_t{0};
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(width);
        CoreParams cp;
        cp.fetch_width = width;
        cp.rename_width = width;
        cp.issue_width = width;
        cp.commit_width = width;
        const uint64_t cycles = runWithParams(p, cp);
        // Wider machines never lose (small tolerance for predictor
        // history interactions).
        EXPECT_LE(cycles, prev + prev / 20);
        prev = cycles;
    }
}

TEST(PipelineParams, RobSweep)
{
    const Program p = fuzzProgram(0x90b);
    for (unsigned rob : {16u, 48u, 192u}) {
        SCOPED_TRACE(rob);
        CoreParams cp;
        cp.rob_size = rob;
        cp.rs_size = rob / 2;
        runWithParams(p, cp);
    }
}

TEST(PipelineParams, SingleLoadPort)
{
    const Program p = fuzzProgram(0xab);
    CoreParams one;
    one.load_ports = 1;
    one.store_ports = 1;
    CoreParams four;
    four.load_ports = 4;
    four.store_ports = 2;
    const uint64_t c1 = runWithParams(p, one);
    const uint64_t c4 = runWithParams(p, four);
    EXPECT_LE(c4, c1);
}

TEST(PipelineParams, BroadcastWidthSweepUnderSpt)
{
    const Program p = fuzzProgram(515);
    uint64_t prev = ~uint64_t{0};
    for (unsigned w : {1u, 3u, 16u}) {
        SCOPED_TRACE(w);
        SimConfig cfg;
        cfg.core.perfect_icache = true;
        cfg.engine.scheme = ProtectionScheme::kSpt;
        cfg.engine.spt.broadcast_width = w;
        cfg.lockstep_check = true;
        Simulator sim(p, cfg);
        const SimResult r = sim.run();
        EXPECT_TRUE(r.halted);
        EXPECT_LE(r.cycles, prev);
        prev = r.cycles;
    }
}

TEST(PipelineParams, FrontendDepthAffectsMispredictCost)
{
    // A branchy program pays more per mispredict on a deeper
    // frontend.
    FuzzConfig fc;
    fc.branch_fraction = 1.0;
    const Program p = fuzzProgram(303, fc);
    CoreParams shallow;
    shallow.frontend_extra_delay = 1;
    CoreParams deep;
    deep.frontend_extra_delay = 12;
    const uint64_t c_shallow = runWithParams(
        p, shallow, ProtectionScheme::kUnsafeBaseline);
    const uint64_t c_deep = runWithParams(
        p, deep, ProtectionScheme::kUnsafeBaseline);
    EXPECT_LT(c_shallow, c_deep);
}

} // namespace
} // namespace spt

/**
 * @file
 * Tests for the baseline protection engines (SecureBaseline, STT),
 * the engine factory, and cross-scheme behavioral expectations
 * (e.g., SecureBaseline is never faster than Unsafe and never
 * slower than any SPT variant on the same program).
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/baseline_engines.h"
#include "core/engine_factory.h"
#include "isa/assembler.h"
#include "sim/simulator.h"

namespace spt {
namespace {

TEST(EngineFactory, BuildsEveryScheme)
{
    for (const NamedConfig &nc : table2Configs()) {
        auto engine = makeEngine(nc.engine);
        ASSERT_NE(engine, nullptr) << nc.name;
        EXPECT_STRNE(engine->name(), "");
        EXPECT_EQ(engineConfigName(nc.engine), nc.name);
    }
}

TEST(EngineFactory, NamesMatchTable2)
{
    EngineConfig cfg;
    cfg.scheme = ProtectionScheme::kSpt;
    cfg.spt.method = UntaintMethod::kForward;
    cfg.spt.shadow = ShadowKind::kNone;
    EXPECT_EQ(engineConfigName(cfg), "SPT{Fwd,NoShadowL1}");
    cfg.spt.method = UntaintMethod::kIdeal;
    cfg.spt.shadow = ShadowKind::kShadowMem;
    EXPECT_EQ(engineConfigName(cfg), "SPT{Ideal,ShadowMem}");
    cfg.scheme = ProtectionScheme::kStt;
    EXPECT_EQ(engineConfigName(cfg), "STT");
}

const char *kMixedProgram = R"(
    .data
ptrs:
    .quad 0x100020
    .quad 0x100030
    .quad 5
    .quad 0
    .quad 11
    .quad 0
    .text
    li   s0, 60
    li   s1, 0x100000
loop:
    ld   t0, 0(s1)      # tainted pointer
    ld   t1, 0(t0)      # dependent (delayed) load
    add  a7, a7, t1
    sd   a7, 56(s1)
    addi s0, s0, -1
    bnez s0, loop
    halt
)";

uint64_t
cyclesUnder(ProtectionScheme scheme, AttackModel model)
{
    EngineConfig ec;
    ec.scheme = scheme;
    const Program p = assemble(kMixedProgram);
    const SimResult r = runProgram(p, ec, model);
    EXPECT_TRUE(r.halted);
    return r.cycles;
}

TEST(Engines, OverheadOrderingFuturistic)
{
    const uint64_t unsafe =
        cyclesUnder(ProtectionScheme::kUnsafeBaseline,
                    AttackModel::kFuturistic);
    const uint64_t secure =
        cyclesUnder(ProtectionScheme::kSecureBaseline,
                    AttackModel::kFuturistic);
    const uint64_t spt = cyclesUnder(ProtectionScheme::kSpt,
                                     AttackModel::kFuturistic);
    const uint64_t stt = cyclesUnder(ProtectionScheme::kStt,
                                     AttackModel::kFuturistic);
    // The paper's fundamental ordering.
    EXPECT_LE(unsafe, spt);
    EXPECT_LE(spt, secure);
    EXPECT_LE(unsafe, stt);
    EXPECT_LE(stt, secure);
}

TEST(Engines, FuturisticCostsAtLeastSpectre)
{
    for (ProtectionScheme s : {ProtectionScheme::kSecureBaseline,
                               ProtectionScheme::kSpt}) {
        const uint64_t fut =
            cyclesUnder(s, AttackModel::kFuturistic);
        const uint64_t spec =
            cyclesUnder(s, AttackModel::kSpectre);
        EXPECT_GE(fut + 5, spec); // allow tiny noise
    }
}

TEST(SttEngine, RootTrackingThroughDataflow)
{
    // White-box: run the core a few cycles and check that a load's
    // dependents are s-tainted until the load reaches the VP.
    const Program p = assemble(R"(
    li   t0, 0x100000
    li   t5, 9
    li   t6, 3
    div  t5, t5, t6     # slow filler (longer than the cold load)
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    div  t5, t5, t6
    ld   t1, 0(t0)
    add  t2, t1, t0
    add  t3, t2, t0
    ld   t4, 0(t3)
    halt
)");
    EngineConfig ec;
    ec.scheme = ProtectionScheme::kStt;
    CoreParams cp;
    cp.attack_model = AttackModel::kFuturistic;
    cp.perfect_icache = true;
    Core core(p, cp, MemorySystemParams{}, makeEngine(ec));
    auto &stt = dynamic_cast<SttEngine &>(core.engine());
    bool saw_tainted_chain = false;
    while (!core.halted() && core.cycle() < 100'000) {
        core.tick();
        for (const DynInstPtr &d : core.rob()) {
            if (d->pc == 22 && !d->squashed && !d->at_vp) {
                // The dependent add chain: its source must be
                // s-tainted while the root load is speculative.
                const DynInst *root = core.findInst(d->seq - 3);
                if (root && !root->at_vp && root->completed)
                    saw_tainted_chain =
                        saw_tainted_chain ||
                        stt.regTainted(d->prs1);
            }
        }
    }
    EXPECT_TRUE(core.halted());
    EXPECT_TRUE(saw_tainted_chain);
}

TEST(SecureBaseline, DelaysEveryMemoryAccess)
{
    const Program p = assemble(kMixedProgram);
    EngineConfig ec;
    ec.scheme = ProtectionScheme::kSecureBaseline;
    SimConfig cfg;
    cfg.engine = ec;
    cfg.core.attack_model = AttackModel::kFuturistic;
    Simulator sim(p, cfg);
    sim.run();
    EXPECT_GT(sim.stat("engine.policy.mem_blocked_checks"), 0u);
}

TEST(UnsafeEngine, NeverBlocks)
{
    const Program p = assemble(kMixedProgram);
    EngineConfig ec;
    ec.scheme = ProtectionScheme::kUnsafeBaseline;
    SimConfig cfg;
    cfg.engine = ec;
    Simulator sim(p, cfg);
    sim.run();
    EXPECT_EQ(sim.stat("core.lsu.load_policy_delay_cycles"), 0u);
    EXPECT_EQ(sim.stat("core.lsu.store_policy_delays"), 0u);
}

TEST(Simulator, StatLookupAndDump)
{
    const Program p = assemble("li a0, 1\nhalt\n");
    SimConfig cfg;
    Simulator sim(p, cfg);
    sim.run();
    EXPECT_GT(sim.stat("core.commit.instructions"), 0u);
    EXPECT_THROW(sim.stat("nodot"), FatalError);
    EXPECT_THROW(sim.stat("bogus.counter"), FatalError);
    std::ostringstream os;
    sim.dumpStats(os);
    EXPECT_NE(os.str().find("commit.instructions"),
              std::string::npos);
}

} // namespace
} // namespace spt

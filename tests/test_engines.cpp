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
#include "workloads/golden_suite.h"

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
    EXPECT_GT(sim.stat("engine.delay.mem_cycles"), 0u);
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
    EXPECT_EQ(sim.stat("engine.delay.total_cycles"), 0u);
}

/** Asks every policy gate and every claim about each in-flight
 *  instruction; returns the number of instructions asked about. */
uint64_t
queryEveryGate(Core &core)
{
    SecurityEngine &engine = core.engine();
    for (const DynInstPtr &d : core.rob()) {
        engine.mayAccessMemory(*d);
        engine.mayResolveBranch(*d);
        engine.maySquashMemViolation(*d);
        for (const DelayKind kind :
             {DelayKind::kMemAccess, DelayKind::kBranchResolve,
              DelayKind::kMemOrderSquash})
            engine.transmitPublic(*d, kind);
    }
    return core.rob().size();
}

TEST(SecurityEngine, PolicyGatesAreStatsPure)
{
    // The core counts each blocked cycle once, in delay.*, so asking
    // a gate or a claim must leave the engine's counters as they
    // were. The one exception is SPT's seeded leaky-gate mutation,
    // whose gate counts the openings it lies about, and nothing else.
    static const char *const kLeakyOpens = "mutation.leaky_gate_opens";
    std::vector<NamedConfig> configs = table2Configs();
    NamedConfig leaky = configs.at(4);
    ASSERT_EQ(leaky.name, "SPT{Bwd,ShadowL1}");
    leaky.name += "+leaky-gate";
    leaky.engine.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    configs.push_back(leaky);

    for (const NamedConfig &nc : configs) {
        const bool mutated = nc.engine.spt.mutation !=
                             SptConfig::Mutation::kNone;
        uint64_t queried = 0;
        uint64_t leaky_opens = 0;
        for (const GoldenCase &c : goldenSuite()) {
            CoreParams cp;
            cp.attack_model = c.model;
            Core core(c.program, cp, MemorySystemParams{},
                      makeEngine(nc.engine));
            const StatSet &stats = core.engine().stats();
            while (!core.halted() && core.cycle() < 3000) {
                core.tick();
                std::map<std::string, uint64_t> before =
                    stats.counters();
                queried += queryEveryGate(core);
                std::map<std::string, uint64_t> after =
                    stats.counters();
                if (mutated) {
                    leaky_opens += after[kLeakyOpens] -
                                   before[kLeakyOpens];
                    before.erase(kLeakyOpens);
                    after.erase(kLeakyOpens);
                }
                ASSERT_EQ(after, before)
                    << c.name << " under " << nc.name << ", cycle "
                    << core.cycle();
            }
        }
        EXPECT_GT(queried, 0u) << nc.name;
        if (mutated) {
            EXPECT_GT(leaky_opens, 0u) << nc.name;
        }
    }
}

TEST(Simulator, StatLookupAndDump)
{
    const Program p = assemble("li a0, 1\nhalt\n");
    SimConfig cfg;
    Simulator sim(p, cfg);
    sim.run();
    EXPECT_EQ(sim.stat("core.instructions"), 2u);
    EXPECT_THROW(sim.stat("nodot"), FatalError);
    EXPECT_THROW(sim.stat("bogus.counter"), FatalError);
    std::ostringstream os;
    sim.dumpStats(os);
    EXPECT_NE(os.str().find("\ninstructions 2\n"),
              std::string::npos);
}

} // namespace
} // namespace spt

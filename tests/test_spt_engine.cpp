/**
 * @file
 * White-box tests of the SPT engine: rename-time taint rules, VP
 * declassification, forward/backward propagation through real
 * pipeline runs, broadcast-width limiting, shadow-L1 interaction,
 * store-commit taint writes, and the taint-monotonicity invariant.
 */

#include <gtest/gtest.h>

#include "core/engine_factory.h"
#include "core/spt_engine.h"
#include "isa/assembler.h"
#include "uarch/core.h"

namespace spt {
namespace {

struct Rig {
    std::unique_ptr<Core> core;
    SptEngine *engine;
};

Rig
makeRig(const Program &p, SptConfig cfg = SptConfig{},
        AttackModel model = AttackModel::kFuturistic)
{
    EngineConfig ec;
    ec.scheme = ProtectionScheme::kSpt;
    ec.spt = cfg;
    CoreParams cp;
    cp.attack_model = model;
    cp.perfect_icache = true;
    Rig rig;
    rig.core = std::make_unique<Core>(p, cp, MemorySystemParams{},
                                      makeEngine(ec));
    rig.engine = &dynamic_cast<SptEngine &>(rig.core->engine());
    return rig;
}

TEST(SptEngine, ArchitecturalRegistersStartTainted)
{
    const Program p = assemble("halt\n");
    Rig rig = makeRig(p);
    // x0's physical register is public, x1..x31 start tainted.
    EXPECT_TRUE(rig.engine->masterTaint(0).nothing());
    for (PhysReg r = 1; r < kNumArchRegs; ++r)
        EXPECT_TRUE(rig.engine->masterTaint(r).full()) << r;
}

TEST(SptEngine, RenameRules)
{
    // li produces a public value; an add of public values is
    // public; a load's output is tainted at rename; an op with a
    // tainted input is tainted.
    const Program p = assemble(R"(
    li   t0, 0x100000
    li   t1, 7
    add  t2, t0, t1
    ld   t3, 0(t0)
    add  t4, t3, t1
    halt
)");
    Rig rig = makeRig(p);
    // Tick until everything is renamed, before much retires: use a
    // long icache stall knowledge — simpler: tick and inspect once
    // the rob holds pc 4.
    DynInstPtr li0, add2, ld3, add4;
    for (int c = 0; c < 2000 && !add4; ++c) {
        rig.core->tick();
        for (const DynInstPtr &d : rig.core->rob()) {
            if (d->pc == 0) li0 = d;
            if (d->pc == 2) add2 = d;
            if (d->pc == 3) ld3 = d;
            if (d->pc == 4) add4 = d;
        }
    }
    ASSERT_TRUE(add4);
    // Inspect rename-time taint via the engine's side table (the
    // instructions may have progressed, but taint is monotone and
    // the loads' data is slow, so the interesting ones are stable).
    const auto *t_add2 = rig.engine->instTaint(add2->seq);
    const auto *t_ld3 = rig.engine->instTaint(ld3->seq);
    const auto *t_add4 = rig.engine->instTaint(add4->seq);
    if (t_add2) {
        EXPECT_TRUE(t_add2->dest.nothing());
    }
    if (t_ld3 && !t_ld3->load_data_seen) {
        EXPECT_TRUE(t_ld3->dest.full());
    }
    if (t_add4 && t_add4->src[0].any()) {
        EXPECT_TRUE(t_add4->dest.any());
    }
}

TEST(SptEngine, UntaintEventsAreCounted)
{
    // A tainted pointer chain forces declassification + backward +
    // forward events under the futuristic model.
    const Program p = assemble(R"(
    .data
boxes:
    .quad 0x100010
    .quad 0x100020
    .quad 7
    .text
    li   t0, 0x100000
    li   s5, 0x900000
    ld   s6, 0(s5)      # independent cold miss keeps the VP back
    li   s7, 3
    div  s6, s6, s7
    div  s6, s6, s7
    div  s6, s6, s7
    div  s6, s6, s7
    ld   t1, 0(t0)      # tainted pointer
    ld   t2, 0(t1)      # dependent load: operand ready before VP
    ld   t3, 0(t2)
    add  a7, t3, t3
    halt
)");
    Rig rig = makeRig(p);
    rig.core->run(100'000);
    EXPECT_TRUE(rig.core->halted());
    const StatSet &stats = rig.core->engine().stats();
    EXPECT_GT(stats.get("untaint.vp_declassify"), 0u);
    EXPECT_GT(stats.get("untaint.events"), 0u);
    // The delayed pointer loads must actually have been delayed.
    EXPECT_GT(stats.get("delay.mem_cycles"), 0u);
}

TEST(SptEngine, BroadcastIntersectsPartialOverlap)
{
    // Regression: applyBroadcast used to drop any broadcast whose
    // mask was not a subset of the master copy. With the slot flag
    // already cleared by the broadcast phase, the overlapping part
    // of the untaint was lost forever. The correct merge is an
    // intersection (both masks are sound over-approximations).
    const Program p = assemble("halt\n");
    Rig rig = makeRig(p);
    const PhysReg reg = 5;
    ASSERT_TRUE(rig.engine->masterTaint(reg).full());
    // Bytes 0-1 public elsewhere: groups 2,3 clear -> master 0b0011.
    rig.engine->injectBroadcast(reg, TaintMask::fromByteMask(0x03));
    EXPECT_EQ(rig.engine->masterTaint(reg).raw(), 0b0011);
    // Second broadcast 0b0110 is NOT a subset of 0b0011; the old
    // code returned early and left the master at 0b0011.
    rig.engine->injectBroadcast(reg, TaintMask::fromByteMask(0x06));
    EXPECT_EQ(rig.engine->masterTaint(reg).raw(), 0b0010);
}

TEST(SptEngine, DuplicateSlotsMergeIntoOneBroadcast)
{
    // Two loads off the same tainted base register reach the VP in
    // the same cycle under the Spectre model, so two source slots
    // raise flags for one physical register. Regression: the second
    // slot must merge into the first slot's broadcast instead of
    // consuming another of the `broadcast_width` slots.
    const Program p = assemble(R"(
    ld   s1, 0(s0)
    ld   s2, 8(s0)
    halt
)");
    Rig rig = makeRig(p, SptConfig{}, AttackModel::kSpectre);
    while (!rig.core->halted() && rig.core->cycle() < 100'000)
        rig.core->tick();
    ASSERT_TRUE(rig.core->halted());
    const StatSet &stats = rig.core->engine().stats();
    EXPECT_EQ(stats.get("untaint.vp_declassify"), 2u);
    EXPECT_EQ(stats.get("untaint.broadcasts"), 1u);
    // s0 = x8 maps to phys 8 initially and is never rewritten; the
    // merged broadcast must have cleared its master taint.
    EXPECT_TRUE(rig.engine->masterTaint(8).nothing());
}

TEST(SptEngine, ShadowL1RemembersDeclassifiedData)
{
    // Two passes over the same pointer cell. In pass 1 the loaded
    // pointer feeds a second load's address, so when that load
    // reaches the VP the pointer is declassified backward and the
    // retroactive shadow rule clears the cell's memory taint. Pass
    // 2 then reads untainted data.
    const Program p = assemble(R"(
    .data
cell:
    .quad 0x100010
    .quad 0
    .quad 42
    .text
    li   s0, 2
    li   t0, 0x100000
pass:
    ld   t1, 0(t0)      # tainted pointer
    ld   t2, 0(t1)      # transmitter: declassifies t1 at its VP
    add  a7, a7, t2
    addi s0, s0, -1
    bnez s0, pass
    halt
)");
    SptConfig cfg;
    cfg.shadow = ShadowKind::kShadowL1;
    Rig rig = makeRig(p, cfg);
    while (!rig.core->halted() && rig.core->cycle() < 100'000)
        rig.core->tick();
    const StatSet &stats = rig.core->engine().stats();
    EXPECT_GT(stats.get("shadow.load_clears"), 0u);

    // The same program with no shadow must produce zero shadow
    // events.
    cfg.shadow = ShadowKind::kNone;
    Rig rig2 = makeRig(p, cfg);
    while (!rig2.core->halted() && rig2.core->cycle() < 100'000)
        rig2.core->tick();
    EXPECT_EQ(rig2.core->engine().stats().get("shadow.load_clears"),
              0u);
    EXPECT_EQ(rig2.core->engine().stats().get(
                  "untaint.shadow_data"),
              0u);
}

TEST(SptEngine, StoreCommitWritesDataTaint)
{
    // A public value stored to memory untaints those bytes; a later
    // load (after the store has drained to the L1D, so no
    // store-to-load forwarding) reads untainted bytes and produces a
    // shadow_data untaint event.
    const Program p = assemble(R"(
    li   t0, 0x200000
    li   t1, 1234       # public data
    sd   t1, 0(t0)
    li   s0, 40         # filler loop lets the store drain
spin:
    addi s0, s0, -1
    bnez s0, spin
    ld   t2, 0(t0)      # reads back untainted bytes from the L1D
    ld   t3, 8(t0)      # same line, never stored: stays tainted
    add  a7, t2, t3
    halt
)");
    SptConfig cfg;
    cfg.shadow = ShadowKind::kShadowL1;
    Rig rig = makeRig(p, cfg);
    while (!rig.core->halted() && rig.core->cycle() < 100'000)
        rig.core->tick();
    EXPECT_GT(rig.core->engine().stats().get("untaint.shadow_data"),
              0u);
}

TEST(SptEngine, BroadcastWidthLimitsEventsPerCycle)
{
    // With ideal propagation many registers untaint per cycle; the
    // width-1 configuration must trickle them out more slowly but
    // reach the same end state (same committed instruction count).
    const Program wide = assemble(R"(
    .data
v:
    .quad 1, 2, 3, 4, 5, 6, 7, 8
    .text
    li   s0, 0x100000
    li   s1, 30
loop:
    ld   t0, 0(s0)
    ld   t1, 8(s0)
    ld   t2, 16(s0)
    ld   t3, 24(s0)
    add  t4, t0, t1
    add  t5, t2, t3
    add  t6, t4, t5
    sd   t6, 32(s0)
    addi s1, s1, -1
    bnez s1, loop
    mv   a7, t6
    halt
)");
    SptConfig w1;
    w1.broadcast_width = 1;
    Rig rig1 = makeRig(wide, w1);
    while (!rig1.core->halted() && rig1.core->cycle() < 200'000)
        rig1.core->tick();
    SptConfig w8;
    w8.broadcast_width = 8;
    Rig rig8 = makeRig(wide, w8);
    while (!rig8.core->halted() && rig8.core->cycle() < 200'000)
        rig8.core->tick();
    EXPECT_TRUE(rig1.core->halted());
    EXPECT_TRUE(rig8.core->halted());
    EXPECT_EQ(rig1.core->instructionsRetired(),
              rig8.core->instructionsRetired());
    // Wider broadcast can never be slower.
    EXPECT_GE(rig1.core->cycle(), rig8.core->cycle());
    EXPECT_EQ(rig1.core->archReg(17), rig8.core->archReg(17));
}

TEST(SptEngine, TaintIsMonotonePerInstruction)
{
    // Within one instruction's lifetime, taint can only go from
    // tainted to untainted (the convergence property of Section
    // 6.6).
    const Program p = assemble(R"(
    li   s0, 50
    li   s1, 0x100000
loop:
    ld   t0, 0(s1)
    add  t1, t0, s0
    ld   t2, 0(s1)
    add  a7, a7, t1
    addi s0, s0, -1
    bnez s0, loop
    halt
)");
    Rig rig = makeRig(p);
    std::map<SeqNum, uint8_t> last_dest_bits;
    while (!rig.core->halted() && rig.core->cycle() < 100'000) {
        rig.core->tick();
        for (const DynInstPtr &d : rig.core->rob()) {
            const auto *t = rig.engine->instTaint(d->seq);
            if (!t)
                continue;
            auto it = last_dest_bits.find(d->seq);
            if (it != last_dest_bits.end()) {
                // New mask must be a subset of the previous mask.
                EXPECT_EQ(t->dest.raw() & ~it->second, 0)
                    << "taint grew for seq " << d->seq;
            }
            last_dest_bits[d->seq] = t->dest.raw();
        }
    }
    EXPECT_TRUE(rig.core->halted());
}

TEST(SptEngine, IdealModeProducesNoFewerUntaints)
{
    const Program p = assemble(R"(
    li   s0, 40
    li   s1, 0x100000
loop:
    ld   t0, 0(s1)
    add  t1, t0, s0
    add  t2, t1, s0
    sd   t2, 8(s1)
    addi s0, s0, -1
    bnez s0, loop
    mv   a7, t2
    halt
)");
    SptConfig real;
    real.method = UntaintMethod::kBackward;
    real.shadow = ShadowKind::kShadowMem;
    Rig r1 = makeRig(p, real);
    while (!r1.core->halted() && r1.core->cycle() < 200'000)
        r1.core->tick();
    SptConfig ideal;
    ideal.method = UntaintMethod::kIdeal;
    ideal.shadow = ShadowKind::kShadowMem;
    Rig r2 = makeRig(p, ideal);
    while (!r2.core->halted() && r2.core->cycle() < 200'000)
        r2.core->tick();
    EXPECT_LE(r2.core->cycle(), r1.core->cycle());
}

TEST(SptEngine, LoadIntoX0ClearsNoShadowTaint)
{
    // A load into x0 never exposes the bytes it reads, so the Section
    // 6.8 load rule must not clear their shadow taint: adding one
    // leaves the load clears, and the shadow-data untaints they
    // would enable, as they were.
    const char *without = R"(
    .data
vals:
    .quad 0x100010
    .quad 0
    .quad 7
    .text
    li   t0, 0x100000
    ld   t1, 0(t0)      # pointer: declassified when t2's load is at VP
    ld   t2, 0(t1)
    ld   t3, 16(t0)
    add  a7, t2, t3
    halt
)";
    const std::string with = [&] {
        std::string s = without;
        const std::string at = "    ld   t3, 16(t0)";
        s.insert(s.find(at), "    ld   zero, 16(t0)\n");
        return s;
    }();
    SptConfig cfg;
    cfg.method = UntaintMethod::kBackward;
    cfg.shadow = ShadowKind::kShadowL1;
    auto counters = [&](const std::string &src) {
        Rig rig = makeRig(assemble(src), cfg);
        rig.core->run(100'000);
        EXPECT_TRUE(rig.core->halted());
        const StatSet &s = rig.core->engine().stats();
        return std::pair{s.get("shadow.load_clears"),
                         s.get("untaint.shadow_data")};
    };
    const auto base = counters(without);
    const auto x0 = counters(with);
    EXPECT_GT(base.first, 0u); // the load rule does fire here
    EXPECT_EQ(x0.first, base.first);
    EXPECT_EQ(x0.second, base.second);
}

} // namespace
} // namespace spt

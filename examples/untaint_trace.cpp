/**
 * @file
 * A cycle-by-cycle trace of SPT's untaint machinery on the paper's
 * Figure 4 example:
 *
 *     I1: r0 = r1 + r2
 *     I2: load r3 <- (r0)      # transmitter
 *     I3: r4 = r0 + r2
 *
 * With r1 tainted and r2 public, I2 is delayed. When I2 reaches the
 * visibility point its address operand r0 is declassified; the
 * backward rule then infers r1 (r1 = r0 - r2) and the forward rule
 * infers r4 — exactly the final state of Figure 4(c).
 *
 * Build & run:  ./build/examples/untaint_trace
 */

#include <cstdio>

#include "core/engine_factory.h"
#include "core/spt_engine.h"
#include "isa/assembler.h"
#include "uarch/core.h"

using namespace spt;

int
main()
{
    // s1 (r1) is made "secret" by loading it from memory that was
    // never leaked; s2 (r2) is a public constant.
    // A divide chain ahead of the snippet keeps I1/I3 in the ROB
    // (commit is in order) while the Spectre-model visibility point
    // sweeps past them — opening the window in which declassifying
    // I2's operand visibly back-propagates, as in Figure 4. The
    // snippet runs twice so the second iteration executes with a
    // warm I-cache; NoShadowL1 keeps the loaded value tainted on
    // both iterations.
    const char *src = R"(
    .data
secret:
    .quad 0x100040           # points at `slot`
slot:
    .quad 77
    .text
    la   t0, secret
    li   a0, 2
iter:
    ld   s1, 0(t0)           # s1: tainted loaded data
    li   s2, 8
    li   t4, 1000
    li   t5, 3
    div  t6, t4, t5          # slow, independent work that blocks
    div  t6, t6, t5          # in-order commit but not the VP
    div  t6, t6, t5
    div  t6, t6, t5
    div  t6, t6, t5
    div  t6, t6, t5
    div  t6, t6, t5
    div  t6, t6, t5
    add  s0, s1, s2          # I1: r0 = r1 + r2
    ld   s3, 0(s0)           # I2: transmitter, delayed while r0 tainted
    add  s4, s0, s2          # I3: r4 = r0 + r2
    addi a0, a0, -1
    bnez a0, iter
    halt
)";
    const Program p = assemble(src);

    EngineConfig ec;
    ec.scheme = ProtectionScheme::kSpt;
    ec.spt.method = UntaintMethod::kBackward;
    ec.spt.shadow = ShadowKind::kNone;
    CoreParams cp;
    cp.attack_model = AttackModel::kSpectre;
    Core core(p, cp, MemorySystemParams{}, makeEngine(ec));
    auto &engine = dynamic_cast<SptEngine &>(core.engine());

    auto mask_str = [](TaintMask m) {
        return m.nothing() ? "public " : "TAINTED";
    };

    printf("cycle | I2(load) state        | r0      r1      r4\n");
    printf("------+-----------------------+------------------------"
           "\n");
    uint64_t last_printed = ~uint64_t{0};
    for (int c = 0; c < 3000 && !core.halted(); ++c) {
        core.tick();
        // Find the in-flight instructions of interest by pc.
        DynInstPtr i1, i2, i3;
        for (const DynInstPtr &d : core.rob()) {
            if (d->pc == 14) i1 = d;
            if (d->pc == 15) i2 = d;
            if (d->pc == 16) i3 = d;
        }
        if (!i1 || !i2 || !i3)
            continue;
        const auto *t1 = engine.instTaint(i1->seq);
        const auto *t2 = engine.instTaint(i2->seq);
        const auto *t3 = engine.instTaint(i3->seq);
        if (!t1 || !t2 || !t3)
            continue;
        const char *state = !i2->issued          ? "waiting operands"
                            : !i2->access_done   ? "delayed (tainted)"
                            : !i2->completed     ? "accessing memory"
                                                 : "complete";
        // r0 = I1's dest; r1 = I1's src0; r4 = I3's dest.
        const uint64_t key =
            (t1->dest.raw() << 8) ^ (t1->src[0].raw() << 4) ^
            t3->dest.raw() ^ (uint64_t{i2->at_vp} << 16) ^
            (uint64_t(i2->access_done) << 17);
        if (key == last_printed)
            continue;
        last_printed = key;
        printf("%5llu | %-21s | %s %s %s%s\n",
               static_cast<unsigned long long>(core.cycle()), state,
               mask_str(t1->dest), mask_str(t1->src[0]),
               mask_str(t3->dest),
               i2->at_vp ? "   <- I2 at VP, r0 declassified" : "");
    }
    printf("\nFinal state matches Figure 4(c): r0, r1 and r4 all "
           "inferable by the\nattacker once the transmitter's "
           "operand was declassified; the load\nexecuted without "
           "protection only after that point.\n");
    return 0;
}

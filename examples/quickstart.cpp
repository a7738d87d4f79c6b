/**
 * @file
 * Quickstart: the three layers of the library in one file.
 *
 *  1. The gate-level untaint algebra of paper Section 5 (the
 *     Figure 3 composition example, verbatim).
 *  2. Assembling a TRISC program and running it on the functional
 *     reference CPU.
 *  3. Running the same program on the cycle-level out-of-order core
 *     under different protection schemes and comparing cost.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "core/untaint_algebra.h"
#include "isa/assembler.h"
#include "isa/functional_cpu.h"
#include "sim/simulator.h"

using namespace spt;

namespace {

void
gateAlgebraDemo()
{
    printf("--- 1. Untaint algebra (paper Fig. 3) ---\n");
    // out = (t0 | t0b) & in2, with in2 = 1 public and the OR inputs
    // secret zeros. Declassifying `out` lets the attacker infer t0
    // (backward through AND), and then the OR inputs.
    GateGraph g;
    const int or_a = g.addInput(false, true);  // secret 0
    const int or_b = g.addInput(false, true);  // secret 0
    const int in2 = g.addInput(true, false);   // public 1
    const int t0 = g.addGate(GateOp::kOr, or_a, or_b);
    const int out = g.addGate(GateOp::kAnd, t0, in2);

    printf("before declassify: t0 tainted=%d, out tainted=%d\n",
           g.tainted(t0), g.tainted(out));
    g.declassify(out); // the non-speculative execution leaked it
    const unsigned n = g.propagate();
    printf("after declassify(out): propagate() untainted %u wires; "
           "t0 tainted=%d, or_a tainted=%d, or_b tainted=%d\n\n",
           n, g.tainted(t0), g.tainted(or_a), g.tainted(or_b));
}

const char *kProgram = R"(
    .data
indices:
    .quad 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
table:
    .quad 10, 11, 12, 13, 14, 15, 16, 17, 18, 19
    .text
    la   a1, indices
    la   a4, table
    li   a0, 16
    li   a2, 0          # sum
    li   a3, 0          # max
loop:
    ld   t0, 0(a1)      # index: tainted on first touch
    slli t1, t0, 3
    add  t1, t1, a4
    ld   t2, 0(t1)      # gather: a transmitter fed by loaded data
    add  a2, a2, t2
    max  a3, a3, t2
    addi a1, a1, 8
    addi a0, a0, -1
    bnez a0, loop
    halt
)";

void
functionalDemo()
{
    printf("--- 2. Assemble + functional reference run ---\n");
    const Program p = assemble(kProgram);
    FunctionalCpu cpu(p);
    const auto r = cpu.run();
    printf("retired %llu instructions; sum=%llu max=%llu\n\n",
           static_cast<unsigned long long>(r.instructions),
           static_cast<unsigned long long>(cpu.reg(12)),  // a2
           static_cast<unsigned long long>(cpu.reg(13))); // a3
}

void
timingDemo()
{
    printf("--- 3. Cycle-level runs under Table-2 schemes ---\n");
    const Program p = assemble(kProgram);
    for (const NamedConfig &nc : table2Configs()) {
        SimConfig cfg;
        cfg.engine = nc.engine;
        cfg.core.attack_model = AttackModel::kFuturistic;
        cfg.lockstep_check = true; // verify against the reference
        Simulator sim(p, cfg);
        const SimResult r = sim.run();
        printf("%-22s %6llu cycles  IPC %.2f  untaint events %llu\n",
               nc.name.c_str(),
               static_cast<unsigned long long>(r.cycles), r.ipc,
               static_cast<unsigned long long>(
                   sim.stat("engine.untaint.events")));
    }
}

} // namespace

int
main()
{
    gateAlgebraDemo();
    functionalDemo();
    timingDemo();
    return 0;
}

/**
 * @file
 * Attack walkthrough: mounts the two penetration-test attacks
 * (Section 9.1) against selected design points and narrates what the
 * attacker observes through the cache side channel.
 *
 *  - Spectre V1: leaks *speculatively-accessed* data. Blocked by
 *    STT, SecureBaseline, and every SPT variant.
 *  - Constant-time victim + BTB injection: leaks a *non-speculative
 *    secret* out of a register. STT does NOT block this (its
 *    protection scope excludes non-speculatively-accessed data);
 *    SPT does, because the secret was never transmitted by the
 *    non-speculative execution and therefore stays tainted.
 *
 * Build & run:  ./build/examples/spectre_demo
 */

#include <cstdio>

#include "sim/simulator.h"
#include "workloads/attack_programs.h"

using namespace spt;

namespace {

void
mount(const char *title, const AttackProgram &ap)
{
    printf("=== %s ===\n", title);
    printf("secret byte value: %u (never architecturally leaked)\n",
           ap.secret);
    for (const char *scheme :
         {"UnsafeBaseline", "STT", "SPT{Bwd,ShadowL1}",
          "SecureBaseline"}) {
        EngineConfig engine;
        for (const NamedConfig &nc : table2Configs())
            if (nc.name == scheme)
                engine = nc.engine;
        SimConfig cfg;
        cfg.engine = engine;
        cfg.core.attack_model = AttackModel::kFuturistic;
        Simulator sim(ap.program, cfg);
        sim.run();

        // The attacker's Flush+Reload-style readout: which probe
        // slot's cache line became resident?
        MemorySystem &m = sim.core().memorySystem();
        int recovered = -1;
        for (int v = 0; v < 256; ++v) {
            const uint64_t addr =
                ap.probe_base +
                static_cast<uint64_t>(v) * ap.probe_stride;
            const bool hot =
                m.inL1D(addr) || m.inL2(addr) || m.inL3(addr);
            if (hot && v != ap.trained_value) {
                recovered = v;
                break;
            }
        }
        if (recovered >= 0)
            printf("  %-20s attacker recovers byte = %3d  %s\n",
                   scheme, recovered,
                   recovered == ap.secret ? "(SECRET LEAKED)"
                                          : "(noise)");
        else
            printf("  %-20s attacker recovers nothing "
                   "(protected)\n",
                   scheme);
    }
    printf("\n");
}

} // namespace

int
main()
{
    mount("Spectre V1 (speculatively-accessed data)",
          makeSpectreV1());
    mount("Constant-time victim + BTB injection "
          "(non-speculative secret)",
          makeCtVictim());
    printf("Note how STT blocks Spectre V1 but not the second "
           "attack: the secret\nwas brought into the register file "
           "non-speculatively, which is outside\nSTT's protection "
           "scope. SPT keeps it tainted because the "
           "non-speculative\nexecution never leaked it "
           "(Definition 1 of the paper).\n");
    return 0;
}

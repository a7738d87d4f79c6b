/**
 * @file
 * Regenerates tests/golden_untaint_stats.inc: runs the golden suite
 * (workloads/golden_suite.h) under SPT{Bwd,ShadowL1} and emits the
 * untaint.* counters of every case as a C++ initializer consumed by
 * tests/test_golden_stats.cpp.
 *
 * Usage: build/tools/record_golden_stats [--jobs N] \
 *            > tests/golden_untaint_stats.inc
 *
 * Exit codes follow common/cli.h: an unknown argument or a
 * malformed --jobs value exits 2.
 *
 * The cases run on the parallel experiment runner; the emitted
 * initializer is in fixed suite order, byte-identical for any
 * --jobs value.
 *
 * --fingerprints runs nothing: it prints one line per golden case
 * with the FNV-1a hash of its canonical result-cache key
 * (sim/result_cache.h) — stable across builds, changing exactly
 * when the case's program content or job descriptor changes. CI
 * keys its persisted result cache on this listing, so a semantic
 * change invalidates the cache and a pure refactor keeps it warm.
 *
 * --stats-hashes runs every golden case under every Table-2 config
 * (sim_config.h table2Configs) and emits, per run, the FNV-1a hash of
 * the complete Simulator::dumpStats output (stats.txt: every core,
 * engine, memory and predictor counter and histogram) as the
 * initializer tests/golden_stats_hashes.inc, consumed by
 * tests/test_golden_stats.cpp:
 *
 *   build/tools/record_golden_stats --stats-hashes \
 *       > tests/golden_stats_hashes.inc
 *
 * Only re-record when an intentional semantic change shifts the
 * counters, and justify the delta in the PR description; pure
 * performance work on the SPT engine must leave them untouched.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "sim/exp_runner.h"
#include "sim/result_cache.h"
#include "sim/simulator.h"
#include "workloads/golden_suite.h"

using namespace spt;

namespace {

/** The --stats-hashes mode: one line per (case, config) pair, in
 *  suite-major order, byte-identical for any --jobs value. */
int
printStatsHashes(unsigned jobs)
{
    const std::vector<GoldenCase> &suite = goldenSuite();
    const std::vector<NamedConfig> configs = table2Configs();
    std::vector<uint64_t> hashes(suite.size() * configs.size());
    parallelFor(hashes.size(), jobs, [&](size_t i) {
        const GoldenCase &c = suite[i / configs.size()];
        SimConfig cfg;
        cfg.engine = configs[i % configs.size()].engine;
        cfg.core.attack_model = c.model;
        Simulator sim(c.program, cfg);
        if (!sim.run().halted)
            SPT_FATAL("golden case " << c.name << " did not halt");
        std::ostringstream stats;
        sim.dumpStats(stats);
        hashes[i] = fnv1a(stats.str());
    });

    printf("// FNV-1a of Simulator::dumpStats (stats.txt) per golden "
           "case x Table-2 config.\n");
    printf("// Generated by tools/record_golden_stats --stats-hashes; "
           "do not edit by hand.\n");
    printf("// Regenerate: build/tools/record_golden_stats "
           "--stats-hashes > tests/golden_stats_hashes.inc\n");
    for (size_t i = 0; i < hashes.size(); ++i)
        printf("{\"%s\", \"%s\", 0x%016llxull},\n",
               suite[i / configs.size()].name.c_str(),
               configs[i % configs.size()].name.c_str(),
               static_cast<unsigned long long>(hashes[i]));
    return 0;
}

int
run(int argc, char **argv)
{
    bool fingerprints = false;
    bool stats_hashes = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fingerprints")
            fingerprints = true;
        else if (arg == "--stats-hashes")
            stats_hashes = true;
        else if (arg == "--jobs")
            ++i; // value consumed by jobsFromArgs
        else if (arg.rfind("--jobs=", 0) != 0)
            SPT_FATAL("unknown argument " << arg
                      << " (expected --jobs N / --fingerprints / "
                         "--stats-hashes)");
    }
    const unsigned jobs = jobsFromArgs(argc, argv);
    if (stats_hashes)
        return printStatsHashes(jobs);

    EngineConfig engine;
    engine.scheme = ProtectionScheme::kSpt;
    engine.spt.method = UntaintMethod::kBackward;
    engine.spt.shadow = ShadowKind::kShadowL1;

    const std::vector<GoldenCase> &suite = goldenSuite();
    std::vector<RunJob> grid;
    for (const GoldenCase &c : suite) {
        RunJob job;
        job.program = &c.program;
        job.engine = engine;
        job.attack_model = c.model;
        grid.push_back(job);
    }

    if (fingerprints) {
        // No simulation: one line per case, hashing the canonical
        // result-cache key so the listing is short but changes iff
        // the cached outcome for that case could change.
        printf("# golden-suite result-cache fingerprints "
               "(FNV-1a of ResultCache::canonicalKey)\n");
        for (size_t i = 0; i < suite.size(); ++i)
            printf("%s %016llx\n", suite[i].name.c_str(),
                   static_cast<unsigned long long>(fnv1a(
                       ResultCache::canonicalKey(grid[i]))));
        return 0;
    }

    ExpRunner runner(jobs);
    const std::vector<RunOutcome> outcomes = runner.run(grid);

    printf("// Golden untaint.* counters, SPT{Bwd,ShadowL1}.\n");
    printf("// Generated by tools/record_golden_stats; do not edit "
           "by hand.\n");
    printf("// Regenerate: build/tools/record_golden_stats > "
           "tests/golden_untaint_stats.inc\n");
    for (size_t i = 0; i < suite.size(); ++i) {
        const GoldenCase &c = suite[i];
        const RunOutcome &out = outcomes[i];
        if (!out.result.halted)
            SPT_FATAL("golden case " << c.name << " did not halt");
        printf("{\"%s\",\n {\n", c.name.c_str());
        size_t recorded = 0;
        for (const auto &[name, value] : out.engine_counters) {
            if (name.rfind("untaint.", 0) != 0)
                continue;
            printf("  {\"%s\", %lluull},\n", name.c_str(),
                   static_cast<unsigned long long>(value));
            ++recorded;
        }
        printf(" }},\n");
        fprintf(stderr, "recorded %s (%zu counters)\n",
                c.name.c_str(), recorded);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return toolMain("record_golden_stats",
                    [&] { return run(argc, argv); });
}

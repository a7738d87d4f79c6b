/**
 * @file
 * Regenerates Figure 9 and the Section 9.4 analysis:
 *
 *  Part 1 — with SPT {Ideal, ShadowMem} (unbounded untaint
 *  bandwidth), the distribution of how many registers untaint per
 *  untainting cycle: the CDF at N = 1..10+ per workload, justifying
 *  a hardware broadcast width of 3.
 *
 *  Part 2 — the ablation the choice implies: execution time of the
 *  real SPT {Bwd, ShadowL1} design as the untaint broadcast width
 *  sweeps over {1, 2, 3, 4, 8, 16}.
 *
 * Both parts run as one grid on the parallel experiment runner;
 * stdout and the JSON artifact are byte-identical for any --jobs
 * value.
 *
 * Usage: fig9_untaint_width [--jobs N] [--out BENCH_fig9.json]
 * Set SPT_BENCH_QUICK=1 to run a 4-workload subset.
 */

#include <cstdlib>
#include <iterator>

#include "bench/bench_util.h"

using namespace spt;
using namespace spt::bench;

namespace {

int
run(int argc, char **argv)
{
    const BenchOptions opt =
        parseBenchArgs(argc, argv, "BENCH_fig9.json");
    const bool quick = std::getenv("SPT_BENCH_QUICK") != nullptr;

    const std::vector<std::string> names =
        figureWorkloads(quick, "spec-like");
    const unsigned widths[] = {1, 2, 3, 4, 8, 16};
    const size_t num_widths = std::size(widths);

    // One grid holding both parts: per workload, one
    // SPT{Ideal,ShadowMem} run (part 1) followed by the
    // broadcast-width sweep of SPT{Bwd,ShadowL1} (part 2).
    EngineConfig ideal;
    ideal.scheme = ProtectionScheme::kSpt;
    ideal.spt.method = UntaintMethod::kIdeal;
    ideal.spt.shadow = ShadowKind::kShadowMem;

    std::vector<RunJob> grid;
    for (const std::string &name : names) {
        const Workload &w = workloadByName(name);
        RunJob part1;
        part1.program = &w.program;
        part1.engine = ideal;
        part1.attack_model = AttackModel::kFuturistic;
        grid.push_back(part1);
        for (const unsigned wd : widths) {
            RunJob job;
            job.program = &w.program;
            job.engine.scheme = ProtectionScheme::kSpt;
            job.engine.spt.method = UntaintMethod::kBackward;
            job.engine.spt.shadow = ShadowKind::kShadowL1;
            job.engine.spt.broadcast_width = wd;
            job.attack_model = AttackModel::kFuturistic;
            grid.push_back(job);
        }
    }

    ExpRunner runner(opt.jobs);
    const std::vector<RunOutcome> outcomes = runner.run(grid);
    reportSweep(runner);
    const size_t stride = 1 + num_widths;

    JsonWriter json;
    json.beginObject();
    json.field("bench", "fig9_untaint_width");
    json.field("quick", quick);

    // --- Part 1: registers untainted per untainting cycle ---------
    printf("=== Figure 9: CDF of registers untainted per "
           "untainting cycle, SPT{Ideal,ShadowMem} ===\n\n");
    printf("%-16s", "workload");
    for (int n = 1; n <= 9; ++n)
        printf("  <=%-4d", n);
    printf("  %6s\n", "mean");

    json.key("regs_per_untaint_cycle").beginArray();
    std::vector<double> cdf3;
    for (size_t wi = 0; wi < names.size(); ++wi) {
        const RunOutcome &out = outcomes[wi * stride];
        // Absent histogram (no untainting cycles) reads as empty.
        const auto it = out.engine_histograms.find(
            "untaint.regs_per_untaint_cycle");
        const Histogram h = it == out.engine_histograms.end()
                                ? Histogram(12)
                                : it->second;
        printf("%-16s", names[wi].c_str());
        json.beginObject();
        json.field("workload", names[wi]);
        json.key("cdf_pct").beginArray();
        for (int n = 1; n <= 9; ++n) {
            const double pct =
                100.0 * h.cdfAt(static_cast<uint64_t>(n));
            printf(" %5.1f%%", pct);
            json.value(pct, 1);
        }
        json.endArray();
        printf("  %6.2f\n", h.mean());
        json.field("mean", h.mean(), 2);
        json.field("untaint_cycles", h.samples());
        hostSecondsField(json, out.host_seconds);
        json.endObject();
        cdf3.push_back(100.0 * h.cdfAt(3));
    }
    json.endArray();
    printf("\nAverage fraction of untainting cycles with <= 3 "
           "registers untainted: %.1f%%\n",
           mean(cdf3));
    printf("(the paper picks untaint broadcast width 3 on this "
           "basis)\n");
    json.field("avg_cdf_at_3_pct", mean(cdf3), 1);

    // --- Part 2: broadcast-width ablation on the real design ------
    printf("\n=== Section 9.4 ablation: SPT{Bwd,ShadowL1} "
           "execution time vs broadcast width ===\n\n");
    printf("%-16s", "workload");
    for (unsigned wd : widths)
        printf("   w=%-5u", wd);
    printf("\n");
    json.key("widths").beginArray();
    for (unsigned wd : widths)
        json.value(static_cast<uint64_t>(wd));
    json.endArray();
    json.key("width_ablation").beginArray();
    for (size_t wi = 0; wi < names.size(); ++wi) {
        printf("%-16s", names[wi].c_str());
        json.beginObject();
        json.field("workload", names[wi]);
        json.key("normalized").beginArray();
        double base = 0.0;
        for (size_t di = 0; di < num_widths; ++di) {
            const RunOutcome &out = outcomes[wi * stride + 1 + di];
            const auto cycles =
                static_cast<double>(out.result.cycles);
            if (base == 0.0)
                base = cycles;
            printf(" %8.3f", cycles / base);
            json.value(cycles / base, 3);
        }
        json.endArray();
        json.key("host_seconds").beginArray();
        for (size_t di = 0; di < num_widths; ++di)
            json.value(outcomes[wi * stride + 1 + di].host_seconds,
                       6);
        json.endArray();
        json.endObject();
        printf("   (normalized to w=1)\n");
    }
    json.endArray();
    json.endObject();
    writeReportFile(opt.out_path, json.str());
    fprintf(stderr, "wrote %s\n", opt.out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return toolMain("fig9_untaint_width",
                    [&] { return run(argc, argv); });
}

/**
 * @file
 * Regenerates Figure 8: a per-benchmark breakdown of untaint events
 * by type (VP declassification, forward, backward, shadow-L1 data,
 * store-to-load forwarding) for the full SPT design
 * (SPT {Bwd, ShadowL1}), under both attack models.
 *
 * The (workload x model) grid runs on the parallel experiment
 * runner; stdout and the JSON artifact are byte-identical for any
 * --jobs value.
 *
 * Usage: fig8_untaint_breakdown [--jobs N] [--out BENCH_fig8.json]
 * Set SPT_BENCH_QUICK=1 to run a 5-workload subset.
 */

#include <cstdlib>

#include "bench/bench_util.h"

using namespace spt;
using namespace spt::bench;

namespace {

int
run(int argc, char **argv)
{
    const BenchOptions opt =
        parseBenchArgs(argc, argv, "BENCH_fig8.json");
    const bool quick = std::getenv("SPT_BENCH_QUICK") != nullptr;

    const std::vector<std::string> names = figureWorkloads(quick);
    const AttackModel models[] = {AttackModel::kFuturistic,
                                  AttackModel::kSpectre};

    EngineConfig engine;
    engine.scheme = ProtectionScheme::kSpt;
    engine.spt.method = UntaintMethod::kBackward;
    engine.spt.shadow = ShadowKind::kShadowL1;

    const char *columns[] = {
        "untaint.vp_declassify", "untaint.forward",
        "untaint.backward",      "untaint.shadow_data",
        "untaint.stl_forward",
    };
    const char *headers[] = {"vp_declass", "forward", "backward",
                             "shadow_l1", "stl_fwd"};

    std::vector<RunJob> grid;
    for (const std::string &name : names) {
        const Workload &w = workloadByName(name);
        for (const AttackModel model : models) {
            RunJob job;
            job.program = &w.program;
            job.engine = engine;
            job.attack_model = model;
            grid.push_back(job);
        }
    }

    ExpRunner runner(opt.jobs);
    const std::vector<RunOutcome> outcomes = runner.run(grid);
    reportSweep(runner);

    printf("=== Figure 8: untaint-event breakdown, "
           "SPT{Bwd,ShadowL1} ===\n");
    printf("(percent of all untaint events; F = Futuristic, "
           "S = Spectre)\n\n");
    printf("%-18s %-3s", "workload", "M");
    for (const char *h : headers)
        printf(" %11s", h);
    printf(" %12s\n", "total_events");

    JsonWriter json;
    json.beginObject();
    json.field("bench", "fig8_untaint_breakdown");
    json.field("quick", quick);
    json.key("columns").beginArray();
    for (const char *c : columns)
        json.value(c);
    json.endArray();
    json.key("rows").beginArray();

    size_t slot = 0;
    for (const std::string &name : names) {
        for (const AttackModel model : models) {
            const RunOutcome &out = outcomes[slot++];
            uint64_t total = 0;
            for (const char *c : columns)
                total += out.counter(c);
            printf("%-18s %-3s", name.c_str(),
                   model == AttackModel::kFuturistic ? "F" : "S");
            json.beginObject();
            json.field("workload", name);
            json.field("model", modelName(model));
            json.key("events").beginArray();
            for (const char *c : columns)
                json.value(out.counter(c));
            json.endArray();
            json.key("percent").beginArray();
            for (const char *c : columns) {
                const uint64_t v = out.counter(c);
                const double pct =
                    total ? 100.0 * static_cast<double>(v) /
                                static_cast<double>(total)
                          : 0.0;
                printf(" %10.1f%%", pct);
                json.value(pct, 1);
            }
            json.endArray();
            json.field("total_events", total);
            hostSecondsField(json, out.host_seconds);
            json.endObject();
            printf(" %12llu\n",
                   static_cast<unsigned long long>(total));
        }
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
    return toolMain("fig8_untaint_breakdown",
                    [&] { return run(argc, argv); });
}

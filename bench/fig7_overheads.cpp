/**
 * @file
 * Regenerates Figure 7 and the Section 9.2 headline numbers:
 * execution time of every Table-2 design variant, normalized to
 * UnsafeBaseline, per workload, under both the Futuristic and the
 * Spectre attack models — plus the paper's summary statistics
 * (average SPT overhead, SPT-vs-SecureBaseline reduction factor,
 * the constant-time-kernel subset, and SPT-vs-STT deltas).
 *
 * The whole (model x workload x config) grid runs as one sweep on
 * the parallel experiment runner; stdout and the JSON artifact are
 * byte-identical for any --jobs value.
 *
 * Usage: fig7_overheads [--jobs N] [--out BENCH_fig7.json]
 * Set SPT_BENCH_QUICK=1 to run a 5-workload subset (CI smoke).
 */

#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"

using namespace spt;
using namespace spt::bench;

namespace {

struct ModelSummary {
    double spt_overhead = 0.0;
    double secure_overhead = 0.0;
    double stt_overhead = 0.0;
    double ct_secure_mean = 0.0;
    double ct_spt_mean = 0.0;
    bool has_ct = false;
};

int
run(int argc, char **argv)
{
    const BenchOptions opt =
        parseBenchArgs(argc, argv, "BENCH_fig7.json");
    const bool quick = std::getenv("SPT_BENCH_QUICK") != nullptr;

    const std::vector<std::string> names = figureWorkloads(quick);
    const auto configs = table2Configs();
    const AttackModel models[] = {AttackModel::kFuturistic,
                                  AttackModel::kSpectre};

    // One flat grid over (model, workload, config); slot index is
    // grid order, so rendering below just walks the same loops.
    std::vector<RunJob> grid;
    for (const AttackModel model : models) {
        for (const std::string &name : names) {
            const Workload &w = workloadByName(name);
            for (const auto &nc : configs) {
                RunJob job;
                job.program = &w.program;
                job.engine = nc.engine;
                job.attack_model = model;
                grid.push_back(job);
            }
        }
    }

    ExpRunner runner(opt.jobs);
    const std::vector<RunOutcome> outcomes = runner.run(grid);
    reportSweep(runner);
    auto at = [&](size_t mi, size_t wi, size_t ci) -> const RunOutcome & {
        return outcomes[(mi * names.size() + wi) * configs.size() +
                        ci];
    };

    auto config_index = [&](const char *n) {
        for (size_t c = 0; c < configs.size(); ++c)
            if (configs[c].name == n)
                return c;
        return size_t{0};
    };
    const size_t i_secure = config_index("SecureBaseline");
    const size_t i_spt = config_index("SPT{Bwd,ShadowL1}");
    const size_t i_stt = config_index("STT");

    JsonWriter json;
    json.beginObject();
    json.field("bench", "fig7_overheads");
    json.field("quick", quick);
    json.key("configs").beginArray();
    for (const auto &nc : configs)
        json.value(nc.name);
    json.endArray();
    json.key("models").beginArray();

    printf("=== Figure 7: execution time normalized to "
           "UnsafeBaseline ===\n");
    for (size_t mi = 0; mi < 2; ++mi) {
        const AttackModel model = models[mi];
        printf("\n--- %s attack model ---\n", modelName(model));
        printf("%-16s", "workload");
        for (const auto &nc : configs)
            printf(" %21s", nc.name.c_str());
        printf("\n");

        // Per-config normalized execution times across workloads.
        std::vector<std::vector<double>> norm(configs.size());
        std::vector<std::vector<double>> norm_ct(configs.size());

        json.beginObject();
        json.field("model", modelName(model));
        json.key("workloads").beginArray();

        for (size_t wi = 0; wi < names.size(); ++wi) {
            const Workload &w = workloadByName(names[wi]);
            printf("%-16s", names[wi].c_str());
            json.beginObject();
            json.field("name", names[wi]);
            json.field("category", w.category);
            const double base =
                static_cast<double>(at(mi, wi, 0).result.cycles);
            json.key("cycles").beginArray();
            for (size_t c = 0; c < configs.size(); ++c)
                json.value(at(mi, wi, c).result.cycles);
            json.endArray();
            json.key("host_seconds").beginArray();
            for (size_t c = 0; c < configs.size(); ++c)
                json.value(at(mi, wi, c).host_seconds, 6);
            json.endArray();
            json.key("normalized").beginArray();
            for (size_t c = 0; c < configs.size(); ++c) {
                const auto cycles = static_cast<double>(
                    at(mi, wi, c).result.cycles);
                const double rel = cycles / base;
                norm[c].push_back(rel);
                if (w.category == "constant-time")
                    norm_ct[c].push_back(rel);
                printf(" %21.3f", rel);
                json.value(rel);
            }
            json.endArray();
            json.endObject();
            printf("\n");
        }
        json.endArray();

        printf("%-16s", "geomean");
        json.key("geomean").beginArray();
        for (size_t c = 0; c < configs.size(); ++c) {
            printf(" %21.3f", geomean(norm[c]));
            json.value(geomean(norm[c]));
        }
        json.endArray();
        printf("\n%-16s", "mean");
        json.key("mean").beginArray();
        for (size_t c = 0; c < configs.size(); ++c) {
            printf(" %21.3f", mean(norm[c]));
            json.value(mean(norm[c]));
        }
        json.endArray();
        printf("\n");

        // Section 9.2 summary statistics.
        ModelSummary s;
        s.spt_overhead = mean(norm[i_spt]) - 1.0;
        s.secure_overhead = mean(norm[i_secure]) - 1.0;
        s.stt_overhead = mean(norm[i_stt]) - 1.0;
        printf("\n[%s] SPT overhead vs UnsafeBaseline: %.1f%%\n",
               modelName(model), 100.0 * s.spt_overhead);
        printf("[%s] SecureBaseline overhead: %.1f%%  "
               "(SPT reduces overhead by %.2fx)\n",
               modelName(model), 100.0 * s.secure_overhead,
               s.spt_overhead > 0
                   ? s.secure_overhead / s.spt_overhead
                   : 0.0);
        printf("[%s] SPT overhead above STT: %.1f percentage "
               "points\n",
               modelName(model),
               100.0 * (s.spt_overhead - s.stt_overhead));
        if (!norm_ct[i_spt].empty()) {
            s.has_ct = true;
            s.ct_secure_mean = mean(norm_ct[i_secure]);
            s.ct_spt_mean = mean(norm_ct[i_spt]);
            printf("[%s] constant-time kernels: SecureBaseline "
                   "%.2fx, SPT %.2fx (%.1fx overhead reduction)\n",
                   modelName(model), s.ct_secure_mean, s.ct_spt_mean,
                   (s.ct_spt_mean > 1.0)
                       ? (s.ct_secure_mean - 1.0) /
                             (s.ct_spt_mean - 1.0)
                       : 0.0);
        }

        json.key("summary").beginObject();
        json.field("spt_overhead_pct", 100.0 * s.spt_overhead);
        json.field("secure_overhead_pct",
                   100.0 * s.secure_overhead);
        json.field("overhead_reduction_x",
                   s.spt_overhead > 0
                       ? s.secure_overhead / s.spt_overhead
                       : 0.0);
        json.field("spt_minus_stt_pp",
                   100.0 * (s.spt_overhead - s.stt_overhead));
        if (s.has_ct) {
            json.field("ct_secure_mean", s.ct_secure_mean);
            json.field("ct_spt_mean", s.ct_spt_mean);
            json.field("ct_overhead_reduction_x",
                       (s.ct_spt_mean > 1.0)
                           ? (s.ct_secure_mean - 1.0) /
                                 (s.ct_spt_mean - 1.0)
                           : 0.0);
        }
        json.endObject();
        json.endObject();
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
    return toolMain("fig7_overheads",
                    [&] { return run(argc, argv); });
}

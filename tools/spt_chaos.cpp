/**
 * @file
 * Fault-injection campaign CLI (sim/chaos.h): stress the simulated
 * machine with seeded timing faults under every protection engine,
 * with the runtime invariant checker attached, and verdict the
 * result.
 *
 *   spt_chaos [--seed N] [--rate-ppm N] [--jobs N]
 *             [--model spectre|futuristic] [--max-cycles N]
 *             [--quick | --full] [--mutate]
 *             [--out FILE] [--diagnostics-dir DIR]
 *
 * --quick (default) campaigns seven small workloads against
 * SPT{Bwd,ShadowL1} / STT / SecureBaseline; --full widens to every
 * Table-2 engine. --mutate appends the negative control: an SPT
 * engine seeded with a known taint bug (leaky memory gate) that the
 * checker must flag — a campaign that cannot catch a planted bug
 * proves nothing by staying silent.
 *
 * Exit codes: 0 campaign clean (and, with --mutate, the planted bug
 * was detected); 1 the campaign found divergences/violations or the
 * planted bug escaped; 2 usage errors; 70 internal errors.
 *
 * The campaign JSON (--out, default spt_chaos.json) is byte-identical
 * for any --jobs value; CI pins this with cmp.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/cli.h"
#include "common/json.h"
#include "common/logging.h"
#include "sim/chaos.h"

using namespace spt;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --seed <n>             campaign base seed (default 1)\n"
        "  --rate-ppm <n>         per-site fault probability, parts\n"
        "                         per million (default 20000)\n"
        "  --jobs <n>             worker threads (default SPT_JOBS /\n"
        "                         hardware)\n"
        "  --model <m>            spectre | futuristic (default\n"
        "                         futuristic)\n"
        "  --max-cycles <n>       per-run cycle budget\n"
        "  --quick                small campaign: 3 engines (default)\n"
        "  --full                 every Table-2 engine\n"
        "  --mutate               append the seeded-bug negative\n"
        "                         control\n"
        "  --out <file>           campaign JSON (default\n"
        "                         spt_chaos.json)\n"
        "  --diagnostics-dir <d>  write per-failure DiagnosticReport\n"
        "                         JSON files\n",
        argv0);
    std::exit(2);
}

std::string
needValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage(argv[0]);
    return argv[++i];
}

/** "a/b/c" -> "a_b_c" so a cell label can name a file. */
std::string
fileSafe(const std::string &label)
{
    std::string out = label;
    for (char &c : out)
        if (c == '/' || c == '{' || c == '}' || c == ',')
            c = '_';
    return out;
}

struct Options {
    ChaosConfig cfg;
    bool full = false;
    std::string out_path = "spt_chaos.json";
    std::string diagnostics_dir;
};

/** Strict argument parsing; runs inside the toolMain guard so a
 *  parseUnsigned FatalError exits 2 instead of escaping main. */
Options
parse(int argc, char **argv)
{
    Options opt;
    ChaosConfig &cfg = opt.cfg;
    bool &full = opt.full;
    std::string &out_path = opt.out_path;
    std::string &diagnostics_dir = opt.diagnostics_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--seed")
            cfg.seed = parseUnsigned(needValue(argc, argv, i),
                                     "--seed");
        else if (a == "--rate-ppm")
            cfg.rate_ppm = static_cast<uint32_t>(
                parseUnsigned(needValue(argc, argv, i),
                              "--rate-ppm", 1'000'000));
        else if (a == "--jobs")
            cfg.jobs = static_cast<unsigned>(
                parseUnsigned(needValue(argc, argv, i), "--jobs",
                              1024));
        else if (a == "--model") {
            const std::string m = needValue(argc, argv, i);
            if (m == "spectre")
                cfg.model = AttackModel::kSpectre;
            else if (m == "futuristic")
                cfg.model = AttackModel::kFuturistic;
            else {
                std::fprintf(stderr, "unknown model: %s\n",
                             m.c_str());
                usage(argv[0]);
            }
        } else if (a == "--max-cycles")
            cfg.max_cycles = parseUnsigned(
                needValue(argc, argv, i), "--max-cycles");
        else if (a == "--quick")
            full = false;
        else if (a == "--full")
            full = true;
        else if (a == "--mutate")
            cfg.mutate = true;
        else if (a == "--out")
            out_path = needValue(argc, argv, i);
        else if (a == "--diagnostics-dir")
            diagnostics_dir = needValue(argc, argv, i);
        else if (a == "--help" || a == "-h")
            usage(argv[0]);
        else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(argv[0]);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    return toolMain("spt_chaos", [&] {
        const Options opt = parse(argc, argv);
        ChaosConfig cfg = opt.cfg;
        const bool full = opt.full;
        const std::string &out_path = opt.out_path;
        const std::string &diagnostics_dir = opt.diagnostics_dir;
        cfg.workloads = quickChaosWorkloads();
        cfg.engines = full ? table2Configs() : chaosEngines();
        const ChaosResult result = runChaosCampaign(cfg);
        const ChaosSummary &sum = result.summary;

        writeReportFile(out_path, result.json);
        if (!diagnostics_dir.empty() &&
            !result.diagnostics.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(diagnostics_dir,
                                                ec);
            if (ec)
                SPT_FATAL("cannot create " << diagnostics_dir
                                           << ": " << ec.message());
            for (const auto &[label, json] : result.diagnostics)
                writeReportFile(diagnostics_dir + "/" +
                                    fileSafe(label) + ".json",
                                json);
        }

        std::printf("chaos campaign: %llu runs, %llu faults "
                    "injected\n",
                    static_cast<unsigned long long>(sum.runs),
                    static_cast<unsigned long long>(
                        sum.faults_injected));
        std::printf("  invariant violations : %llu\n",
                    static_cast<unsigned long long>(
                        sum.violations));
        std::printf("  arch divergences     : %llu\n",
                    static_cast<unsigned long long>(
                        sum.arch_divergences));
        std::printf("  failed runs          : %llu\n",
                    static_cast<unsigned long long>(sum.failures));
        if (sum.mutation_ran)
            std::printf("  seeded bug detected  : %s\n",
                        sum.mutation_detected ? "yes" : "NO");
        std::printf("report written to %s\n", out_path.c_str());

        bool ok = sum.clean();
        if (sum.mutation_ran && !sum.mutation_detected)
            ok = false;
        if (!ok)
            std::printf("campaign verdict: DIRTY\n");
        return ok ? 0 : 1;
    });
}

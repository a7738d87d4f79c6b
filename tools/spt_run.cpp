/**
 * @file
 * Command-line simulation driver mirroring the paper artifact's
 * run_spt.py interface (Appendix A): pick a workload, a threat
 * model, and an untaint configuration; run it; write stats.txt.
 *
 *   spt_run --workload <name> [--enable-spt]
 *           [--threat-model spectre|futuristic]
 *           [--untaint-method none|fwd|bwd|ideal]
 *           [--enable-shadow-l1 | --enable-shadow-mem]
 *           [--broadcast-width N]
 *           [--stt] [--secure-baseline]
 *           [--track-insts] [--output-dir DIR]
 *           [--trace] [--trace-out F] [--pipeview-out F]
 *           [--profile] [--profile-out F]
 *           [--interval-stats N] [--interval-out F]
 *   spt_run --list-workloads
 *
 * Without --enable-spt/--stt/--secure-baseline the insecure
 * baseline runs (as in the artifact). The Table-2 configurations
 * map exactly as in the paper's appendix:
 *
 *   SecureBaseline        --enable-spt --untaint-method none
 *   SPT{Fwd,NoShadowL1}   --enable-spt --untaint-method fwd
 *   SPT{Bwd,NoShadowL1}   --enable-spt --untaint-method bwd
 *   SPT{Bwd,ShadowL1}     --enable-spt --untaint-method bwd
 *                         --enable-shadow-l1
 *   SPT{Bwd,ShadowMem}    --enable-spt --untaint-method bwd
 *                         --enable-shadow-mem
 *   SPT{Ideal,ShadowMem}  --enable-spt --untaint-method ideal
 *                         --enable-shadow-mem
 *
 * (Note: the artifact's SecureBaseline is SPT with untainting
 * disabled, which still declassifies at the VP; the stricter
 * delay-to-VP baseline used in our Figure 7 tables is available as
 * --secure-baseline.)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "common/json.h"
#include "common/logging.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

using namespace spt;

namespace {

struct Options {
    std::string workload;
    bool list_workloads = false;
    bool enable_spt = false;
    bool stt = false;
    bool secure_baseline = false;
    std::string threat_model = "spectre";
    std::string untaint_method;
    bool shadow_l1 = false;
    bool shadow_mem = false;
    unsigned broadcast_width = 3;
    bool track_insts = false;
    std::string output_dir;
    bool trace = false;
    std::string trace_out = "spt_trace.txt";
    std::string pipeview_out = "spt_pipeview.txt";
    bool profile = false;
    std::string profile_out;
    uint64_t interval_stats = 0;
    std::string interval_out = "spt_intervals.json";
    bool fast_forward = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --workload <name> [options]\n"
        "       %s --list-workloads\n"
        "options:\n"
        "  --enable-spt                 enable SPT protection\n"
        "  --threat-model <m>           spectre | futuristic\n"
        "  --untaint-method <u>         none | fwd | bwd | ideal\n"
        "  --enable-shadow-l1           track L1D data taint\n"
        "  --enable-shadow-mem          track all-memory data taint\n"
        "  --broadcast-width <n>        untaint broadcast width\n"
        "  --stt                        run the STT baseline\n"
        "  --secure-baseline            delay loads/stores to VP\n"
        "  --track-insts                verbose untaint statistics\n"
        "  --output-dir <dir>           where to write stats.txt\n"
        "  --trace                      record the taint-lifecycle "
        "trace\n"
        "  --trace-out <path>           text trace file "
        "(default spt_trace.txt)\n"
        "  --pipeview-out <path>        O3PipeView/Konata trace file "
        "(default spt_pipeview.txt)\n"
        "  --profile                    print the top delay sources\n"
        "  --profile-out <path>         also write the profile as "
        "JSON\n"
        "  --interval-stats <n>         sample interval metrics every "
        "n cycles\n"
        "  --interval-out <path>        interval time-series JSON "
        "(default spt_intervals.json)\n"
        "  --fast-forward               skip provably quiescent "
        "cycles (stat-identical)\n",
        argv0, argv0);
    std::exit(2);
}

std::string
needValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage(argv[0]);
    return argv[++i];
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload" || a == "--executable")
            opt.workload = needValue(argc, argv, i);
        else if (a == "--list-workloads")
            opt.list_workloads = true;
        else if (a == "--enable-spt")
            opt.enable_spt = true;
        else if (a == "--stt")
            opt.stt = true;
        else if (a == "--secure-baseline")
            opt.secure_baseline = true;
        else if (a == "--threat-model")
            opt.threat_model = needValue(argc, argv, i);
        else if (a == "--untaint-method")
            opt.untaint_method = needValue(argc, argv, i);
        else if (a == "--enable-shadow-l1")
            opt.shadow_l1 = true;
        else if (a == "--enable-shadow-mem")
            opt.shadow_mem = true;
        else if (a == "--broadcast-width")
            opt.broadcast_width = static_cast<unsigned>(
                parseUnsigned(needValue(argc, argv, i),
                              "--broadcast-width", 64));
        else if (a == "--track-insts")
            opt.track_insts = true;
        else if (a == "--output-dir")
            opt.output_dir = needValue(argc, argv, i);
        else if (a == "--trace")
            opt.trace = true;
        else if (a == "--trace-out") {
            opt.trace = true;
            opt.trace_out = needValue(argc, argv, i);
        } else if (a == "--pipeview-out") {
            opt.trace = true;
            opt.pipeview_out = needValue(argc, argv, i);
        } else if (a == "--profile")
            opt.profile = true;
        else if (a == "--profile-out") {
            opt.profile = true;
            opt.profile_out = needValue(argc, argv, i);
        } else if (a == "--interval-stats")
            opt.interval_stats = parseUnsigned(
                needValue(argc, argv, i), "--interval-stats");
        else if (a == "--fast-forward")
            opt.fast_forward = true;
        else if (a == "--interval-out")
            opt.interval_out = needValue(argc, argv, i);
        else if (a == "--help" || a == "-h")
            usage(argv[0]);
        else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(argv[0]);
        }
    }
    return opt;
}

SimConfig
buildConfig(const Options &opt)
{
    SimConfig cfg;
    if (opt.shadow_l1 && opt.shadow_mem)
        SPT_FATAL("cannot specify both --enable-shadow-l1 and "
                  "--enable-shadow-mem");
    if (opt.threat_model == "spectre")
        cfg.core.attack_model = AttackModel::kSpectre;
    else if (opt.threat_model == "futuristic")
        cfg.core.attack_model = AttackModel::kFuturistic;
    else
        SPT_FATAL("unknown threat model: " << opt.threat_model);

    if (opt.stt) {
        cfg.engine.scheme = ProtectionScheme::kStt;
    } else if (opt.secure_baseline) {
        cfg.engine.scheme = ProtectionScheme::kSecureBaseline;
    } else if (opt.enable_spt) {
        cfg.engine.scheme = ProtectionScheme::kSpt;
        if (opt.untaint_method.empty())
            SPT_FATAL("--enable-spt requires --untaint-method");
        if (opt.untaint_method == "none")
            cfg.engine.spt.method = UntaintMethod::kNone;
        else if (opt.untaint_method == "fwd")
            cfg.engine.spt.method = UntaintMethod::kForward;
        else if (opt.untaint_method == "bwd")
            cfg.engine.spt.method = UntaintMethod::kBackward;
        else if (opt.untaint_method == "ideal")
            cfg.engine.spt.method = UntaintMethod::kIdeal;
        else
            SPT_FATAL("unknown untaint method: "
                      << opt.untaint_method);
        cfg.engine.spt.shadow =
            opt.shadow_mem ? ShadowKind::kShadowMem
            : opt.shadow_l1 ? ShadowKind::kShadowL1
                            : ShadowKind::kNone;
        cfg.engine.spt.broadcast_width = opt.broadcast_width;
    } else {
        cfg.engine.scheme = ProtectionScheme::kUnsafeBaseline;
    }
    cfg.profile = opt.profile;
    cfg.interval_stats = opt.interval_stats;
    cfg.core.fast_forward = opt.fast_forward;
    return cfg;
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        SPT_FATAL("cannot write " << path);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // Exit codes: 0 the run halted, 1 it did not (livelock /
    // cycle-budget exhaustion), 2 usage or environment errors
    // (unknown workload, malformed flag, unwritable output), 70
    // internal errors — see common/cli.h.
    return toolMain("spt_run", [&] {
    const Options opt = parse(argc, argv);

    if (opt.list_workloads) {
        std::printf("%-18s %-14s %s\n", "name", "category",
                    "substitutes");
        for (const Workload &w : allWorkloads())
            std::printf("%-18s %-14s %s\n", w.name.c_str(),
                        w.category.c_str(),
                        w.substitutes.c_str());
        return 0;
    }
    if (opt.workload.empty())
        usage(argv[0]);

    {
        const Workload &w = workloadByName(opt.workload);
        const SimConfig cfg = buildConfig(opt);
        Simulator sim(w.program, cfg);
        std::ofstream trace_out, pipeview_out;
        if (opt.trace) {
            trace_out = openOut(opt.trace_out);
            pipeview_out = openOut(opt.pipeview_out);
            sim.enableTrace(&trace_out, &pipeview_out);
        }
        const SimResult r = sim.run();

        std::printf("workload      %s\n", w.name.c_str());
        std::printf("config        %s\n",
                    engineConfigName(cfg.engine).c_str());
        std::printf("threat model  %s\n",
                    opt.threat_model.c_str());
        std::printf("numCycles     %llu\n",
                    static_cast<unsigned long long>(r.cycles));
        std::printf("instructions  %llu\n",
                    static_cast<unsigned long long>(
                        r.instructions));
        std::printf("ipc           %.3f\n", r.ipc);
        std::printf("termination   %s\n",
                    terminationName(r.termination));
        if (!r.halted)
            std::fprintf(stderr,
                         "warning: run did not halt (%s)\n",
                         terminationName(r.termination));
        if (opt.track_insts) {
            std::printf("--- untaint statistics ---\n");
            for (const auto &[name, value] :
                 sim.core().engine().stats().counters())
                std::printf("%-28s %llu\n", name.c_str(),
                            static_cast<unsigned long long>(value));
        }
        if (opt.trace) {
            trace_out.close();
            pipeview_out.close();
            std::printf("trace written to %s (pipeview: %s)\n",
                        opt.trace_out.c_str(),
                        opt.pipeview_out.c_str());
        }
        if (sim.profiler()) {
            std::printf("--- delay attribution ---\n");
            std::ostringstream table;
            sim.profiler()->writeTable(table);
            std::fputs(table.str().c_str(), stdout);
            if (!opt.profile_out.empty()) {
                writeReportFile(opt.profile_out,
                                sim.profiler()->toJson() + "\n");
                std::printf("profile written to %s\n",
                            opt.profile_out.c_str());
            }
        }
        if (sim.intervals()) {
            writeReportFile(opt.interval_out,
                            sim.intervals()->toJson() + "\n");
            std::printf("interval metrics written to %s\n",
                        opt.interval_out.c_str());
        }
        if (!opt.output_dir.empty()) {
            const std::string path =
                opt.output_dir + "/stats.txt";
            std::ofstream out(path);
            if (!out)
                SPT_FATAL("cannot write " << path);
            out << "numCycles " << r.cycles << "\n";
            sim.dumpStats(out);
            JsonWriter jw;
            jw.beginObject();
            jw.field("numCycles", r.cycles);
            jw.key("stats");
            sim.dumpStatsJson(jw);
            jw.endObject();
            const std::string json_path =
                opt.output_dir + "/stats.json";
            writeReportFile(json_path, jw.str() + "\n");
            std::printf("stats written to %s and %s\n",
                        path.c_str(), json_path.c_str());
        }
        return r.halted ? 0 : 1;
    }
    });
}

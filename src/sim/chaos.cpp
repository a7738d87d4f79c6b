#include "sim/chaos.h"

#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "workloads/attack_programs.h"
#include "workloads/workloads.h"

namespace spt {

namespace {

/** Stable per-cell fault seed: mixes the campaign seed with the
 *  cell coordinates so no two cells replay the same schedule, and
 *  the schedule of a cell never depends on which other cells the
 *  campaign includes. */
uint64_t
cellSeed(uint64_t base, std::size_t w, std::size_t e, std::size_t s)
{
    uint64_t x = base;
    x = x * 1000003ULL + (w + 1) * 8191ULL;
    x = x * 1000003ULL + (e + 1) * 127ULL;
    x = x * 1000003ULL + (s + 1);
    return x;
}

/** What a grid slot means; parallel to the RunJob vector. */
struct Cell {
    std::size_t workload;
    std::size_t engine;   ///< index into cfg.engines; unused for
                          ///< mutation cells
    int site;             ///< FaultSite index, -1 = fault-free
    bool mutation = false;
};

bool
archEquivalent(const RunOutcome &a, const RunOutcome &b)
{
    return a.arch_regs == b.arch_regs &&
           a.result.instructions == b.result.instructions &&
           a.result.halted == b.result.halted;
}

uint64_t
injectedCount(const RunOutcome &out)
{
    uint64_t n = 0;
    for (const auto &[name, value] : out.fault_counters)
        if (name.size() > 9 &&
            name.compare(name.size() - 9, 9, ".injected") == 0)
            n += value;
    return n;
}

EngineConfig
mutatedSptConfig()
{
    EngineConfig cfg;
    cfg.scheme = ProtectionScheme::kSpt;
    cfg.spt.method = UntaintMethod::kBackward;
    cfg.spt.shadow = ShadowKind::kShadowL1;
    cfg.spt.broadcast_width = 3;
    cfg.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    return cfg;
}

} // namespace

ChaosResult
runChaosCampaign(const ChaosConfig &cfg)
{
    SPT_ASSERT(!cfg.workloads.empty() && !cfg.engines.empty(),
               "chaos campaign needs workloads and engines");
    std::vector<FaultSite> sites = cfg.faults;
    if (sites.empty())
        for (std::size_t s = 0; s < kNumFaultSites; ++s)
            sites.push_back(static_cast<FaultSite>(s));

    std::vector<RunJob> grid;
    std::vector<Cell> cells;
    for (std::size_t w = 0; w < cfg.workloads.size(); ++w) {
        const ChaosWorkload &wl = cfg.workloads[w];
        SPT_ASSERT(wl.program != nullptr,
                   "chaos workload " << wl.name << " has no program");
        for (std::size_t e = 0; e < cfg.engines.size(); ++e) {
            const NamedConfig &eng = cfg.engines[e];
            RunJob job;
            job.program = wl.program;
            job.engine = eng.engine;
            job.attack_model = cfg.model;
            job.max_cycles = cfg.max_cycles;
            job.invariants = true;
            job.label = wl.name + "/" + eng.name + "/baseline";
            grid.push_back(job);
            cells.push_back({w, e, -1, false});
            for (std::size_t s = 0; s < sites.size(); ++s) {
                RunJob faulted = job;
                faulted.faults.seed = cellSeed(cfg.seed, w, e, s);
                faulted.faults.set(sites[s], cfg.rate_ppm);
                faulted.label = wl.name + "/" + eng.name + "/" +
                                faultSiteName(sites[s]);
                grid.push_back(faulted);
                cells.push_back(
                    {w, e, static_cast<int>(sites[s]), false});
            }
        }
    }
    const std::size_t mutation_begin = grid.size();
    if (cfg.mutate) {
        const EngineConfig mutated = mutatedSptConfig();
        for (std::size_t w = 0; w < cfg.workloads.size(); ++w) {
            RunJob job;
            job.program = cfg.workloads[w].program;
            job.engine = mutated;
            job.attack_model = cfg.model;
            job.max_cycles = cfg.max_cycles;
            job.invariants = true;
            job.label = cfg.workloads[w].name + "/" +
                        engineConfigName(mutated) + "/mutation";
            grid.push_back(job);
            cells.push_back({w, 0, -1, true});
        }
    }

    ExpRunner runner(cfg.jobs);
    RunnerPolicy policy;
    policy.keep_going = true;
    const std::vector<RunOutcome> outcomes =
        runner.run(grid, policy);

    ChaosResult result;
    ChaosSummary &sum = result.summary;
    sum.runs = outcomes.size();
    sum.mutation_ran = cfg.mutate;

    // Index of each cell's fault-free baseline for the equivalence
    // check: the campaign emits it immediately before its fault
    // cells, so scan backwards.
    const auto baselineOf = [&](std::size_t i) {
        while (cells[i].site >= 0)
            --i;
        return i;
    };

    JsonWriter jw;
    jw.beginObject();
    jw.key("campaign").beginObject();
    jw.field("seed", cfg.seed);
    jw.field("rate_ppm", static_cast<uint64_t>(cfg.rate_ppm));
    jw.field("model", cfg.model == AttackModel::kSpectre
                          ? "spectre"
                          : "futuristic");
    jw.field("max_cycles", cfg.max_cycles);
    jw.key("workloads").beginArray();
    for (const ChaosWorkload &wl : cfg.workloads)
        jw.value(wl.name);
    jw.endArray();
    jw.key("engines").beginArray();
    for (const NamedConfig &eng : cfg.engines)
        jw.value(eng.name);
    jw.endArray();
    jw.key("sites").beginArray();
    for (const FaultSite site : sites)
        jw.value(faultSiteName(site));
    jw.endArray();
    jw.endObject();

    jw.key("cells").beginArray();
    for (std::size_t i = 0; i < mutation_begin; ++i) {
        const Cell &cell = cells[i];
        const RunOutcome &out = outcomes[i];
        jw.beginObject();
        jw.field("workload", cfg.workloads[cell.workload].name);
        jw.field("engine", cfg.engines[cell.engine].name);
        jw.field("site", cell.site < 0
                             ? "none"
                             : faultSiteName(
                                   static_cast<FaultSite>(cell.site)));
        jw.field("status", runStatusName(out.status));
        jw.field("termination",
                 terminationName(out.result.termination));
        jw.field("cycles", out.result.cycles);
        jw.field("instructions", out.result.instructions);
        jw.field("checksum", out.arch_regs[kChecksumReg]);
        const uint64_t injected = injectedCount(out);
        jw.field("faults_injected", injected);
        sum.faults_injected += injected;
        switch (out.status) {
          case RunStatus::kOk:
            break;
          case RunStatus::kViolation:
            ++sum.violations;
            break;
          case RunStatus::kTimeout:
          case RunStatus::kLivelock:
          case RunStatus::kCrash:
            ++sum.failures;
            break;
        }
        if (cell.site >= 0) {
            const RunOutcome &base = outcomes[baselineOf(i)];
            const bool match = base.status == RunStatus::kOk
                                   ? archEquivalent(out, base)
                                   : true; // baseline failure is
                                           // already counted
            jw.field("arch_match", match);
            if (!match)
                ++sum.arch_divergences;
        }
        if (!out.error.empty())
            jw.field("error", out.error);
        jw.endObject();
        if (out.status == RunStatus::kViolation ||
            out.status == RunStatus::kCrash)
            result.diagnostics.emplace_back(
                out.job_desc, out.diagnostics_json.empty()
                                  ? std::string("[]")
                                  : out.diagnostics_json);
    }
    jw.endArray();

    if (cfg.mutate) {
        // The negative control detects the seeded bug iff at least
        // one workload drove the leaky gate AND every run that
        // opened the gate was flagged; a gate that opened silently
        // is a checker miss.
        uint64_t detections = 0;
        uint64_t misses = 0;
        jw.key("mutation").beginArray();
        for (std::size_t i = mutation_begin; i < outcomes.size();
             ++i) {
            const RunOutcome &out = outcomes[i];
            const uint64_t gate_opens =
                out.counter("mutation.leaky_gate_opens");
            const bool flagged =
                out.status == RunStatus::kViolation;
            if (flagged)
                ++detections;
            else if (gate_opens > 0)
                ++misses;
            jw.beginObject();
            jw.field("workload",
                     cfg.workloads[cells[i].workload].name);
            jw.field("status", runStatusName(out.status));
            jw.field("gate_opens", gate_opens);
            jw.field("detected", flagged);
            jw.endObject();
            if (flagged)
                result.diagnostics.emplace_back(
                    out.job_desc, out.diagnostics_json.empty()
                                      ? std::string("[]")
                                      : out.diagnostics_json);
        }
        jw.endArray();
        sum.mutation_detected = detections > 0 && misses == 0;
    }

    jw.key("summary").beginObject();
    jw.field("runs", sum.runs);
    jw.field("faults_injected", sum.faults_injected);
    jw.field("violations", sum.violations);
    jw.field("arch_divergences", sum.arch_divergences);
    jw.field("failures", sum.failures);
    jw.field("clean", sum.clean());
    if (cfg.mutate)
        jw.field("mutation_detected", sum.mutation_detected);
    jw.endObject();
    jw.endObject();
    result.json = jw.str();
    return result;
}

std::vector<ChaosWorkload>
quickChaosWorkloads()
{
    // Small-footprint builds: a quick campaign must finish in CI
    // seconds, and every behavior class the fault sites touch
    // (pointer chasing, indirect dispatch, hashing, call/return,
    // constant-time straight-line, sorting networks, and a real
    // transient-attack victim) is represented.
    struct Registry {
        std::vector<Program> programs;
        std::vector<ChaosWorkload> list;
    };
    static const Registry reg = [] {
        Registry r;
        r.programs.push_back(makePointerChase(512, 1));
        r.programs.push_back(makeInterpreter(1500));
        r.programs.push_back(makeHashTable(400, 400));
        r.programs.push_back(makeTreeSearch(6, 3));
        r.programs.push_back(makeChaCha20(4));
        r.programs.push_back(makeDjbsort(64));
        r.programs.push_back(makeSpectreV1().program);
        const char *names[] = {"pchase",     "interp",  "hashtab",
                               "treesearch", "chacha20", "djbsort",
                               "spectre-v1"};
        for (std::size_t i = 0; i < r.programs.size(); ++i)
            r.list.push_back({names[i], &r.programs[i]});
        return r;
    }();
    return reg.list;
}

std::vector<NamedConfig>
chaosEngines()
{
    std::vector<NamedConfig> engines;
    for (const NamedConfig &cfg : table2Configs())
        if (cfg.name == "SPT{Bwd,ShadowL1}" || cfg.name == "STT" ||
            cfg.name == "SecureBaseline")
            engines.push_back(cfg);
    return engines;
}

} // namespace spt

/**
 * @file
 * Static constant-time lint driver: builds the CFG, runs the
 * knowledge-propagation pass and the secret-flow lint over bundled
 * workloads, the Section 9.1 attack programs, or an assembly file,
 * and prints per-instruction findings. It is also the knowledge-map
 * compiler: `--emit-knowledge-map` lowers the fixpoint into a binary
 * per-PC artifact of robust facts (DESIGN.md §13).
 *
 * Usage:
 *   spt_lint [options] <target>...
 *     <target>        workload name, attack program name
 *                     ("spectre-v1", "ct-victim"), `all`, or a
 *                     path to a `.s` assembly file
 *   --window=N        speculation-window budget (default 100)
 *   --print-knowledge print per-instruction operand knowledge
 *   --json            machine-readable report on stdout instead of
 *                     the human text (same exit codes)
 *   --emit-knowledge-map=FILE
 *                     compile the target's kRobust facts into a
 *                     binary knowledge map (exactly one target)
 *   --map-json=FILE   also dump the map as JSON (exactly one target)
 *   --map-vp-model=spectre|futuristic|any
 *                     VP model recorded in the map (default any:
 *                     robust facts are model-independent)
 *   --check-bundled   CI gate: lint every bundled constant-time
 *                     kernel (must be clean) and attack program
 *                     (must have at least one secret-dependent
 *                     transmitter finding); exit 1 on violation
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/knowledge_analysis.h"
#include "analysis/knowledge_map.h"
#include "analysis/secret_flow.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/logging.h"
#include "isa/assembler.h"
#include "workloads/attack_programs.h"
#include "workloads/workloads.h"

namespace {

using namespace spt;

struct Options {
    unsigned window = 100;
    bool print_knowledge = false;
    bool check_bundled = false;
    bool json = false;
    std::string emit_map;
    std::string map_json;
    KnowledgeVpModel vp_model = KnowledgeVpModel::kAny;
    std::vector<std::string> targets;
};

struct LintReport {
    size_t findings = 0;
    size_t transient_only = 0;
};

Program
loadTarget(const std::string &name)
{
    if (name == "spectre-v1")
        return makeSpectreV1().program;
    if (name == "ct-victim")
        return makeCtVictim().program;
    if (name.size() > 2 &&
        name.compare(name.size() - 2, 2, ".s") == 0) {
        std::ifstream in(name);
        if (!in)
            SPT_FATAL("cannot open " << name);
        std::ostringstream text;
        text << in.rdbuf();
        return assemble(text.str());
    }
    return workloadByName(name).program;
}

/** Lints one program; findings go to stdout as text, or into @p jw
 *  as one element of an open array when --json is active. */
LintReport
lintProgram(const std::string &name, const Program &prog,
            const Options &opts, JsonWriter *jw)
{
    const Cfg cfg(prog);
    const SecretFlowLint lint(cfg, {opts.window});

    if (jw) {
        jw->beginObject();
        jw->field("name", name);
        jw->field("instructions", prog.size());
        jw->field("blocks",
                  static_cast<uint64_t>(cfg.blocks().size()));
        jw->field("secret_ranges",
                  static_cast<uint64_t>(prog.secretRanges().size()));
    } else {
        std::cout << "== " << name << ": " << prog.size()
                  << " instructions, " << cfg.blocks().size()
                  << " blocks, " << prog.secretRanges().size()
                  << " secret range(s)\n";
    }

    if (opts.print_knowledge) {
        const KnowledgeAnalysis ka(cfg);
        if (jw)
            jw->key("knowledge").beginArray();
        for (uint64_t pc = 0; pc < prog.size(); ++pc) {
            const auto claims = ka.claimsAt(pc);
            if (jw) {
                jw->beginObject();
                jw->field("pc", pc);
                jw->field("instruction", toString(prog.at(pc)));
                jw->field("reachable", ka.inState(pc) != nullptr);
                jw->key("claims").beginArray();
                if (ka.inState(pc))
                    for (const SlotClaim &c : claims) {
                        jw->beginObject();
                        jw->field("slot", uint64_t{c.slot});
                        jw->field("level", toString(c.level));
                        jw->endObject();
                    }
                jw->endArray();
                jw->endObject();
                continue;
            }
            std::cout << "  " << pc << ":\t"
                      << toString(prog.at(pc));
            if (!ka.inState(pc)) {
                std::cout << "\t; unreachable";
            } else {
                for (const SlotClaim &c : claims)
                    std::cout << "\t; src" << unsigned(c.slot)
                              << "=" << toString(c.level);
            }
            std::cout << "\n";
        }
        if (jw)
            jw->endArray();
    }

    LintReport rep;
    if (jw)
        jw->key("findings").beginArray();
    for (const LintFinding &f : lint.findings()) {
        ++rep.findings;
        if (f.transient_only)
            ++rep.transient_only;
        if (jw) {
            jw->beginObject();
            jw->field("pc", f.pc);
            jw->field("kind", toString(f.kind));
            jw->field("transient_only", f.transient_only);
            jw->field("instruction", toString(f.si));
            jw->field("detail", f.detail);
            jw->endObject();
        } else {
            std::cout << "  pc " << f.pc << ": " << toString(f.kind)
                      << (f.transient_only ? " [transient]" : "")
                      << " in `" << toString(f.si) << "` ("
                      << f.detail << ")\n";
        }
    }
    if (jw) {
        jw->endArray();
        jw->field("num_findings",
                  static_cast<uint64_t>(rep.findings));
        jw->field("transient_only",
                  static_cast<uint64_t>(rep.transient_only));
        jw->endObject();
    } else {
        std::cout << "  -> " << rep.findings << " finding(s), "
                  << rep.transient_only << " transient-only\n";
    }
    return rep;
}

int
checkBundled(const Options &opts, JsonWriter *jw)
{
    bool ok = true;
    for (const std::string &name : ctWorkloadNames()) {
        const LintReport rep = lintProgram(
            name, workloadByName(name).program, opts, jw);
        if (rep.findings != 0) {
            std::cerr << "FAIL: constant-time kernel " << name
                      << " has " << rep.findings << " finding(s)\n";
            ok = false;
        }
    }
    const std::pair<std::string, Program> attacks[] = {
        {"spectre-v1", makeSpectreV1().program},
        {"ct-victim", makeCtVictim().program},
    };
    for (const auto &[name, prog] : attacks) {
        const LintReport rep = lintProgram(name, prog, opts, jw);
        if (rep.findings == 0) {
            std::cerr << "FAIL: attack program " << name
                      << " produced no findings\n";
            ok = false;
        }
    }
    if (!jw)
        std::cout << (ok ? "check-bundled: OK\n"
                         : "check-bundled: FAILED\n");
    return ok ? 0 : 1;
}

/** Compiles and writes the knowledge-map artifact(s) for the single
 *  target program. */
void
emitMapArtifacts(const std::string &name, const Program &prog,
                 const Options &opts)
{
    const Cfg cfg(prog);
    const KnowledgeAnalysis analysis(cfg);
    const KnowledgeMap map = emitKnowledgeMap(analysis, opts.vp_model);
    if (!opts.emit_map.empty()) {
        map.saveToFile(opts.emit_map);
        std::cerr << "spt_lint: wrote knowledge map for " << name
                  << " (" << map.totalFacts() << " robust fact(s) at "
                  << map.coveredPcs() << " pc(s), vp-model "
                  << toString(map.vpModel()) << ") to "
                  << opts.emit_map << "\n";
    }
    if (!opts.map_json.empty()) {
        std::ofstream os(opts.map_json);
        if (!os)
            SPT_FATAL("cannot write " << opts.map_json);
        os << map.toJson(&prog) << "\n";
        std::cerr << "spt_lint: wrote knowledge map JSON to "
                  << opts.map_json << "\n";
    }
}

KnowledgeVpModel
parseVpModel(const std::string &s)
{
    if (s == "spectre")
        return KnowledgeVpModel::kSpectre;
    if (s == "futuristic")
        return KnowledgeVpModel::kFuturistic;
    if (s == "any")
        return KnowledgeVpModel::kAny;
    SPT_FATAL("--map-vp-model must be spectre|futuristic|any, got '"
              << s << "'");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    // Exit codes: 0 clean, 1 findings / check-bundled failure, 2
    // usage errors (unknown workload or file, malformed --window=),
    // 70 internal errors — see common/cli.h.
    return toolMain("spt_lint", [&] {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--window=", 0) == 0) {
            opts.window = static_cast<unsigned>(parseUnsigned(
                arg.substr(9), "--window=", 1'000'000));
        } else if (arg == "--print-knowledge") {
            opts.print_knowledge = true;
        } else if (arg == "--check-bundled") {
            opts.check_bundled = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg.rfind("--emit-knowledge-map=", 0) == 0) {
            opts.emit_map = arg.substr(21);
        } else if (arg.rfind("--map-json=", 0) == 0) {
            opts.map_json = arg.substr(11);
        } else if (arg.rfind("--map-vp-model=", 0) == 0) {
            opts.vp_model = parseVpModel(arg.substr(15));
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: spt_lint [--window=N] "
                   "[--print-knowledge] [--json] "
                   "[--emit-knowledge-map=FILE] [--map-json=FILE] "
                   "[--map-vp-model=spectre|futuristic|any] "
                   "[--check-bundled] "
                   "[<workload>|spectre-v1|ct-victim|all|file.s]...\n";
            return 0;
        } else {
            opts.targets.push_back(arg);
        }
    }

    const bool emitting =
        !opts.emit_map.empty() || !opts.map_json.empty();
    if (emitting &&
        (opts.check_bundled || opts.targets.size() != 1 ||
         opts.targets[0] == "all")) {
        std::cerr << "spt_lint: --emit-knowledge-map/--map-json "
                     "need exactly one target\n";
        return 2;
    }

    JsonWriter jw;
    JsonWriter *out = nullptr;
    if (opts.json) {
        out = &jw;
        jw.beginObject();
        jw.field("tool", "spt_lint");
        jw.field("window", uint64_t{opts.window});
        jw.key("programs").beginArray();
    }

    int rc;
    if (opts.check_bundled) {
        rc = checkBundled(opts, out);
    } else if (opts.targets.empty()) {
        std::cerr << "spt_lint: no target (try --help)\n";
        return 2;
    } else {
        size_t total = 0;
        for (const std::string &t : opts.targets) {
            if (t == "all") {
                for (const Workload &w : allWorkloads())
                    total += lintProgram(w.name, w.program, opts,
                                         out)
                                 .findings;
                total += lintProgram("spectre-v1",
                                     makeSpectreV1().program, opts,
                                     out)
                             .findings;
                total += lintProgram("ct-victim",
                                     makeCtVictim().program, opts,
                                     out)
                             .findings;
            } else {
                const Program prog = loadTarget(t);
                total += lintProgram(t, prog, opts, out).findings;
                if (emitting)
                    emitMapArtifacts(t, prog, opts);
            }
        }
        rc = total == 0 ? 0 : 1;
    }

    if (out) {
        jw.endArray();
        jw.field("exit_code", rc);
        jw.endObject();
        std::cout << jw.str() << "\n";
    }
    return rc;
    });
}

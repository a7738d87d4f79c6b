#include "analysis/differential.h"

#include <memory>
#include <sstream>
#include <unordered_map>

#include "analysis/cfg.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "uarch/core.h"

namespace spt {

namespace {

/** An SptEngine that validates static claims at commit time, before
 *  the base class retires (and frees) the instruction's taint slot. */
class CheckingEngine : public SptEngine
{
  public:
    CheckingEngine(const SptConfig &cfg,
                   std::unordered_map<uint64_t, std::vector<SlotClaim>>
                       claims,
                   DifferentialResult &result)
        : SptEngine(cfg), claims_(std::move(claims)), result_(result)
    {
    }

    void
    onRetire(const DynInst &d) override
    {
        if (auto it = claims_.find(d.pc); it != claims_.end())
            check(d, it->second);
        SptEngine::onRetire(d);
    }

  private:
    void
    check(const DynInst &d, const std::vector<SlotClaim> &claims)
    {
        const InstTaint *taint = instTaint(d.seq);
        if (!taint)
            return;
        for (const SlotClaim &c : claims) {
            const bool untainted = taint->src[c.slot].nothing();
            if (c.level == Knowledge::kRobust) {
                ++result_.robust_checked;
                if (!untainted) {
                    ++result_.robust_denied;
                    if (result_.log.size() < 32) {
                        std::ostringstream os;
                        os << "pc " << d.pc << " seq " << d.seq
                           << " `" << toString(d.si) << "` slot "
                           << unsigned(c.slot)
                           << ": static claims robust knowledge, "
                              "engine retires it tainted";
                        result_.log.push_back(os.str());
                    }
                }
            } else if (c.level == Knowledge::kWindowed) {
                ++result_.windowed_checked;
                if (!untainted)
                    ++result_.windowed_denied;
            }
        }
    }

    std::unordered_map<uint64_t, std::vector<SlotClaim>> claims_;
    DifferentialResult &result_;
};

} // namespace

DifferentialResult
runDifferential(const Program &program,
                const KnowledgeAnalysis &analysis,
                const DifferentialConfig &config)
{
    SPT_ASSERT(program.size() == analysis.cfg().program().size(),
               "analysis was built over a different program");

    std::unordered_map<uint64_t, std::vector<SlotClaim>> claims;
    for (uint64_t pc = 0; pc < program.size(); ++pc) {
        std::vector<SlotClaim> at = analysis.claimsAt(pc);
        std::erase_if(at, [](const SlotClaim &c) {
            return c.level == Knowledge::kUnknown;
        });
        if (!at.empty())
            claims.emplace(pc, std::move(at));
    }

    DifferentialResult result;
    SptConfig spt;
    spt.method = UntaintMethod::kIdeal;
    spt.shadow = config.shadow;
    auto engine =
        std::make_unique<CheckingEngine>(spt, std::move(claims),
                                         result);
    CoreParams cp;
    cp.attack_model = config.attack_model;
    cp.perfect_icache = true;
    Core core(program, cp, MemorySystemParams{}, std::move(engine));
    while (!core.halted() && core.cycle() < config.max_cycles)
        core.tick();
    result.halted = core.halted();
    return result;
}

DifferentialSweepResult
runDifferentialSweep(uint64_t first_seed, unsigned count,
                     const FuzzConfig &fuzz,
                     const DifferentialConfig &config)
{
    DifferentialSweepResult sweep;
    sweep.per_program.resize(count);
    // Each index owns its slot: fuzzer, CFG, analysis, and core are
    // all local to the worker, so the assembled vector is identical
    // for any jobs value.
    parallelFor(count, config.jobs, [&](std::size_t i) {
        const Program program =
            fuzzProgram(first_seed + i, fuzz);
        const Cfg cfg(program);
        const KnowledgeAnalysis analysis(cfg);
        sweep.per_program[i] =
            runDifferential(program, analysis, config);
    });
    for (const DifferentialResult &res : sweep.per_program) {
        sweep.robust_checked += res.robust_checked;
        sweep.robust_denied += res.robust_denied;
        sweep.windowed_checked += res.windowed_checked;
        sweep.windowed_denied += res.windowed_denied;
    }
    return sweep;
}

} // namespace spt

#include "sim/simulator.h"

#include "common/json.h"
#include "common/logging.h"
#include "uarch/invariant_checker.h"

namespace spt {

const char *
terminationName(Termination t)
{
    switch (t) {
      case Termination::kHalted:      return "halted";
      case Termination::kMaxCycles:   return "max-cycles";
      case Termination::kLivelock:    return "livelock";
    }
    return "?";
}

Simulator::Simulator(const Program &program, const SimConfig &config)
    : program_(program), config_(config)
{
    core_ = std::make_unique<Core>(program, config.core, config.mem,
                                   makeEngine(config.engine));
    if (config.lockstep_check) {
        reference_ = std::make_unique<FunctionalCpu>(program);
        core_->setCommitHook([this](const DynInst &d) {
            auto info = reference_->step();
            SPT_ASSERT(!info.halted || d.si.op == Opcode::kHalt,
                       "reference halted before the core");
            SPT_ASSERT(info.pc == d.pc,
                       "lockstep pc mismatch: core " << d.pc
                           << " reference " << info.pc << " (seq "
                           << d.seq << ")");
            if (info.wrote_reg) {
                SPT_ASSERT(d.has_dest,
                           "reference wrote a register but core did "
                           "not, pc " << d.pc);
                SPT_ASSERT(d.result == info.dest_value,
                           "lockstep value mismatch at pc "
                               << d.pc << ": core " << d.result
                               << " reference " << info.dest_value);
            }
            if (info.is_mem) {
                SPT_ASSERT(d.eff_addr == info.mem_addr,
                           "lockstep address mismatch at pc "
                               << d.pc);
            }
        });
    }
}

Simulator::~Simulator() = default;

void
Simulator::enableTrace(std::ostream *text, std::ostream *pipeview)
{
    SPT_ASSERT(!ran_, "enableTrace must precede run()");
    tracer_ = std::make_unique<Tracer>(text, pipeview);
}

SimResult
Simulator::run()
{
    SPT_ASSERT(!ran_, "Simulator::run() may only be called once");
    ran_ = true;
    if (config_.profile)
        profiler_ = std::make_unique<DelayProfiler>();
    if (config_.interval_stats > 0)
        intervals_ = std::make_unique<IntervalRecorder>(
            config_.interval_stats, &core_->engine());
    if (config_.faults.any()) {
        injector_ = std::make_unique<FaultInjector>(config_.faults);
        core_->setFaultInjector(injector_.get());
    }
    if (config_.invariants)
        checker_ = std::make_unique<InvariantChecker>(*core_);
    if (tracer_)
        observers_.add(tracer_.get());
    if (profiler_)
        observers_.add(profiler_.get());
    if (intervals_)
        observers_.add(intervals_.get());
    if (checker_)
        observers_.add(checker_.get());
    if (!observers_.empty())
        core_->setObserver(&observers_);
    const Core::RunResult r = core_->run(config_.max_cycles);
    if (tracer_)
        tracer_->finish(core_->cycle());
    if (intervals_)
        intervals_->finish(core_->cycle());
    if (checker_)
        checker_->finish(core_->cycle());
    livelocked_ = r.livelocked;
    SimResult result;
    result.cycles = r.cycles;
    result.instructions = r.instructions;
    result.halted = r.halted;
    result.ipc = r.cycles == 0
                     ? 0.0
                     : static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles);
    if (r.halted)
        result.termination = Termination::kHalted;
    else if (r.livelocked)
        result.termination = Termination::kLivelock;
    else
        result.termination = Termination::kMaxCycles;
    return result;
}

std::string
Simulator::diagnosticsJson() const
{
    const bool has_reports = checker_ && !checker_->reports().empty();
    if (!has_reports && !livelocked_)
        return "[]"; // JsonWriter writes an empty array as "[\n]"
    JsonWriter jw;
    jw.beginArray();
    if (has_reports)
        for (const DiagnosticReport &rep : checker_->reports())
            rep.toJson(jw);
    if (livelocked_)
        InvariantChecker::livelockReport(*core_, core_->cycle(),
                                         checker_.get())
            .toJson(jw);
    jw.endArray();
    return jw.str();
}

void
Simulator::dumpStats(std::ostream &os) const
{
    os << "# --- core ---\n";
    const_cast<Core &>(*core_).stats().dump(os);
    os << "# --- engine (" << core_->engine().name() << ") ---\n";
    core_->engine().stats().dump(os);
    os << "# --- memory ---\n";
    core_->memorySystem().stats().dump(os);
    os << "# --- bpu ---\n";
    core_->bpu().stats().dump(os);
}

void
Simulator::dumpStatsJson(JsonWriter &jw) const
{
    Core &core = const_cast<Core &>(*core_);
    jw.beginObject();
    jw.key("core");
    core.stats().dumpJson(jw);
    jw.field("engine_name", core.engine().name());
    jw.key("engine");
    core.engine().stats().dumpJson(jw);
    jw.key("mem");
    core.memorySystem().stats().dumpJson(jw);
    jw.key("bpu");
    core.bpu().stats().dumpJson(jw);
    jw.endObject();
}

uint64_t
Simulator::stat(const std::string &name) const
{
    const auto dot = name.find('.');
    if (dot == std::string::npos)
        SPT_FATAL("stat name needs a component prefix: " << name);
    const std::string component = name.substr(0, dot);
    const std::string rest = name.substr(dot + 1);
    Core &core = const_cast<Core &>(*core_);
    if (component == "core")
        return core.stats().get(rest);
    if (component == "engine")
        return core.engine().stats().get(rest);
    if (component == "mem")
        return core.memorySystem().stats().get(rest);
    if (component == "bpu")
        return core.bpu().stats().get(rest);
    SPT_FATAL("unknown stat component: " << component);
}

SimResult
runProgram(const Program &program, const EngineConfig &engine_cfg,
           AttackModel model, uint64_t max_cycles)
{
    SimConfig cfg;
    cfg.engine = engine_cfg;
    cfg.core.attack_model = model;
    cfg.max_cycles = max_cycles;
    Simulator sim(program, cfg);
    return sim.run();
}

} // namespace spt

#include "bp/ltage.h"

namespace spt {

LtagePredictor::LtagePredictor(const TageConfig &config)
    : tage_(config)
{
}

bool
LtagePredictor::predict(uint64_t pc)
{
    // TAGE must always observe the branch so its speculative history
    // stays aligned with the fetch stream.
    const std::optional<bool> loop_pred = loop_.predict(pc);
    const bool tage_pred = tage_.predict(pc);
    if (loop_pred && use_loop_.taken())
        return *loop_pred;
    return tage_pred;
}

void
LtagePredictor::update(uint64_t pc, bool taken)
{
    // Train the use-loop arbiter on branches where the two disagree.
    const bool loop_confident = loop_.confident(pc);
    loop_.update(pc, taken);
    tage_.update(pc, taken);
    // Arbiter training: a confident loop entry that survives update
    // with its confidence intact agreed with the outcome.
    if (loop_confident)
        use_loop_.train(loop_.confident(pc));
}

void
LtagePredictor::checkpoint(BpCheckpoint &cp) const
{
    tage_.checkpoint(cp);
}

void
LtagePredictor::restore(const BpCheckpoint &cp)
{
    tage_.restore(cp);
    loop_.resyncSpeculative();
}

} // namespace spt

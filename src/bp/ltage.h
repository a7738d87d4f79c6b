/**
 * @file
 * LTAGE: TAGE plus the loop predictor, arbitrated by a global
 * use-loop confidence counter (paper Table 1 specifies an LTAGE
 * branch predictor).
 */

#ifndef SPT_BP_LTAGE_H
#define SPT_BP_LTAGE_H

#include "bp/direction_predictor.h"
#include "bp/loop_predictor.h"
#include "bp/tage.h"

namespace spt {

class LtagePredictor
{
  public:
    explicit LtagePredictor(const TageConfig &config = TageConfig{});

    /** Predicts the branch at @p pc and speculatively advances the
     *  global history with the predicted outcome. */
    bool predict(uint64_t pc);
    /** Commit-time training with the architectural outcome. */
    void update(uint64_t pc, bool taken);
    /** Captures the speculative state (history registers) into
     *  @p cp, reusing its storage, and restores it. */
    void checkpoint(BpCheckpoint &cp) const;
    void restore(const BpCheckpoint &cp);

    /** Must be called after any squash (see LoopPredictor). */
    void onSquash() { loop_.resyncSpeculative(); }

    /** Replays the architectural outcome into speculative history
     *  after a mispredict recovery. */
    void pushSpecBit(bool bit) { tage_.pushSpecBit(bit); }

    LoopPredictor &loopPredictor() { return loop_; }

  private:
    TagePredictor tage_;
    LoopPredictor loop_;
    SatCounter use_loop_{4, 8};
};

} // namespace spt

#endif // SPT_BP_LTAGE_H

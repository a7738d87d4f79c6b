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

class LtagePredictor : public DirectionPredictor
{
  public:
    explicit LtagePredictor(const TageConfig &config = TageConfig{});

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    void checkpoint(BpCheckpoint &cp) const override;
    void restore(const BpCheckpoint &cp) override;

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

/**
 * @file
 * Bimodal direction predictor: the base component of the TAGE
 * predictor.
 */

#ifndef SPT_BP_SIMPLE_PREDICTORS_H
#define SPT_BP_SIMPLE_PREDICTORS_H

#include <cstddef>
#include <vector>

#include "bp/direction_predictor.h"

namespace spt {

/** Classic bimodal table of 2-bit counters, indexed by pc. */
class BimodalPredictor : public DirectionPredictor
{
  public:
    explicit BimodalPredictor(unsigned index_bits = 13);

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    void checkpoint(BpCheckpoint &cp) const override { cp.words.clear(); }
    void restore(const BpCheckpoint &) override {}

  private:
    unsigned index_bits_;
    std::vector<SatCounter> table_;

    size_t index(uint64_t pc) const;
};

} // namespace spt

#endif // SPT_BP_SIMPLE_PREDICTORS_H

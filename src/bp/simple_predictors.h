/**
 * @file
 * Bimodal and gshare direction predictors. These serve both as
 * standalone simple predictors (ablations/tests) and as the base
 * component of the TAGE predictor.
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
    BpCheckpoint checkpoint() const override { return {}; }
    void restore(const BpCheckpoint &) override {}

    /** Table peek for tests. */
    unsigned counterValue(uint64_t pc) const;

  private:
    unsigned index_bits_;
    std::vector<SatCounter> table_;

    size_t index(uint64_t pc) const;
};

/** gshare: global history XORed with pc bits indexes a counter
 *  table. History is updated speculatively at predict time. */
class GsharePredictor : public DirectionPredictor
{
  public:
    GsharePredictor(unsigned index_bits = 13,
                    unsigned history_bits = 13);

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    BpCheckpoint checkpoint() const override;
    void restore(const BpCheckpoint &cp) override;

    uint64_t history() const { return history_; }

  private:
    unsigned index_bits_;
    unsigned history_bits_;
    uint64_t history_ = 0;      ///< speculative
    uint64_t arch_history_ = 0; ///< committed (used for training index)
    std::vector<SatCounter> table_;

    size_t index(uint64_t pc, uint64_t history) const;
};

} // namespace spt

#endif // SPT_BP_SIMPLE_PREDICTORS_H

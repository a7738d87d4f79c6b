/**
 * @file
 * Loop-termination predictor (the "L" of LTAGE): learns fixed trip
 * counts for loop branches and predicts the final not-taken
 * iteration that counter-based predictors always miss.
 *
 * Architectural (commit-time) training state is exact. Speculative
 * per-entry iteration counters advance at predict time; after any
 * pipeline squash the core calls resyncSpeculative(), which resets
 * speculative counters to the architectural ones (a conservative
 * simplification of per-checkpoint counter recovery — the confidence
 * mechanism absorbs the rare post-squash mispredictions).
 */

#ifndef SPT_BP_LOOP_PREDICTOR_H
#define SPT_BP_LOOP_PREDICTOR_H

#include <cstdint>
#include <optional>
#include <vector>

namespace spt {

class LoopPredictor
{
  public:
    explicit LoopPredictor(unsigned index_bits = 8,
                           unsigned confidence_threshold = 3);

    /** Returns the loop prediction if this pc has a confident entry,
     *  std::nullopt otherwise. Advances the speculative counter. */
    std::optional<bool> predict(uint64_t pc);

    /** Commit-time training. */
    void update(uint64_t pc, bool taken);

    /** Resets speculative iteration counters after a squash. */
    void resyncSpeculative();

    /** Peek for tests. */
    bool confident(uint64_t pc) const;
    uint32_t tripCount(uint64_t pc) const;

  private:
    struct Entry {
        uint32_t tag = 0;
        bool valid = false;
        uint32_t trip_count = 0;    ///< learned taken-iterations count
        uint32_t arch_count = 0;    ///< committed iterations this trip
        uint32_t spec_count = 0;    ///< speculative iterations
        uint32_t confidence = 0;
    };

    unsigned index_bits_;
    unsigned confidence_threshold_;
    std::vector<Entry> table_;

    size_t index(uint64_t pc) const;
    uint32_t tagOf(uint64_t pc) const;
};

} // namespace spt

#endif // SPT_BP_LOOP_PREDICTOR_H

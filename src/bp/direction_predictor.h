/**
 * @file
 * Pieces shared by the conditional-branch direction predictors
 * (bimodal, TAGE, LTAGE): the speculative-history checkpoint and the
 * saturating counter.
 *
 * Predictors that use global history update it speculatively at
 * predict() time and expose checkpoint()/restore() so the core can
 * rewind on a squash. Counter-table training happens only at commit
 * time via update(), which keeps predictor *training* state free of
 * transient (and hence possibly tainted) outcomes, as required by
 * SPT's prediction-based implicit-channel rule (paper Section 6.4).
 */

#ifndef SPT_BP_DIRECTION_PREDICTOR_H
#define SPT_BP_DIRECTION_PREDICTOR_H

#include <cstdint>
#include <vector>

namespace spt {

/** Opaque speculative-history checkpoint. */
struct BpCheckpoint {
    std::vector<uint64_t> words;
};

/** An n-bit saturating up/down counter. */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits = 2, unsigned initial = 0)
        : max_((1u << bits) - 1), value_(initial)
    {
    }

    void increment()
    {
        if (value_ < max_)
            ++value_;
    }
    void decrement()
    {
        if (value_ > 0)
            --value_;
    }
    /** Trains toward taken/not-taken. */
    void train(bool taken) { taken ? increment() : decrement(); }

    bool taken() const { return value_ > max_ / 2; }
    unsigned value() const { return value_; }
    unsigned max() const { return max_; }
    bool saturatedHigh() const { return value_ == max_; }
    bool saturatedLow() const { return value_ == 0; }
    void set(unsigned v) { value_ = v > max_ ? max_ : v; }

  private:
    unsigned max_;
    unsigned value_;
};

} // namespace spt

#endif // SPT_BP_DIRECTION_PREDICTOR_H

/**
 * @file
 * TAGE direction predictor (Seznec): a bimodal base table plus
 * several partially-tagged tables indexed with geometrically
 * increasing global-history lengths.
 *
 * Speculative history is advanced at predict() time; committed
 * history (used to compute training indices) is advanced at
 * update(). Folded-history registers are maintained incrementally
 * for both copies so index/tag hashing is O(1) per branch.
 */

#ifndef SPT_BP_TAGE_H
#define SPT_BP_TAGE_H

#include <cstdint>
#include <vector>

#include "bp/direction_predictor.h"
#include "bp/simple_predictors.h"

namespace spt {

/** Circular global-history bit buffer. */
class HistoryRegister
{
  public:
    explicit HistoryRegister(size_t capacity = 2048)
        : bits_(capacity, 0)
    {
    }

    void push(bool bit)
    {
        bits_[head_ % bits_.size()] = bit ? 1 : 0;
        ++head_;
    }

    /** i-th most recent bit (0 = newest). Bits older than anything
     *  pushed read as 0. */
    bool bit(size_t i) const
    {
        if (i >= head_ || i >= bits_.size())
            return false;
        return bits_[(head_ - 1 - i) % bits_.size()] != 0;
    }

    uint64_t head() const { return head_; }
    void setHead(uint64_t h) { head_ = h; }

  private:
    std::vector<uint8_t> bits_;
    uint64_t head_ = 0;
};

/** Incrementally folded view of the most recent orig_length history
 *  bits, compressed to comp_length bits. */
class FoldedHistory
{
  public:
    FoldedHistory() = default;
    FoldedHistory(unsigned orig_length, unsigned comp_length)
        : orig_length_(orig_length), comp_length_(comp_length),
          outpoint_(orig_length % comp_length)
    {
    }

    /** @p new_bit is being pushed; @p old_bit is the bit leaving the
     *  window (bit at distance orig_length-1 before the push). */
    void
    push(bool new_bit, bool old_bit)
    {
        comp_ = (comp_ << 1) | (new_bit ? 1 : 0);
        comp_ ^= (old_bit ? 1u : 0u) << outpoint_;
        comp_ ^= comp_ >> comp_length_;
        comp_ &= (1u << comp_length_) - 1;
    }

    uint32_t value() const { return comp_; }
    void setValue(uint32_t v) { comp_ = v; }

  private:
    unsigned orig_length_ = 1;
    unsigned comp_length_ = 1;
    unsigned outpoint_ = 0;
    uint32_t comp_ = 0;
};

struct TageConfig {
    unsigned num_tables = 4;
    unsigned index_bits = 10;         ///< per tagged table
    unsigned tag_bits = 9;
    unsigned base_index_bits = 13;
    std::vector<unsigned> history_lengths = {8, 24, 64, 130};
    uint64_t useful_reset_period = 1 << 18;
};

class TagePredictor
{
  public:
    explicit TagePredictor(const TageConfig &config = TageConfig{});

    bool predict(uint64_t pc);
    void update(uint64_t pc, bool taken);
    void checkpoint(BpCheckpoint &cp) const;
    void restore(const BpCheckpoint &cp);

    /** Pushes a speculative-history bit without predicting (used to
     *  replay the correct outcome after a mispredict recovery). */
    void pushSpecBit(bool bit) { pushHistory(spec_, bit); }

    const TageConfig &config() const { return config_; }

  private:
    struct Entry {
        uint16_t tag = 0;
        SatCounter ctr{3, 4};     ///< 3-bit, >=4 means taken
        SatCounter useful{2, 0};
    };

    /** One copy of the folded-history state (spec or committed). */
    struct HistoryState {
        HistoryRegister history;
        std::vector<FoldedHistory> index_fold;
        std::vector<FoldedHistory> tag_fold0;
        std::vector<FoldedHistory> tag_fold1;
    };

    TageConfig config_;
    BimodalPredictor base_;
    std::vector<std::vector<Entry>> tables_;
    HistoryState spec_;
    HistoryState committed_;
    uint32_t lfsr_ = 0xace1;      ///< deterministic allocation tiebreak
    uint64_t update_count_ = 0;

    void initHistoryState(HistoryState &hs) const;
    void pushHistory(HistoryState &hs, bool bit) const;
    size_t tableIndex(const HistoryState &hs, unsigned t,
                      uint64_t pc) const;
    uint16_t tableTag(const HistoryState &hs, unsigned t,
                      uint64_t pc) const;
    bool nextLfsrBit();
};

} // namespace spt

#endif // SPT_BP_TAGE_H

/**
 * @file
 * Store-set memory-dependence predictor (Chrysos & Emer): SSIT maps
 * instruction pcs to store-set ids; LFST tracks the last fetched
 * store of each set. A load whose pc belongs to a store set waits
 * for that set's last in-flight store instead of speculating past
 * it.
 *
 * Training happens only when a memory-order violation squash is
 * actually performed (i.e., after the security policy released the
 * squash), so predictor state never reflects tainted-address aliases
 * — the prediction-based implicit-channel rule.
 */

#ifndef SPT_UARCH_STORE_SET_H
#define SPT_UARCH_STORE_SET_H

#include <cstdint>
#include <optional>
#include <vector>

#include "uarch/types.h"

namespace spt {

class StoreSetPredictor
{
  public:
    explicit StoreSetPredictor(unsigned ssit_bits = 10,
                               unsigned lfst_entries = 128);

    /** A store was renamed: returns nothing; records it as the last
     *  fetched store of its set (if it has one). */
    void storeRenamed(uint64_t pc, SeqNum seq);

    /** A load was renamed: returns the seq of the store it should
     *  wait for, if its pc belongs to a store set whose last store
     *  is still in flight. */
    std::optional<SeqNum> loadRenamed(uint64_t pc);

    /** A store left the pipeline (committed or squashed). */
    void storeRemoved(uint64_t pc, SeqNum seq);

    /** Train on a performed violation squash between @p load_pc and
     *  @p store_pc. */
    void trainViolation(uint64_t load_pc, uint64_t store_pc);

  private:
    struct LfstEntry {
        bool valid = false;
        SeqNum seq = 0;
    };

    unsigned ssit_bits_;
    std::vector<int32_t> ssit_;    ///< -1 = no set
    std::vector<LfstEntry> lfst_;
    int32_t next_set_id_ = 0;

    size_t ssitIndex(uint64_t pc) const;
};

} // namespace spt

#endif // SPT_UARCH_STORE_SET_H

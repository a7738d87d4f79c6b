/**
 * @file
 * Miss status holding register file: bounds the number of distinct
 * outstanding line misses and merges requests to lines already in
 * flight.
 */

#ifndef SPT_MEM_MSHR_H
#define SPT_MEM_MSHR_H

#include <cstdint>
#include <vector>

#include "common/stats.h"

namespace spt {

class MshrFile
{
  public:
    explicit MshrFile(unsigned num_entries = 16);

    struct Allocation {
        bool accepted = false;   ///< false: MSHRs full, retry later
        bool merged = false;     ///< joined an in-flight miss
        uint64_t ready_cycle = 0;
    };

    /**
     * Requests an outstanding miss for @p line_addr that would
     * complete at @p fill_cycle if issued now. If the line is already
     * in flight, the request merges and completes at the in-flight
     * fill time. If all entries are busy, the request is rejected.
     */
    Allocation allocate(uint64_t line_addr, uint64_t now,
                        uint64_t fill_cycle);

    /** Releases entries whose fill has arrived. */
    void tick(uint64_t now);

    unsigned inFlight() const
    {
        return static_cast<unsigned>(entries_.size());
    }
    unsigned capacity() const { return capacity_; }

    /** Cycles until the in-flight fill of @p line_addr arrives
     *  (0 if not in flight or already arrived). */
    uint64_t remainingLatency(uint64_t line_addr, uint64_t now) const;

    StatSet &stats() { return stats_; }

  private:
    struct Entry {
        uint64_t line_addr;
        uint64_t ready_cycle;
    };

    unsigned capacity_;
    std::vector<Entry> entries_;
    StatSet stats_;
};

} // namespace spt

#endif // SPT_MEM_MSHR_H

/**
 * @file
 * The full memory hierarchy of Table 1: split L1I/L1D, unified L2
 * and L3, mesh NoC latencies, DRAM, and L1D MSHRs.
 *
 * Timing model: an access that hits at level k pays the sum of the
 * access latencies of levels 1..k (plus NoC round trips beyond L2
 * and DRAM latency beyond L3) and fills all levels above k
 * (inclusive hierarchy). L1D misses are admitted through a finite
 * MSHR file; when it is full the access is rejected and the LSU
 * retries.
 *
 * The core is the hierarchy's only requester, so there is no
 * coherence directory and lines carry no coherence state: a line is
 * present or not, and no latency depends on whether it was written.
 */

#ifndef SPT_MEM_MEMORY_SYSTEM_H
#define SPT_MEM_MEMORY_SYSTEM_H

#include <cstdint>
#include <memory>

#include "common/fault_hooks.h"
#include "common/stats.h"
#include "mem/cache.h"
#include "mem/mshr.h"
#include "mem/noc.h"

namespace spt {

struct MemorySystemParams {
    CacheParams l1i{"l1i", 32 * 1024, 64, 4, 2};
    CacheParams l1d{"l1d", 32 * 1024, 64, 8, 2};
    CacheParams l2{"l2", 256 * 1024, 64, 16, 20};
    CacheParams l3{"l3", 2 * 1024 * 1024, 64, 16, 40};
    unsigned dram_latency = 100; ///< 50 ns at 2 GHz
    unsigned num_mshrs = 16;
};

enum class AccessKind : uint8_t { kLoad, kStore, kIfetch };

struct MemAccessResult {
    bool accepted = true;   ///< false: L1D MSHRs full, retry
    unsigned latency = 0;   ///< total cycles until data available
    unsigned hit_level = 1; ///< 1..3 = cache level, 4 = DRAM
};

class MemorySystem
{
  public:
    explicit MemorySystem(
        const MemorySystemParams &params = MemorySystemParams{});

    /** Timing access from the core at cycle @p now. */
    MemAccessResult access(uint64_t addr, AccessKind kind,
                           uint64_t now);

    /**
     * Attacker-side probe (e.g., the receiver of a Flush+Reload /
     * Prime+Probe channel): returns true if the line is present in
     * the shared L3 (observable via access timing) without
     * disturbing the victim's private caches.
     */
    bool attackerProbeL3(uint64_t addr) const;

    /** Attacker-side flush: evicts the line from every level (the
     *  clflush half of Flush+Reload). */
    void attackerFlush(uint64_t addr);

    /** Non-destructive presence checks (tests/attack oracles). */
    bool inL1D(uint64_t addr) const { return l1d_.contains(addr); }
    bool inL2(uint64_t addr) const { return l2_.contains(addr); }
    bool inL3(uint64_t addr) const { return l3_.contains(addr); }

    SetAssocCache &l1d() { return l1d_; }
    SetAssocCache &l1i() { return l1i_; }
    SetAssocCache &l2() { return l2_; }
    SetAssocCache &l3() { return l3_; }
    const MeshNoc &noc() const { return noc_; }

    StatSet &stats() { return stats_; }

    /** Timing-fault injection (common/fault_hooks.h): synthetic
     *  eviction storms and MSHR stalls. Null = no injection. */
    void setFaultHooks(FaultHooks *hooks) { faults_ = hooks; }

  private:
    MemorySystemParams params_;
    FaultHooks *faults_ = nullptr;
    SetAssocCache l1i_;
    SetAssocCache l1d_;
    SetAssocCache l2_;
    SetAssocCache l3_;
    MshrFile mshrs_;
    MeshNoc noc_;
    StatSet stats_;
};

} // namespace spt

#endif // SPT_MEM_MEMORY_SYSTEM_H

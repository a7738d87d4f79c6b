#include "mem/memory_system.h"

#include "common/logging.h"

namespace spt {

namespace {

/** hits_level_<n> for the miss path's hit levels 2..4, so charging
 *  a miss builds no string. */
constexpr const char *kMissHitLevelStat[] = {
    "hits_level_2", "hits_level_3", "hits_level_4"};

} // namespace

MemorySystem::MemorySystem(const MemorySystemParams &params)
    : params_(params), l1i_(params.l1i), l1d_(params.l1d),
      l2_(params.l2), l3_(params.l3), mshrs_(params.num_mshrs),
      noc_(4, 2, 1, 0, 7, params.l3.line_bytes)
{
}

MemAccessResult
MemorySystem::access(uint64_t addr, AccessKind kind, uint64_t now)
{
    MemAccessResult result;
    const bool is_write = kind == AccessKind::kStore;
    SetAssocCache &l1 =
        kind == AccessKind::kIfetch ? l1i_ : l1d_;

    if (faults_ && faults_->fire(FaultSite::kCacheEvict)) {
        // Synthetic eviction storm: drop the line from every level
        // (the attackerFlush mechanics) so this access misses all
        // the way to DRAM. Data lives in the architectural
        // ByteMemory, so only timing changes; a shadow-L1 taint
        // store reverts evicted lines to tainted (conservative).
        l1i_.invalidate(addr);
        l1d_.invalidate(addr);
        l2_.invalidate(addr);
        l3_.invalidate(addr);
    }

    unsigned latency = l1.params().latency;
    if (l1.access(addr, is_write)) {
        result.latency = latency;
        result.hit_level = 1;
        // Tag state is updated at miss time, but the data of an
        // in-flight fill only arrives when the MSHR completes: a
        // same-line access must wait out the remaining fill time.
        if (kind != AccessKind::kIfetch) {
            mshrs_.tick(now);
            const uint64_t remaining =
                mshrs_.remainingLatency(l1.lineAddr(addr), now);
            if (remaining > 0) {
                result.latency = static_cast<unsigned>(
                    remaining + l1.params().latency);
                stats_.inc("l1_hits_under_fill");
            }
        }
        stats_.inc("l1_hits");
        return result;
    }

    // L1 miss. Data-side misses must win an MSHR before probing
    // further down the hierarchy.
    const uint64_t line = l1.lineAddr(addr);
    const bool data_side = kind != AccessKind::kIfetch;

    // Determine where the line hits to size the fill latency.
    unsigned hit_level;
    latency += l2_.params().latency;
    if (l2_.access(addr, is_write)) {
        hit_level = 2;
    } else {
        latency += l3_.params().latency + noc_.l3RoundTrip(addr);
        if (l3_.access(addr, is_write)) {
            hit_level = 3;
        } else {
            hit_level = 4;
            latency += params_.dram_latency + noc_.dramRoundTrip();
        }
    }

    if (data_side) {
        if (faults_ && faults_->fire(FaultSite::kMshrStall)) {
            // Synthetic MSHR-file pressure: reject as if full; the
            // LSU retries (same path as a genuine reject).
            return {false, 0, 0};
        }
        const auto alloc =
            mshrs_.allocate(line, now, now + latency);
        if (!alloc.accepted) {
            stats_.inc("mshr_rejects");
            // The L2/L3 lookups above already refreshed LRU state;
            // that is acceptable modeling noise for a retried access.
            return {false, 0, 0};
        }
        if (alloc.merged) {
            latency = static_cast<unsigned>(
                alloc.ready_cycle > now ? alloc.ready_cycle - now
                                        : 1);
            stats_.inc("mshr_merges");
        }
    }

    // Fill the inclusive hierarchy.
    if (hit_level >= 4)
        l3_.fill(line);
    if (hit_level >= 3)
        l2_.fill(line);
    l1.fill(line);

    result.latency = latency;
    result.hit_level = hit_level;
    stats_.inc("l1_misses");
    stats_.inc(kMissHitLevelStat[hit_level - 2]);
    return result;
}

bool
MemorySystem::attackerProbeL3(uint64_t addr) const
{
    return l3_.contains(addr);
}

void
MemorySystem::attackerFlush(uint64_t addr)
{
    l1i_.invalidate(addr);
    l1d_.invalidate(addr);
    l2_.invalidate(addr);
    l3_.invalidate(addr);
    stats_.inc("attacker_flushes");
}

} // namespace spt

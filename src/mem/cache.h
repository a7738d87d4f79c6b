/**
 * @file
 * Set-associative cache tag array with LRU replacement and per-line
 * MESI state. Data itself lives in the simulator's backing
 * ByteMemory; the cache tracks presence, state, and recency for
 * timing, and exposes fill/evict events to observers (the SPT shadow
 * L1 mirrors this cache's geometry by listening to those events,
 * exactly as the paper connects the L1D tag-check and eviction
 * outputs to the shadow L1 in Section 7.5).
 */

#ifndef SPT_MEM_CACHE_H
#define SPT_MEM_CACHE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"

namespace spt {

enum class MesiState : uint8_t {
    kInvalid,
    kShared,
    kExclusive,
    kModified,
};

struct CacheParams {
    std::string name = "cache";
    uint64_t size_bytes = 32 * 1024;
    unsigned line_bytes = 64;
    unsigned ways = 8;
    unsigned latency = 2; ///< access latency in cycles
};

/** Listener for line allocation/eviction decisions. */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;
    virtual void onFill(uint64_t line_addr, unsigned set,
                        unsigned way) = 0;
    virtual void onEvict(uint64_t line_addr, unsigned set,
                         unsigned way) = 0;
};

class SetAssocCache
{
  public:
    struct Eviction {
        bool valid = false;
        uint64_t line_addr = 0;
        bool dirty = false;
    };

    explicit SetAssocCache(const CacheParams &params);

    /** Presence probe without any state change (attacker oracle /
     *  tests). */
    bool contains(uint64_t addr) const;

    /** Looks up @p addr; on hit updates LRU and (for writes)
     *  upgrades MESI state to Modified. Returns hit/miss. */
    bool access(uint64_t addr, bool is_write);

    /** Allocates a line for @p addr in @p state, evicting the LRU
     *  victim if needed. No-op (refresh) if already present. */
    Eviction fill(uint64_t addr, MesiState state);

    /** Invalidates a line if present; returns whether it was dirty. */
    std::optional<bool> invalidate(uint64_t addr);

    MesiState state(uint64_t addr) const;

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return num_sets_; }
    uint64_t lineAddr(uint64_t addr) const
    {
        return addr & ~uint64_t{params_.line_bytes - 1};
    }
    unsigned setOf(uint64_t addr) const;

    /** Set/way of a resident line (for shadow structures/tests). */
    std::optional<unsigned> wayOf(uint64_t addr) const;

    void setObserver(CacheObserver *obs) { observer_ = obs; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

  private:
    struct Line {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lru = 0;
        MesiState state = MesiState::kInvalid;
    };

    CacheParams params_;
    unsigned num_sets_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
    CacheObserver *observer_ = nullptr;
    StatSet stats_;

    uint64_t tagOf(uint64_t addr) const;
    Line &lineAt(unsigned set, unsigned way);
    const Line &lineAt(unsigned set, unsigned way) const;
    int findWay(uint64_t addr) const;
};

} // namespace spt

#endif // SPT_MEM_CACHE_H

#include "mem/cache.h"

#include "common/bit_util.h"
#include "common/logging.h"

namespace spt {

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params)
{
    SPT_ASSERT(isPowerOfTwo(params_.line_bytes),
               params_.name << ": line size must be a power of two");
    SPT_ASSERT(params_.size_bytes %
                   (params_.line_bytes * params_.ways) == 0,
               params_.name << ": size not divisible by way size");
    num_sets_ = static_cast<unsigned>(
        params_.size_bytes / (params_.line_bytes * params_.ways));
    SPT_ASSERT(isPowerOfTwo(num_sets_),
               params_.name << ": set count must be a power of two");
    lines_.assign(size_t{num_sets_} * params_.ways, Line{});
}

unsigned
SetAssocCache::setOf(uint64_t addr) const
{
    return static_cast<unsigned>(
        (addr / params_.line_bytes) & (num_sets_ - 1));
}

uint64_t
SetAssocCache::tagOf(uint64_t addr) const
{
    return addr / params_.line_bytes / num_sets_;
}

SetAssocCache::Line &
SetAssocCache::lineAt(unsigned set, unsigned way)
{
    return lines_[size_t{set} * params_.ways + way];
}

const SetAssocCache::Line &
SetAssocCache::lineAt(unsigned set, unsigned way) const
{
    return lines_[size_t{set} * params_.ways + way];
}

int
SetAssocCache::findWay(uint64_t addr) const
{
    const unsigned set = setOf(addr);
    const uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w) {
        const Line &line = lineAt(set, w);
        if (line.valid && line.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

bool
SetAssocCache::contains(uint64_t addr) const
{
    return findWay(addr) >= 0;
}

std::optional<unsigned>
SetAssocCache::wayOf(uint64_t addr) const
{
    const int w = findWay(addr);
    if (w < 0)
        return std::nullopt;
    return static_cast<unsigned>(w);
}

bool
SetAssocCache::access(uint64_t addr, bool is_write)
{
    ++tick_;
    const int w = findWay(addr);
    if (w < 0) {
        stats_.inc(is_write ? "write_misses" : "read_misses");
        return false;
    }
    lineAt(setOf(addr), static_cast<unsigned>(w)).lru = tick_;
    stats_.inc(is_write ? "write_hits" : "read_hits");
    return true;
}

void
SetAssocCache::fill(uint64_t addr)
{
    ++tick_;
    const unsigned set = setOf(addr);
    if (const int w = findWay(addr); w >= 0) {
        lineAt(set, static_cast<unsigned>(w)).lru = tick_;
        return;
    }
    // Choose a victim: an invalid way, else the LRU way.
    unsigned victim = 0;
    uint64_t oldest = ~uint64_t{0};
    for (unsigned i = 0; i < params_.ways; ++i) {
        const Line &line = lineAt(set, i);
        if (!line.valid) {
            victim = i;
            break;
        }
        if (line.lru < oldest) {
            oldest = line.lru;
            victim = i;
        }
    }
    Line &line = lineAt(set, victim);
    if (line.valid && observer_)
        observer_->onEvict(
            (line.tag * num_sets_ + set) * params_.line_bytes, set,
            victim);
    line.valid = true;
    line.tag = tagOf(addr);
    line.lru = tick_;
    if (observer_)
        observer_->onFill(lineAddr(addr), set, victim);
}

void
SetAssocCache::invalidate(uint64_t addr)
{
    const int w = findWay(addr);
    if (w < 0)
        return;
    const unsigned set = setOf(addr);
    lineAt(set, static_cast<unsigned>(w)).valid = false;
    if (observer_)
        observer_->onEvict(lineAddr(addr), set,
                           static_cast<unsigned>(w));
}

} // namespace spt

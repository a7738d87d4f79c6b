#include "mem/mshr.h"

namespace spt {

MshrFile::MshrFile(unsigned num_entries)
    : capacity_(num_entries)
{
}

uint64_t
MshrFile::remainingLatency(uint64_t line_addr, uint64_t now) const
{
    for (const Entry &e : entries_)
        if (e.line_addr == line_addr && e.ready_cycle > now)
            return e.ready_cycle - now;
    return 0;
}

MshrFile::Allocation
MshrFile::allocate(uint64_t line_addr, uint64_t now,
                   uint64_t fill_cycle)
{
    tick(now);
    for (const Entry &e : entries_) {
        if (e.line_addr == line_addr) {
            stats_.inc("merges");
            return {true, true, e.ready_cycle};
        }
    }
    if (entries_.size() >= capacity_) {
        stats_.inc("rejects");
        return {false, false, 0};
    }
    entries_.push_back({line_addr, fill_cycle});
    stats_.inc("allocations");
    return {true, false, fill_cycle};
}

void
MshrFile::tick(uint64_t now)
{
    std::erase_if(entries_, [now](const Entry &e) {
        return e.ready_cycle <= now;
    });
}

} // namespace spt

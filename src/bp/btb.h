/**
 * @file
 * Set-associative branch target buffer, used for indirect-branch
 * (JALR) target prediction. Direct targets are computed from the
 * instruction at fetch, and returns are served by the RAS, so only
 * indirect non-return branches consult the BTB.
 */

#ifndef SPT_BP_BTB_H
#define SPT_BP_BTB_H

#include <cstdint>
#include <optional>
#include <vector>

namespace spt {

class Btb
{
  public:
    Btb(unsigned sets = 1024, unsigned ways = 4);

    std::optional<uint64_t> lookup(uint64_t pc) const;

    /** Commit-time install/refresh of a target. */
    void update(uint64_t pc, uint64_t target);

  private:
    struct Entry {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t target = 0;
        uint64_t lru = 0;
    };

    unsigned sets_;
    unsigned ways_;
    std::vector<Entry> entries_;
    uint64_t tick_ = 0;

    size_t setBase(uint64_t pc) const;
    uint64_t tagOf(uint64_t pc) const;
};

} // namespace spt

#endif // SPT_BP_BTB_H

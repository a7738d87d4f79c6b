/**
 * @file
 * Two-level MESI coherence directory (the paper's Table 1 protocol).
 *
 * The directory sits conceptually at the shared L3 and tracks, per
 * line, the owner/sharers among the private-cache agents. The
 * single-core experiments exercise it with one agent (the core); the
 * pen-testing harness can attach a second "attacker" agent whose
 * probes interact with the victim's lines exactly as a CrossCore
 * receiver would (shared-line state transitions are how Flush+Reload
 * style receivers observe the victim).
 */

#ifndef SPT_MEM_COHERENCE_H
#define SPT_MEM_COHERENCE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "mem/cache.h"

namespace spt {

class MesiDirectory
{
  public:
    explicit MesiDirectory(unsigned num_agents = 2);

    /** Result of a coherence request. */
    struct Response {
        MesiState grant = MesiState::kInvalid; ///< state granted
        bool from_owner = false; ///< data came from another cache
        std::vector<unsigned> invalidated; ///< agents invalidated
    };

    /** Read request (load/ifetch): grants E if unshared, S else. */
    Response getShared(unsigned agent, uint64_t line_addr);

    /** Write request (store): grants M, invalidating others. */
    Response getModified(unsigned agent, uint64_t line_addr);

    /** Eviction/writeback notification from an agent. */
    void putLine(unsigned agent, uint64_t line_addr);

    /** Directory's view of @p agent's state for a line. */
    MesiState agentState(unsigned agent, uint64_t line_addr) const;

    StatSet &stats() { return stats_; }

  private:
    struct DirEntry {
        uint32_t sharers = 0;  ///< bitmask of agents holding the line
        int owner = -1;        ///< agent holding M/E, or -1
        bool modified = false; ///< owner holds M
    };

    unsigned num_agents_;
    std::unordered_map<uint64_t, DirEntry> dir_;
    StatSet stats_;

    void checkAgent(unsigned agent) const;
};

} // namespace spt

#endif // SPT_MEM_COHERENCE_H

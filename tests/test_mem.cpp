/**
 * @file
 * Memory-hierarchy tests: set-associative cache behavior (LRU,
 * eviction, MESI upgrades, observers), MSHR limits and merging,
 * mesh NoC distances, the full MemorySystem timing model including
 * in-flight-fill semantics and fill states, and the attacker
 * probe/flush interface.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.h"

namespace spt {
namespace {

CacheParams
tinyCache()
{
    // 4 sets x 2 ways x 64B = 512B.
    return {"tiny", 512, 64, 2, 2};
}

TEST(Cache, HitAfterFill)
{
    SetAssocCache c(tinyCache());
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.access(0x1000, false));
    c.fill(0x1000, MesiState::kExclusive);
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103f, false)); // same line
    EXPECT_FALSE(c.contains(0x1040));     // next line
}

TEST(Cache, LruEviction)
{
    SetAssocCache c(tinyCache());
    // Three lines mapping to the same set (stride = 4 sets * 64B).
    const uint64_t a = 0x0000, b = 0x0100, d = 0x0200;
    c.fill(a, MesiState::kExclusive);
    c.fill(b, MesiState::kExclusive);
    c.access(a, false); // make b the LRU
    const auto ev = c.fill(d, MesiState::kExclusive);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
}

TEST(Cache, DirtyEvictionAndMesiUpgrade)
{
    SetAssocCache c(tinyCache());
    c.fill(0x0, MesiState::kExclusive);
    EXPECT_EQ(c.state(0x0), MesiState::kExclusive);
    c.access(0x0, true); // write: silent E->M upgrade
    EXPECT_EQ(c.state(0x0), MesiState::kModified);
    c.fill(0x100, MesiState::kShared);
    const auto ev = c.fill(0x200, MesiState::kShared); // evicts 0x0
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    SetAssocCache c(tinyCache());
    EXPECT_FALSE(c.invalidate(0x40).has_value());
    c.fill(0x40, MesiState::kModified);
    const auto dirty = c.invalidate(0x40);
    ASSERT_TRUE(dirty.has_value());
    EXPECT_TRUE(*dirty);
    EXPECT_FALSE(c.contains(0x40));
}

class RecordingObserver : public CacheObserver
{
  public:
    struct Event {
        bool fill;
        uint64_t line;
        unsigned set, way;
    };
    std::vector<Event> events;
    void onFill(uint64_t line, unsigned set, unsigned way) override
    {
        events.push_back({true, line, set, way});
    }
    void onEvict(uint64_t line, unsigned set, unsigned way) override
    {
        events.push_back({false, line, set, way});
    }
};

TEST(Cache, ObserverSeesFillsAndEvictions)
{
    SetAssocCache c(tinyCache());
    RecordingObserver obs;
    c.setObserver(&obs);
    c.fill(0x0, MesiState::kExclusive);
    c.fill(0x100, MesiState::kExclusive);
    c.fill(0x200, MesiState::kExclusive); // evicts 0x0
    ASSERT_EQ(obs.events.size(), 4u);
    EXPECT_TRUE(obs.events[0].fill);
    EXPECT_FALSE(obs.events[2].fill); // the eviction of 0x0
    EXPECT_EQ(obs.events[2].line, 0x0u);
    // Eviction way matches the subsequent fill way.
    EXPECT_EQ(obs.events[2].way, obs.events[3].way);
}

TEST(Mshr, MergeAndReject)
{
    MshrFile m(2);
    auto a = m.allocate(0x1000, 0, 100);
    EXPECT_TRUE(a.accepted);
    EXPECT_FALSE(a.merged);
    auto b = m.allocate(0x1000, 5, 200); // same line: merge
    EXPECT_TRUE(b.accepted);
    EXPECT_TRUE(b.merged);
    EXPECT_EQ(b.ready_cycle, 100u);
    m.allocate(0x2000, 5, 100);
    auto rej = m.allocate(0x3000, 6, 100); // full
    EXPECT_FALSE(rej.accepted);
    // After completion cycles pass, entries free up.
    auto ok = m.allocate(0x3000, 101, 300);
    EXPECT_TRUE(ok.accepted);
}

TEST(Mshr, RemainingLatency)
{
    MshrFile m(4);
    m.allocate(0x1000, 0, 50);
    EXPECT_EQ(m.remainingLatency(0x1000, 10), 40u);
    EXPECT_EQ(m.remainingLatency(0x1000, 50), 0u);
    EXPECT_EQ(m.remainingLatency(0x9999, 10), 0u);
}

TEST(Noc, ManhattanHops)
{
    MeshNoc noc(4, 2, 1, 0, 7, 64);
    EXPECT_EQ(noc.hops(0, 0), 0u);
    EXPECT_EQ(noc.hops(0, 3), 3u);   // same row
    EXPECT_EQ(noc.hops(0, 4), 1u);   // one row down
    EXPECT_EQ(noc.hops(0, 7), 4u);   // opposite corner
    EXPECT_EQ(noc.dramRoundTrip(), 8u);
    // Banks are spread by line address.
    EXPECT_NE(noc.bankOf(0), noc.bankOf(64));
}

TEST(MemorySystem, HitLevelsAndLatencies)
{
    MemorySystem m;
    // Cold: DRAM.
    auto r = m.access(0x5000, AccessKind::kLoad, 0);
    EXPECT_EQ(r.hit_level, 4u);
    EXPECT_GT(r.latency, 100u);
    // Everything filled inclusively: now an L1 hit.
    r = m.access(0x5000, AccessKind::kLoad, 1000);
    EXPECT_EQ(r.hit_level, 1u);
    EXPECT_EQ(r.latency, 2u);
    // Evict from L1 only: next access hits L2.
    m.l1d().invalidate(0x5000);
    r = m.access(0x5000, AccessKind::kLoad, 2000);
    EXPECT_EQ(r.hit_level, 2u);
    EXPECT_EQ(r.latency, 2u + 20u);
    // Evict from L1+L2: hits L3 and pays NoC hops.
    m.l1d().invalidate(0x5000);
    m.l2().invalidate(0x5000);
    r = m.access(0x5000, AccessKind::kLoad, 3000);
    EXPECT_EQ(r.hit_level, 3u);
    EXPECT_GE(r.latency, 2u + 20u + 40u);
}

TEST(MemorySystem, SameLineAccessWaitsForInFlightFill)
{
    MemorySystem m;
    const auto miss = m.access(0x8000, AccessKind::kLoad, 0);
    EXPECT_EQ(miss.hit_level, 4u);
    // A dependent access 10 cycles later must wait out the fill,
    // not observe an instant 2-cycle hit.
    const auto dep = m.access(0x8008, AccessKind::kLoad, 10);
    EXPECT_EQ(dep.hit_level, 1u);
    EXPECT_GE(dep.latency, miss.latency - 10);
    // Once the fill has landed, ordinary hit latency resumes.
    const auto hit =
        m.access(0x8008, AccessKind::kLoad, miss.latency + 1);
    EXPECT_EQ(hit.latency, 2u);
}

TEST(MemorySystem, MshrsRejectWhenFull)
{
    MemorySystemParams params;
    params.num_mshrs = 2;
    MemorySystem m(params);
    EXPECT_TRUE(m.access(0x10000, AccessKind::kLoad, 0).accepted);
    EXPECT_TRUE(m.access(0x20000, AccessKind::kLoad, 0).accepted);
    EXPECT_FALSE(m.access(0x30000, AccessKind::kLoad, 0).accepted);
    // Ifetches are not MSHR-limited.
    EXPECT_TRUE(m.access(0x40000, AccessKind::kIfetch, 0).accepted);
}

TEST(MemorySystem, AttackerProbeAndFlush)
{
    MemorySystem m;
    m.access(0x7000, AccessKind::kLoad, 0);
    EXPECT_TRUE(m.attackerProbeL3(0x7000));
    EXPECT_TRUE(m.inL1D(0x7000));
    m.attackerFlush(0x7000);
    EXPECT_FALSE(m.attackerProbeL3(0x7000));
    EXPECT_FALSE(m.inL1D(0x7000));
    EXPECT_FALSE(m.inL2(0x7000));
}

TEST(MemorySystem, MissesFillExclusiveForReadsModifiedForWrites)
{
    // The core is the only requester: it owns every private line it
    // fills, and the shared L3 holds its copy Shared.
    MemorySystem m;
    m.access(0x8000, AccessKind::kLoad, 0);
    EXPECT_EQ(m.l1d().state(0x8000), MesiState::kExclusive);
    EXPECT_EQ(m.l2().state(0x8000), MesiState::kExclusive);
    EXPECT_EQ(m.l3().state(0x8000), MesiState::kShared);
    m.access(0x9000, AccessKind::kStore, 1);
    EXPECT_EQ(m.l1d().state(0x9000), MesiState::kModified);
    EXPECT_EQ(m.l2().state(0x9000), MesiState::kModified);
    EXPECT_EQ(m.l3().state(0x9000), MesiState::kShared);
    // A read miss fills Exclusive even for a line the core wrote
    // before the L1 evicted it (eight conflicting fills of its set).
    const uint64_t set_stride = 64ull * m.l1d().numSets();
    for (uint64_t k = 1; k <= 8; ++k)
        m.access(0x9000 + k * set_stride, AccessKind::kLoad, 1 + k);
    ASSERT_FALSE(m.inL1D(0x9000));
    m.access(0x9000, AccessKind::kLoad, 20);
    EXPECT_EQ(m.l1d().state(0x9000), MesiState::kExclusive);
}

} // namespace
} // namespace spt

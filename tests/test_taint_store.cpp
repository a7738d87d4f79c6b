/**
 * @file
 * Tests for the memory data-taint stores (Sections 6.8 / 7.5):
 * the shadow L1 mirror (fill/evict semantics driven by the real
 * cache's observer hooks), the idealized shadow memory, and the
 * always-tainted null store.
 */

#include <gtest/gtest.h>

#include "core/taint_store.h"

namespace spt {
namespace {

TEST(NullTaintStore, AlwaysTainted)
{
    NullTaintStore s;
    EXPECT_EQ(s.readTaint(0x1000, 1), 0x01);
    EXPECT_EQ(s.readTaint(0x1000, 4), 0x0f);
    EXPECT_EQ(s.readTaint(0x1000, 8), 0xff);
    s.clearTaint(0x1000, 8);
    s.writeTaint(0x1000, 8, 0x00);
    EXPECT_EQ(s.readTaint(0x1000, 8), 0xff);
}

class ShadowL1Test : public ::testing::Test
{
  protected:
    SetAssocCache l1d_{CacheParams{"l1d", 32 * 1024, 64, 8, 2}};
    ShadowL1 shadow_{l1d_};
};

TEST_F(ShadowL1Test, NonResidentLinesAreTainted)
{
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
}

TEST_F(ShadowL1Test, FreshFillIsFullyTainted)
{
    l1d_.fill(0x4000);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
    EXPECT_EQ(shadow_.readTaint(0x4000 + 56, 8), 0xff);
}

TEST_F(ShadowL1Test, ClearAndWriteTaint)
{
    l1d_.fill(0x4000);
    shadow_.clearTaint(0x4000, 8);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0x00);
    // Neighboring bytes in the line keep their taint.
    EXPECT_EQ(shadow_.readTaint(0x4008, 8), 0xff);
    // A store with a partially tainted value overwrites per byte.
    shadow_.writeTaint(0x4000, 4, 0x05);
    EXPECT_EQ(shadow_.readTaint(0x4000, 4), 0x05);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0x05);
}

TEST_F(ShadowL1Test, EvictionRestoresTaint)
{
    l1d_.fill(0x4000);
    shadow_.clearTaint(0x4000, 64);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0x00);
    l1d_.invalidate(0x4000);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
    // Refill: tainted again (taint was lost with the line).
    l1d_.fill(0x4000);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
}

TEST_F(ShadowL1Test, ConflictEvictionViaLru)
{
    // Fill one set beyond capacity; the shadow entry is recycled
    // and the evicted line's cleared taint must not leak into the
    // new occupant.
    const uint64_t set_stride = 64ull * l1d_.numSets();
    l1d_.fill(0x0);
    shadow_.clearTaint(0x0, 64);
    for (unsigned w = 1; w <= 8; ++w)
        l1d_.fill(w * set_stride);
    EXPECT_FALSE(l1d_.contains(0x0));
    EXPECT_EQ(shadow_.readTaint(0x0, 8), 0xff);
    EXPECT_EQ(shadow_.readTaint(8 * set_stride, 8), 0xff);
}

TEST_F(ShadowL1Test, LineStraddleIsConservative)
{
    l1d_.fill(0x4000);
    shadow_.clearTaint(0x4038, 8); // last 8 bytes of the line
    // An 8-byte read starting 4 bytes before the line end straddles
    // into the next (non-resident) line: tail bytes stay tainted.
    const uint8_t t = shadow_.readTaint(0x403c, 8);
    EXPECT_EQ(t & 0x0f, 0x00); // first 4 bytes clean
    EXPECT_EQ(t & 0xf0, 0xf0); // straddled bytes tainted
}

TEST(ShadowMemory, DefaultsTaintedAndPersists)
{
    ShadowMemory s;
    EXPECT_EQ(s.readTaint(0x123456, 8), 0xff);
    s.clearTaint(0x123456, 4);
    EXPECT_EQ(s.readTaint(0x123456, 8), 0xf0);
    // Unlike the shadow L1, taint state survives any cache churn.
    EXPECT_EQ(s.residentPages(), 1u);
    s.writeTaint(0x123456, 4, 0x0a);
    EXPECT_EQ(s.readTaint(0x123456, 4), 0x0a);
}

TEST(ShadowMemory, CrossPageClear)
{
    ShadowMemory s;
    const uint64_t addr = ShadowMemory::kPageBytes - 4;
    s.clearTaint(addr, 8);
    EXPECT_EQ(s.readTaint(addr, 8), 0x00);
    EXPECT_EQ(s.residentPages(), 2u);
}

} // namespace
} // namespace spt

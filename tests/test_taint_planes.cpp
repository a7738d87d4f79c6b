/**
 * @file
 * RingBitmap<k>, the ring-parallel bitmap behind the SPT engine's
 * broadcast flags (k = 4) and candidate marks (k = 1): population
 * count, scan order across the physical wrap, range bounds, early
 * stop, and clearing bits from inside a scan. Each case runs on a
 * multi-word ring and on a ring smaller than one word, where the
 * scan must stop at the physical end of the ring, not of the word.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/taint_planes.h"

namespace spt {
namespace {

template <unsigned kBitsPerSlot, uint64_t kCapacity>
struct Layout {
    static constexpr unsigned kBits = kBitsPerSlot;
    static constexpr uint64_t kCap = kCapacity;
};

template <typename L>
class RingBitmapTest : public ::testing::Test
{
  protected:
    static constexpr unsigned kBits = L::kBits;
    static constexpr unsigned kTop = L::kBits - 1; ///< highest bit
    static constexpr uint64_t kCap = L::kCap;
    using Hit = std::pair<uint64_t, unsigned>; // (position, bit)

    RingBitmapTest() { bm.assign(kCap); }

    static uint64_t phys(uint64_t pos) { return pos & (kCap - 1); }

    std::vector<Hit>
    visitAll(uint64_t head, uint64_t tail) const
    {
        std::vector<Hit> hits;
        bm.forEach(head, tail, [&](uint64_t pos, unsigned bit) {
            hits.emplace_back(pos, bit);
            return true;
        });
        return hits;
    }

    /** The same hits by repeated first() + clear(), which empties
     *  the range. Bounded, so a first() that names a clear bit fails
     *  the test instead of hanging it. */
    std::vector<Hit>
    drainByFirst(uint64_t head, uint64_t tail)
    {
        std::vector<Hit> hits;
        uint64_t pos;
        unsigned bit;
        while (hits.size() <= kCap * kBits &&
               bm.first(head, tail, pos, bit)) {
            hits.emplace_back(pos, bit);
            bm.clear(phys(pos), bit);
        }
        return hits;
    }

    RingBitmap<L::kBits> bm;
};

using Layouts = ::testing::Types<Layout<1, 128>, Layout<4, 128>,
                                 Layout<1, 8>, Layout<4, 8>>;
TYPED_TEST_SUITE(RingBitmapTest, Layouts);

TYPED_TEST(RingBitmapTest, SizeTracksRepeatedSetAndClear)
{
    auto &bm = this->bm;
    constexpr unsigned kTop = TestFixture::kTop;
    constexpr uint64_t kLast = TestFixture::kCap - 1;
    EXPECT_TRUE(bm.empty());
    bm.set(5);
    bm.set(5);
    EXPECT_EQ(bm.size(), 1u);
    bm.set(5, kTop);
    bm.set(kLast, kTop);
    EXPECT_EQ(bm.size(), kTop == 0 ? 2u : 3u);
    EXPECT_TRUE(bm.test(5, kTop));
    bm.clear(5);
    bm.clear(5);
    EXPECT_FALSE(bm.test(5));
    EXPECT_EQ(bm.size(), kTop == 0 ? 1u : 2u);
    bm.clear(5, kTop);
    bm.clear(kLast, kTop);
    bm.clear(kLast, kTop);
    EXPECT_EQ(bm.size(), 0u);
    EXPECT_TRUE(bm.empty());
}

TYPED_TEST(RingBitmapTest, ScansOlderPositionThenLowerBitAcrossTheWrap)
{
    using Hit = typename TestFixture::Hit;
    constexpr uint64_t kCap = TestFixture::kCap;
    constexpr unsigned kTop = TestFixture::kTop;
    // Logical positions grow past the capacity; the window starts
    // three slots before the physical end and wraps to slot 3. The
    // two slots before the wrap are empty, so the scan must skip to
    // the ring's physical end and no further.
    const uint64_t head = 3 * kCap - 3;
    const uint64_t tail = head + 6;
    std::vector<Hit> expect = {{head, kTop}, {head + 3, 0},
                               {head + 5, kTop}};
    if (kTop != 0) {
        // Within one slot the lower bit comes first, whatever the
        // order the bits were raised in.
        expect = {{head, 1},     {head, kTop},  {head + 3, 0},
                  {head + 3, 2}, {head + 5, kTop}};
    }
    for (auto it = expect.rbegin(); it != expect.rend(); ++it)
        this->bm.set(TestFixture::phys(it->first), it->second);
    EXPECT_EQ(this->visitAll(head, tail), expect);
    EXPECT_EQ(this->drainByFirst(head, tail), expect);
    EXPECT_TRUE(this->bm.empty());
}

TYPED_TEST(RingBitmapTest, MatchesABruteForceScan)
{
    using Hit = typename TestFixture::Hit;
    constexpr uint64_t kCap = TestFixture::kCap;
    constexpr unsigned kBits = TestFixture::kBits;
    uint64_t lcg = 12345;
    auto next = [&] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    std::vector<bool> ref(kCap * kBits, false);
    for (uint64_t i = 0; i < kCap * kBits / 4; ++i) {
        const uint64_t slot = next() % kCap;
        const unsigned bit = static_cast<unsigned>(next() % kBits);
        this->bm.set(slot, bit);
        ref[slot * kBits + bit] = true;
    }
    for (const uint64_t head : {uint64_t{0}, uint64_t{5}, kCap - 1,
                                kCap / 2 + 1, 5 * kCap + 3}) {
        for (const uint64_t len : {uint64_t{0}, uint64_t{1},
                                   kCap / 2 + 1, kCap}) {
            std::vector<Hit> expect;
            for (uint64_t pos = head; pos < head + len; ++pos)
                for (unsigned k = 0; k < kBits; ++k)
                    if (ref[TestFixture::phys(pos) * kBits + k])
                        expect.emplace_back(pos, k);
            EXPECT_EQ(this->visitAll(head, head + len), expect)
                << "head " << head << " len " << len;
        }
    }
}

TYPED_TEST(RingBitmapTest, FirstIgnoresSetBitsOutsideTheRange)
{
    constexpr uint64_t kCap = TestFixture::kCap;
    constexpr unsigned kTop = TestFixture::kTop;
    auto &bm = this->bm;
    // Set bits just outside both ends of [2, kCap - 2), and of the
    // wrapping window [kCap - 1, kCap + 1).
    bm.set(1, kTop);
    bm.set(kCap - 2);
    uint64_t pos = 0;
    unsigned bit = 0;
    EXPECT_FALSE(bm.first(2, kCap - 2, pos, bit));
    EXPECT_FALSE(bm.first(kCap - 1, kCap + 1, pos, bit));
    EXPECT_FALSE(bm.first(7 * kCap - 1, 7 * kCap + 1, pos, bit));
    EXPECT_FALSE(bm.first(3, 3, pos, bit));
    EXPECT_TRUE(this->visitAll(2, kCap - 2).empty());
    EXPECT_TRUE(this->visitAll(kCap - 1, kCap + 1).empty());
    // The same bits are found once the range covers them.
    ASSERT_TRUE(bm.first(kCap - 1, kCap + 2, pos, bit));
    EXPECT_EQ(pos, kCap + 1);
    EXPECT_EQ(bit, kTop);
    ASSERT_TRUE(bm.first(kCap - 2, kCap + 2, pos, bit));
    EXPECT_EQ(pos, kCap - 2);
    EXPECT_EQ(bit, 0u);
}

TYPED_TEST(RingBitmapTest, ForEachStopsWhenTheCallbackSaysSo)
{
    using Hit = typename TestFixture::Hit;
    constexpr uint64_t kCap = TestFixture::kCap;
    auto &bm = this->bm;
    bm.set(1);
    bm.set(kCap / 2);
    bm.set(kCap - 1);
    std::vector<Hit> hits;
    bm.forEach(0, kCap, [&](uint64_t pos, unsigned bit) {
        hits.emplace_back(pos, bit);
        return hits.size() < 2;
    });
    EXPECT_EQ(hits, (std::vector<Hit>{{1, 0}, {kCap / 2, 0}}));
    EXPECT_EQ(bm.size(), 3u);
}

TYPED_TEST(RingBitmapTest, ForEachSeesBitsClearedByTheCallback)
{
    using Hit = typename TestFixture::Hit;
    constexpr uint64_t kCap = TestFixture::kCap;
    constexpr unsigned kTop = TestFixture::kTop;
    auto &bm = this->bm;
    bm.set(1);
    bm.set(1, kTop);
    bm.set(kCap / 2);
    bm.set(kCap - 1);
    // Visiting slot 1 clears the visited bit and a later one: the
    // top bit of the same slot (k = 4), or slot kCap / 2 (k = 1,
    // where kTop is bit 0 of slot 1 itself).
    std::vector<Hit> hits;
    bm.forEach(0, kCap, [&](uint64_t pos, unsigned bit) {
        hits.emplace_back(pos, bit);
        bm.clear(pos, bit);
        if (pos == 1)
            bm.clear(kTop != 0 ? 1 : kCap / 2, kTop);
        return true;
    });
    const std::vector<Hit> expect =
        kTop != 0
            ? std::vector<Hit>{{1, 0}, {kCap / 2, 0}, {kCap - 1, 0}}
            : std::vector<Hit>{{1, 0}, {kCap - 1, 0}};
    EXPECT_EQ(hits, expect);
    EXPECT_TRUE(bm.empty());
}

} // namespace
} // namespace spt

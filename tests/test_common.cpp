/**
 * @file
 * Unit tests for src/common: bit utilities, deterministic RNG,
 * statistics, the sparse byte memory, the fixed ring, and leveled
 * logging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/byte_memory.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"

namespace spt {
namespace {

// --------------------------------------------------------------------
// bit_util
// --------------------------------------------------------------------

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(BitUtil, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Floor(1ull << 50), 50u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xff, 3, 0), 0xfu);
    EXPECT_EQ(bits(~uint64_t{0}, 63, 0), ~uint64_t{0});
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234);
    EXPECT_EQ(signExtend(0xffffffff, 32), -1);
}

TEST(BitUtil, Align)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(alignDown(128, 64), 128u);
}

TEST(BitUtil, PopCountAndRotl)
{
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(0xf0f0), 8u);
    EXPECT_EQ(rotl32(0x80000001, 1), 0x00000003u);
    EXPECT_EQ(rotl32(0x12345678, 0), 0x12345678u);
    EXPECT_EQ(rotl32(0x12345678, 32), 0x12345678u);
}

// --------------------------------------------------------------------
// rng
// --------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng r(9);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.nextBelow(8)];
    for (int count : seen)
        EXPECT_GT(count, 300); // roughly uniform
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

// --------------------------------------------------------------------
// stats
// --------------------------------------------------------------------

TEST(Stats, CountersBasics)
{
    StatSet s;
    EXPECT_EQ(s.get("missing"), 0u);
    s.inc("a");
    s.inc("a", 4);
    s.set("b", 10);
    EXPECT_EQ(s.get("a"), 5u);
    EXPECT_EQ(s.get("b"), 10u);
    s.reset();
    EXPECT_EQ(s.get("a"), 0u);

    // A literal name: the fast path caches its slot under this
    // address.
    const char *const lit = "lit";

    // Absent from counters() until the first increment.
    EXPECT_EQ(s.counters().count("lit"), 0u);
    s.inc(lit);
    ASSERT_EQ(s.counters().count("lit"), 1u);
    EXPECT_EQ(s.counters().at("lit"), 1u);

    // A literal and a run-time string of the same name share one
    // counter, in either order of first use.
    s.inc(std::string("lit"), 2);
    s.inc(lit);
    s.inc(std::string("str"));
    s.inc("str", 5);
    EXPECT_EQ(s.get("lit"), 4u);
    EXPECT_EQ(s.get("str"), 6u);
    EXPECT_EQ(s.counters().size(), 2u);
    s.histogram(lit, 4).record(1);
    s.histogram(std::string("lit")).record(2);
    EXPECT_EQ(s.histograms().size(), 1u);
    EXPECT_EQ(s.histograms().at("lit").samples(), 2u);
    EXPECT_EQ(s.histograms().at("lit").numBuckets(), 4u);

    // After reset() a resolved name starts a fresh entry at 1 (under
    // ASan a stale cached slot would be a use-after-free).
    s.reset();
    EXPECT_TRUE(s.counters().empty());
    s.inc(lit);
    EXPECT_EQ(s.counters().size(), 1u);
    EXPECT_EQ(s.get("lit"), 1u);
    s.histogram(lit).record(3);
    EXPECT_EQ(s.histograms().at("lit").samples(), 1u);

    // Increments on a copy never reach the original, whether the
    // copy is constructed, assigned or moved.
    StatSet copy = s;
    copy.inc(lit, 10);
    copy.histogram(lit).record(4);
    StatSet assigned;
    assigned.inc(lit);
    assigned = s;
    assigned.inc(lit, 20);
    StatSet source = copy;
    StatSet moved = std::move(source);
    moved.inc(lit, 100);
    EXPECT_EQ(s.get("lit"), 1u);
    EXPECT_EQ(s.histograms().at("lit").samples(), 1u);
    EXPECT_EQ(copy.get("lit"), 11u);
    EXPECT_EQ(copy.histograms().at("lit").samples(), 2u);
    EXPECT_EQ(assigned.get("lit"), 21u);
    EXPECT_EQ(moved.get("lit"), 111u);
}

TEST(Stats, NamesPastTheSlotCacheStillCount)
{
    // More static names than the slot cache holds: the overflow
    // takes the uncached map path and counts the same.
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (int i = 0; i < 300; ++i)
            v.push_back("name." + std::to_string(i));
        return v;
    }();
    StatSet s;
    for (int round = 0; round < 3; ++round)
        for (const std::string &n : names)
            s.inc(n.c_str(), round + 1);
    ASSERT_EQ(s.counters().size(), names.size());
    for (const std::string &n : names)
        EXPECT_EQ(s.get(n), 6u) << n;
}

TEST(Stats, HistogramMeanAndCdf)
{
    Histogram h(8);
    h.record(1);
    h.record(1);
    h.record(3);
    h.record(100); // overflow bucket
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), (1 + 1 + 3 + 100) / 4.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(1), 0.5);
    EXPECT_DOUBLE_EQ(h.cdfAt(3), 0.75);
    EXPECT_DOUBLE_EQ(h.cdfAt(200), 1.0);
}

TEST(Stats, HistogramOverflowBucketBoundary)
{
    // An 8-bucket histogram: buckets 0-6 are exact, bucket 7 holds
    // everything >= 7.
    Histogram h(8);
    h.record(6);   // last exact bucket
    h.record(7);   // smallest overflow value
    h.record(100); // deep overflow
    EXPECT_EQ(h.bucket(6), 1u);
    EXPECT_EQ(h.bucket(7), 2u);
    EXPECT_EQ(h.maxSample(), 100u);

    // Exact below the overflow bucket.
    EXPECT_DOUBLE_EQ(h.cdfAt(5), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(6), 1.0 / 3.0);
    // v = 7 does not cover the sample at 100, so the overflow bucket
    // must not be counted (the off-by-one reported cdfAt(7) == 1.0).
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(99), 1.0 / 3.0);
    // From the largest recorded sample on, the cdf is exact again.
    EXPECT_DOUBLE_EQ(h.cdfAt(100), 1.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(101), 1.0);
}

TEST(Stats, HistogramOverflowExactWhenNoDeepOverflow)
{
    // When every overflow sample sits exactly at N-1, cdfAt(N-1)
    // covers them all and must be 1.0.
    Histogram h(8);
    h.record(2);
    h.record(7);
    h.record(7);
    EXPECT_EQ(h.maxSample(), 7u);
    EXPECT_DOUBLE_EQ(h.cdfAt(6), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 1.0);

    h.reset();
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 0.0);
}

TEST(Stats, EmptyHistogramContract)
{
    // The text/JSON dump paths derive mean/p50/p95 for histograms
    // that may never record a sample (e.g. untaint.* in a run with
    // zero untaint events). Contract: with zero samples nothing
    // divides by the sample count — mean and cdf are 0.0 and every
    // percentile is 0, for any p.
    Histogram h(8);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(UINT64_MAX), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(0.95), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
    EXPECT_EQ(h.percentile(2.0), 0u);

    // The dump paths themselves stay well-defined on the empty
    // histogram (their p50/p95 lines ride on percentile).
    StatSet s;
    s.histogram("empty", 8);
    std::ostringstream text;
    s.dump(text);
    EXPECT_NE(text.str().find("empty.samples 0"),
              std::string::npos);
    EXPECT_NE(text.str().find("empty.p95 0"), std::string::npos);
    JsonWriter jw;
    s.dumpJson(jw);
    EXPECT_NE(jw.str().find("\"samples\": 0"), std::string::npos);
}

TEST(Stats, HistogramPercentileBoundaries)
{
    Histogram h(8);
    EXPECT_EQ(h.percentile(0.5), 0u); // no samples

    // 10 samples, all in exact buckets: 4x value 1, 5x value 3,
    // 1x value 6.
    h.record(1, 4);
    h.record(3, 5);
    h.record(6);
    // Rank math: p50 -> rank 5 -> value 3 (first 4 samples are 1s);
    // the p = 0.4 boundary lands exactly on the last 1.
    EXPECT_EQ(h.percentile(0.40), 1u);
    EXPECT_EQ(h.percentile(0.41), 3u);
    EXPECT_EQ(h.percentile(0.50), 3u);
    EXPECT_EQ(h.percentile(0.90), 3u);
    EXPECT_EQ(h.percentile(0.91), 6u);
    EXPECT_EQ(h.percentile(1.0), 6u);
    // Degenerate p clamps to the smallest/largest rank.
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(2.0), 6u);
    // Consistency with cdfAt: the p-th percentile covers at least
    // fraction p of the samples.
    for (double p : {0.25, 0.5, 0.75, 0.95})
        EXPECT_GE(h.cdfAt(h.percentile(p)), p) << p;
}

TEST(Stats, HistogramPercentileOverflowClampsToMax)
{
    Histogram h(8);
    h.record(1, 6);
    h.record(100, 4); // overflow bucket; per-value counts are lost
    // Ranks landing in the overflow range clamp to maxSample, the
    // only value there whose cdf is known (mirrors cdfAt).
    EXPECT_EQ(h.percentile(0.60), 1u);
    EXPECT_EQ(h.percentile(0.61), 100u);
    EXPECT_EQ(h.percentile(0.95), 100u);

    // All samples exactly at the overflow boundary N-1: the clamp
    // target is N-1 itself, so percentiles stay exact.
    Histogram b(8);
    b.record(7, 3);
    EXPECT_EQ(b.percentile(0.5), 7u);
}

TEST(Stats, DumpFormat)
{
    StatSet s;
    s.inc("zeta");
    s.inc("alpha", 2);
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "alpha 2\nzeta 1\n");

    // Histograms append derived lines (mean/percentiles) after the
    // counters.
    s.histogram("lat", 8).record(2, 3);
    std::ostringstream os2;
    s.dump(os2);
    EXPECT_EQ(os2.str(), "alpha 2\nzeta 1\n"
                         "lat.samples 3\nlat.mean 2\n"
                         "lat.p50 2\nlat.p95 2\n");
}

TEST(Stats, DumpJsonMatchesTextDump)
{
    StatSet s;
    s.inc("alpha", 2);
    s.set("zeta", 7);
    Histogram &h = s.histogram("lat", 8);
    h.record(1, 2);
    h.record(3, 2);

    JsonWriter jw;
    s.dumpJson(jw);
    EXPECT_EQ(jw.str(),
              "{\n"
              "  \"alpha\": 2,\n"
              "  \"zeta\": 7,\n"
              "  \"lat\": {\n"
              "    \"samples\": 4,\n"
              "    \"mean\": 2.000000,\n"
              "    \"p50\": 1,\n"
              "    \"p95\": 3,\n"
              "    \"max\": 3\n"
              "  }\n"
              "}");
}

// --------------------------------------------------------------------
// byte memory
// --------------------------------------------------------------------

TEST(ByteMemory, UninitializedReadsZero)
{
    ByteMemory m;
    EXPECT_EQ(m.read(0x123456, 8), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(ByteMemory, LittleEndianRoundTrip)
{
    ByteMemory m;
    m.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1000, 2), 0x7788u);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.readByte(0x1007), 0x11u);
}

TEST(ByteMemory, PartialWriteMasksValue)
{
    ByteMemory m;
    m.write(0x2000, 0xffffffffffffffffull, 8);
    m.write(0x2000, 0xaabb, 2);
    EXPECT_EQ(m.read(0x2000, 8), 0xffffffffffffaabbull);
}

TEST(ByteMemory, CrossPageAccess)
{
    ByteMemory m;
    const uint64_t addr = ByteMemory::kPageBytes - 4;
    m.write(addr, 0x0123456789abcdefull, 8);
    EXPECT_EQ(m.read(addr, 8), 0x0123456789abcdefull);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(ByteMemory, BlockOps)
{
    ByteMemory m;
    const uint8_t data[5] = {1, 2, 3, 4, 5};
    m.writeBlock(0x3000, data, 5);
    uint8_t out[5] = {};
    m.readBlock(0x3000, out, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], data[i]);
}

// --------------------------------------------------------------------
// Ring
// --------------------------------------------------------------------

TEST(Ring, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(Ring<int>(0).capacity(), 1u);
    EXPECT_EQ(Ring<int>(1).capacity(), 1u);
    EXPECT_EQ(Ring<int>(5).capacity(), 8u);
    EXPECT_EQ(Ring<int>(192).capacity(), 256u);
}

TEST(Ring, WrapsAroundInFifoOrder)
{
    // Fill and drain the four slots at a different depth each lap,
    // so head and tail cross the end of the array at every offset.
    Ring<int> r(4);
    int next_in = 0;
    int next_out = 0;
    for (int lap = 0; lap < 12; ++lap) {
        while (r.size() < r.capacity())
            r.push_back(next_in++);
        EXPECT_EQ(r.front(), next_out);
        EXPECT_EQ(r.back(), next_in - 1);
        for (std::size_t i = 0; i < r.size(); ++i)
            EXPECT_EQ(r[i], next_out + static_cast<int>(i));
        for (int n = 0; n <= lap % 4; ++n) {
            EXPECT_EQ(r.front(), next_out++);
            r.pop_front();
        }
    }
}

TEST(Ring, PopsAtBothEnds)
{
    Ring<int> r(8);
    for (int v = 0; v < 6; ++v)
        r.push_back(v);
    r.pop_front();
    r.pop_front();
    r.pop_back(); // 2 3 4
    for (int v = 9; v <= 13; ++v)
        r.push_back(v); // the tail wraps past slot 7
    EXPECT_EQ(std::vector<int>(r.begin(), r.end()),
              (std::vector<int>{2, 3, 4, 9, 10, 11, 12, 13}));
    // A squash-style truncation pops the tail back across the wrap.
    while (!r.empty() && r.back() >= 4)
        r.pop_back();
    EXPECT_EQ(std::vector<int>(r.begin(), r.end()),
              (std::vector<int>{2, 3}));
    r.pop_front();
    r.pop_front();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.begin(), r.end());
}

TEST(Ring, PopReleasesTheSlot)
{
    const auto p = std::make_shared<int>(7);
    Ring<std::shared_ptr<int>> r(2);
    r.push_back(p);
    r.push_back(p);
    EXPECT_EQ(p.use_count(), 3);
    r.pop_front();
    EXPECT_EQ(p.use_count(), 2);
    r.pop_back();
    EXPECT_EQ(p.use_count(), 1);
    r.push_back(p);
    r.clear();
    EXPECT_EQ(p.use_count(), 1);
    EXPECT_TRUE(r.empty());
}

TEST(Ring, LowerBoundOverWrappedRing)
{
    Ring<int> r(8);
    for (int v = 0; v < 6; ++v)
        r.push_back(v);
    for (int n = 0; n < 5; ++n)
        r.pop_front(); // the head sits at slot 5
    for (int v = 10; v <= 70; v += 10)
        r.push_back(v); // 5 10 20 ... 70, wrapping after 20
    ASSERT_EQ(r.size(), r.capacity());
    ASSERT_TRUE(std::is_sorted(r.begin(), r.end()));
    for (int key = 0; key <= 75; ++key) {
        const auto it = std::lower_bound(r.begin(), r.end(), key);
        const auto want = std::find_if(
            r.begin(), r.end(), [key](int v) { return v >= key; });
        EXPECT_EQ(it, want) << "key " << key;
    }
    const auto it = std::lower_bound(r.begin(), r.end(), 35);
    EXPECT_EQ(*it, 40);
    EXPECT_EQ(it - r.begin(), 4);
    EXPECT_EQ(std::lower_bound(r.begin(), r.end(), 71), r.end());
}

TEST(Ring, OverflowAndUnderflowAssert)
{
    Ring<int> r(3); // four slots
    for (int v = 0; v < 4; ++v)
        r.push_back(v);
    EXPECT_THROW(r.push_back(4), PanicError);
    EXPECT_EQ(r.size(), 4u); // the refused push changed nothing
    EXPECT_EQ(r.front(), 0);
    EXPECT_EQ(r.back(), 3);
    r.pop_front();
    EXPECT_NO_THROW(r.push_back(4));
    EXPECT_EQ(r.back(), 4);

    Ring<int> empty(2);
    EXPECT_THROW(empty.pop_front(), PanicError);
    EXPECT_THROW(empty.pop_back(), PanicError);
}

// --------------------------------------------------------------------
// logging
// --------------------------------------------------------------------

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(SPT_FATAL("boom"), FatalError);
    EXPECT_THROW(SPT_PANIC("bug"), PanicError);
    EXPECT_THROW(SPT_ASSERT(1 == 2, "nope"), PanicError);
    EXPECT_NO_THROW(SPT_ASSERT(1 == 1, "fine"));
}

} // namespace
} // namespace spt

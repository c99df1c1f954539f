/** @file Unit tests for the set-associative cache tag model. */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <thread>

#include "mem/cache.hh"

using namespace ppa;

namespace
{

CacheParams
smallCache()
{
    // 4 KiB, 2-way, 64 B lines -> 32 sets.
    return CacheParams{4 * 1024, 2, 64, 3};
}

/** Run @p fn on a new thread, whose tag-array pools start empty. */
template <class Fn>
void
onFreshThread(Fn fn)
{
    std::thread(fn).join();
}

/** A line with an 8-bit epoch, so a test can reach the wrap. */
struct TinyLine
{
    std::uint64_t tag;
    std::uint8_t epoch;
    bool dirty;
};

} // namespace

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    auto r1 = c.access(0x1000, false);
    EXPECT_FALSE(r1.hit);
    auto r2 = c.access(0x1000, false);
    EXPECT_TRUE(r2.hit);
    auto r3 = c.access(0x1038, false); // same line
    EXPECT_TRUE(r3.hit);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(smallCache());
    // Three lines mapping to the same set (stride = 32 sets * 64 B).
    Addr a = 0x0000, b = 0x0800, d = 0x1000;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);      // a more recent than b
    auto r = c.access(d, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.dirtyVictim.has_value()); // b was clean
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, DirtyVictimReported)
{
    Cache c(smallCache());
    Addr a = 0x0000, b = 0x0800, d = 0x1000;
    c.access(a, true); // dirty
    c.access(b, false);
    auto r = c.access(d, false); // evicts a (LRU)
    ASSERT_TRUE(r.dirtyVictim.has_value());
    EXPECT_EQ(*r.dirtyVictim, a);
}

TEST(Cache, WriteMarksDirtyOnHit)
{
    Cache c(smallCache());
    c.access(0x40, false);
    c.access(0x40, true);
    auto dirty = c.dirtyLines();
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0], 0x40u);
}

TEST(Cache, CleanLineClearsDirtyBit)
{
    Cache c(smallCache());
    c.access(0x40, true);
    c.cleanLine(0x47); // any address within the line
    EXPECT_TRUE(c.dirtyLines().empty());
}

TEST(Cache, InsertWritebackAllocates)
{
    Cache c(smallCache());
    auto victim = c.insertWriteback(0x2000, true);
    EXPECT_FALSE(victim.has_value());
    EXPECT_TRUE(c.contains(0x2000));
    auto dirty = c.dirtyLines();
    ASSERT_EQ(dirty.size(), 1u);
}

TEST(Cache, InsertWritebackMergesDirtyBit)
{
    Cache c(smallCache());
    c.access(0x2000, false); // clean resident line
    c.insertWriteback(0x2000, true);
    EXPECT_EQ(c.dirtyLines().size(), 1u);
}

TEST(Cache, InvalidateAllDropsEveryLine)
{
    Cache c(smallCache());
    // Distinct sets so nothing evicts anything.
    c.access(0x0, true);
    c.access(0x40, true);
    c.access(0x80, false);
    ASSERT_EQ(c.dirtyLines().size(), 2u);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.contains(0x80));
    EXPECT_TRUE(c.dirtyLines().empty());
}

TEST(Cache, LineAlign)
{
    Cache c(smallCache());
    EXPECT_EQ(c.lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(Cache, MissRatio)
{
    Cache c(smallCache());
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.25);
}

TEST(Cache, Table2Geometries)
{
    // The paper's caches must construct: 64 KB 8-way L1D, 1 MB (16 MB
    // scaled) 16-way L2.
    Cache l1(CacheParams{64 * 1024, 8, 64, 4});
    Cache l2(CacheParams{1024 * 1024, 16, 64, 44});
    EXPECT_EQ(l1.hitLatency(), 4u);
    EXPECT_EQ(l2.hitLatency(), 44u);
}

TEST(Cache, ReusedArrayMatchesFreshAllocationInLockstep)
{
    // A pooled array keeps the tags, dirty bits and large LRU stamps
    // of the cache that freed it; none of it may leak into the cache
    // that takes it. 4 KiB, 4-way -> 16 sets, driven over 32 KiB.
    const CacheParams geom{4 * 1024, 4, 64, 3};
    onFreshThread([&] {
        std::mt19937_64 rng(7);
        auto addr = [&] { return (rng() % 512) * 64 + rng() % 64; };
        {
            Cache prior(geom);
            for (int i = 0; i < 2'000; ++i)
                prior.access(addr(), true);
            prior.invalidateAll();
            for (int i = 0; i < 2'000; ++i)
                prior.insertWriteback(prior.lineAlign(addr()), true);
        } // freed: its array goes to this thread's pool
        Cache reused(geom); // takes the pooled array
        Cache fresh(geom);  // the pool is empty again: a new array
        for (int step = 0; step < 20'000; ++step) {
            Addr a = addr();
            switch (rng() % 4) {
              case 0:
              case 1: {
                bool w = rng() % 2;
                CacheAccessResult x = reused.access(a, w);
                CacheAccessResult y = fresh.access(a, w);
                ASSERT_EQ(x.hit, y.hit) << "step " << step;
                ASSERT_EQ(x.dirtyVictim, y.dirtyVictim) << "step " << step;
                break;
              }
              case 2: {
                bool d = rng() % 2;
                ASSERT_EQ(reused.insertWriteback(reused.lineAlign(a), d),
                          fresh.insertWriteback(fresh.lineAlign(a), d))
                    << "step " << step;
                break;
              }
              default:
                reused.cleanLine(a);
                fresh.cleanLine(a);
            }
            if (step % 5'000 == 4'999) {
                reused.invalidateAll();
                fresh.invalidateAll();
            }
            ASSERT_EQ(reused.contains(a), fresh.contains(a))
                << "step " << step;
            ASSERT_EQ(reused.dirtyLines(), fresh.dirtyLines())
                << "step " << step;
        }
        EXPECT_EQ(reused.hits(), fresh.hits());
        EXPECT_EQ(reused.misses(), fresh.misses());
    });
}

TEST(LineArray, FreedArrayIsReusedWithNoValidLine)
{
    onFreshThread([] {
        using Array = LineArray<TinyLine, 1>;
        const TinyLine *storage = nullptr;
        {
            Array a(8);
            storage = &a[0];
            for (std::size_t i = 0; i < a.size(); ++i)
                a.validate(a[i]);
        }
        Array b(8);
        EXPECT_EQ(&b[0], storage);
        for (std::size_t i = 0; i < b.size(); ++i)
            EXPECT_FALSE(b.valid(b[i])) << "line " << i;
        Array c(8); // the one pooled array is taken: a new one
        EXPECT_NE(&c[0], storage);
        Array d(4); // another size never takes it
        EXPECT_NE(&d[0], storage);
    });
}

TEST(LineArray, EpochWrapClearsStaleLines)
{
    // An 8-bit epoch runs 1..255 and skips 0, so the 255th
    // invalidation brings it back to 1; without the clear on wrap, a
    // line stamped at 1 would be valid again.
    onFreshThread([] {
        LineArray<TinyLine, 1> a(4);
        a.validate(a[0]);
        a[0].dirty = true;
        for (int i = 0; i < 254; ++i)
            a.invalidateAll();
        a.validate(a[1]); // epoch 255, the last before the wrap
        a.invalidateAll();       // wraps: every line is cleared
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_FALSE(a.valid(a[i])) << "line " << i;
            EXPECT_FALSE(a[i].dirty) << "line " << i;
        }
        for (int i = 0; i < 256; ++i) {
            a.invalidateAll();
            ASSERT_FALSE(a.valid(a[0]));
            ASSERT_FALSE(a.valid(a[1]));
        }
        a.validate(a[2]);
        EXPECT_TRUE(a.valid(a[2]));
    });
}

TEST(LineArray, PooledArrayWrapsOnReuse)
{
    // A freed array whose epoch is at the top of its range wraps when
    // the next array of its size takes it.
    onFreshThread([] {
        using Array = LineArray<TinyLine, 1>;
        {
            Array a(4);
            for (int i = 0; i < 254; ++i)
                a.invalidateAll();
            for (std::size_t i = 0; i < a.size(); ++i)
                a.validate(a[i]); // epoch 255
        }
        Array b(4);
        for (std::size_t i = 0; i < b.size(); ++i)
            EXPECT_EQ(b[i].epoch, 0) << "line " << i;
        for (int i = 0; i < 255; ++i) {
            b.invalidateAll();
            for (std::size_t l = 0; l < b.size(); ++l)
                ASSERT_FALSE(b.valid(b[l])) << "line " << l;
        }
    });
}

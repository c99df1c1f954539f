/** @file Unit tests for the set-associative cache tag model. */

#include <gtest/gtest.h>

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

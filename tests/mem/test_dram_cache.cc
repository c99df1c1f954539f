/** @file Unit tests for the direct-mapped DRAM cache (memory mode). */

#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "mem/dram_cache.hh"

using namespace ppa;

namespace
{

DramCacheParams
smallDramCache()
{
    DramCacheParams p;
    p.sizeBytes = 64 * 1024; // 1024 lines
    p.lineBytes = 64;
    p.hitLatency = 100;
    return p;
}

} // namespace

TEST(DramCache, WarmStartAbsorbsFirstTouch)
{
    // Default warmStart: a never-allocated set counts as a hit (the
    // 5B-instruction fast-forward warmed the DRAM cache).
    DramCache d(smallDramCache());
    EXPECT_TRUE(d.access(0x1000, false).hit);
    EXPECT_TRUE(d.access(0x1000, false).hit);
    EXPECT_EQ(d.hits(), 2u);
    EXPECT_EQ(d.misses(), 0u);
}

TEST(DramCache, ColdMissThenHitWithoutWarmStart)
{
    DramCacheParams p = smallDramCache();
    p.warmStart = false;
    DramCache d(p);
    EXPECT_FALSE(d.access(0x1000, false).hit);
    EXPECT_TRUE(d.access(0x1000, false).hit);
    EXPECT_EQ(d.hits(), 1u);
    EXPECT_EQ(d.misses(), 1u);
}

TEST(DramCache, DirectMappedConflict)
{
    DramCache d(smallDramCache());
    Addr a = 0x0;
    Addr b = 64 * 1024; // same set, different tag
    d.access(a, true);
    auto r = d.access(b, false);
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.dirtyVictim.has_value());
    EXPECT_EQ(*r.dirtyVictim, a);
    EXPECT_FALSE(d.contains(a));
    EXPECT_TRUE(d.contains(b));
}

TEST(DramCache, CleanVictimNotReported)
{
    DramCache d(smallDramCache());
    d.access(0x0, false);
    auto r = d.access(64 * 1024, false);
    EXPECT_FALSE(r.dirtyVictim.has_value());
}

TEST(DramCache, CleanLineCleansResidentLine)
{
    DramCache d(smallDramCache());
    d.access(0x40, true);
    EXPECT_EQ(d.dirtyLines().size(), 1u);
    d.cleanLine(0x48); // persist wrote NVM: copy now clean
    EXPECT_TRUE(d.dirtyLines().empty());
    EXPECT_TRUE(d.contains(0x40));
}

TEST(DramCache, CleanLineIgnoresAbsentLine)
{
    DramCache d(smallDramCache());
    d.cleanLine(0x40);
    EXPECT_FALSE(d.contains(0x40));
}

TEST(DramCache, InvalidateAllDropsEverything)
{
    DramCache d(smallDramCache());
    d.access(0x0, true);
    d.access(0x40, false);
    d.invalidateAll();
    EXPECT_FALSE(d.contains(0x0));
    EXPECT_FALSE(d.contains(0x40));
    EXPECT_TRUE(d.dirtyLines().empty());
}

TEST(DramCache, HitLatencyConfigured)
{
    DramCache d(smallDramCache());
    EXPECT_EQ(d.hitLatency(), 100u);
}

TEST(DramCache, ReusedArrayMatchesFreshAllocationInLockstep)
{
    // A pooled array keeps the tags and dirty bits of the cache that
    // freed it. With warmStart, a stale line read as valid would turn
    // a first-touch hit into a miss with a dirty victim. Runs on a new
    // thread, whose pool starts empty.
    for (bool warm : {true, false}) {
        std::thread([warm] {
            DramCacheParams p = smallDramCache();
            p.warmStart = warm;
            std::mt19937_64 rng(11);
            auto addr = [&] { return (rng() % 4096) * 64 + rng() % 64; };
            {
                DramCache prior(p);
                for (int i = 0; i < 4'000; ++i)
                    prior.access(addr(), true);
                prior.invalidateAll();
                for (int i = 0; i < 4'000; ++i)
                    prior.access(addr(), true);
            } // freed: its array goes to this thread's pool
            DramCache reused(p); // takes the pooled array
            DramCache fresh(p);  // the pool is empty again: a new array
            for (int step = 0; step < 20'000; ++step) {
                Addr a = addr();
                switch (rng() % 4) {
                  case 0:
                  case 1: {
                    bool w = rng() % 2;
                    CacheAccessResult x = reused.access(a, w);
                    CacheAccessResult y = fresh.access(a, w);
                    ASSERT_EQ(x.hit, y.hit) << "step " << step;
                    ASSERT_EQ(x.dirtyVictim, y.dirtyVictim)
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
            EXPECT_EQ(reused.hits(), fresh.hits()) << "warm " << warm;
            EXPECT_EQ(reused.misses(), fresh.misses()) << "warm " << warm;
        }).join();
    }
}

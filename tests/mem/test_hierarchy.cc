/** @file Integration tests for the full memory hierarchy. */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "mem/hierarchy.hh"

using namespace ppa;

namespace
{

MemSystemParams
testMemParams()
{
    MemSystemParams p;
    // Shrink for tests: 4 KiB L1D, 64 KiB L2, 256 KiB DRAM cache.
    p.l1d = CacheParams{4 * 1024, 8, 64, 4};
    p.l2 = CacheParams{64 * 1024, 16, 64, 44};
    p.dramCache.sizeBytes = 256 * 1024;
    return p;
}

struct HierFixture : ::testing::Test
{
    ClockDomain clk{2e9};
    MemHierarchy mem{testMemParams(), 2, clk};
};

} // namespace

TEST_F(HierFixture, ColdLoadHitsWarmDramCache)
{
    // warmStart (default): the fast-forwarded DRAM cache absorbs the
    // first touch; the access pays L1 (4) + L2 (44) + DRAM$ (100).
    Cycle done = mem.load(0, 0x10000, 0);
    EXPECT_EQ(done, 4u + 44u + 100u);
    EXPECT_EQ(mem.nvm().readCount(), 0u);
}

TEST(HierarchyCold, ColdLoadGoesToNvmWithoutWarmStart)
{
    MemSystemParams p = testMemParams();
    p.dramCache.warmStart = false;
    ClockDomain clk(2e9);
    MemHierarchy mem(p, 1, clk);
    Cycle done = mem.load(0, 0x10000, 0);
    // L1 (4) + L2 (44) + DRAM$ (100) + NVM read (350).
    EXPECT_GE(done, 350u);
    EXPECT_EQ(mem.nvm().readCount(), 1u);
}

TEST(HierarchyCold, WarmStartStillConflictMisses)
{
    MemSystemParams p = testMemParams();
    ClockDomain clk(2e9);
    MemHierarchy mem(p, 1, clk);
    // Two addresses aliasing in the 256 KiB direct-mapped DRAM$.
    mem.load(0, 0x10000, 0);
    Cycle done = mem.load(0, 0x10000 + 256 * 1024, 10);
    EXPECT_GE(done - 10, 350u); // conflict miss -> NVM read
    EXPECT_EQ(mem.nvm().readCount(), 1u);
}

TEST_F(HierFixture, WarmLoadHitsL1)
{
    mem.load(0, 0x10000, 0);
    Cycle done = mem.load(0, 0x10000, 1000);
    EXPECT_EQ(done, 1004u);
}

TEST_F(HierFixture, PrivateL1sSharedL2)
{
    mem.load(0, 0x10000, 0);
    // Core 1 misses its own L1 but hits the shared L2.
    Cycle done = mem.load(1, 0x10000, 1000);
    EXPECT_EQ(done, 1000u + 4 + 44);
}

TEST_F(HierFixture, BaselineStoreDirtiesLine)
{
    auto r = mem.storeMerge(0, 0x20000, 42, 0, /*persist=*/false);
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(mem.committed().read(0x20000), 42u);
    EXPECT_EQ(mem.l1d(0).dirtyLines().size(), 1u);
    // Nothing persisted yet.
    EXPECT_EQ(mem.nvmImage().read(0x20000), 0u);
}

TEST_F(HierFixture, PpaStoreLeavesLineCleanAndPersists)
{
    auto r = mem.storeMerge(0, 0x20000, 42, 0, /*persist=*/true);
    EXPECT_TRUE(r.accepted);
    EXPECT_TRUE(mem.l1d(0).dirtyLines().empty());
    EXPECT_GT(mem.outstandingPersists(0), 0u);

    // Tick until the persist drains.
    Cycle t = 0;
    while (mem.outstandingPersists(0) > 0) {
        mem.tick(t);
        ++t;
        ASSERT_LT(t, 100000u);
    }
    EXPECT_EQ(mem.nvmImage().read(0x20000), 42u);
}

TEST_F(HierFixture, DrainAllFlushesBaselineDirtyData)
{
    mem.storeMerge(0, 0x20000, 7, 0, false);
    mem.storeMerge(1, 0x30000, 8, 0, false);
    mem.drainAll(10);
    EXPECT_EQ(mem.nvmImage().read(0x20000), 7u);
    EXPECT_EQ(mem.nvmImage().read(0x30000), 8u);
}

TEST_F(HierFixture, PowerFailLosesVolatileState)
{
    mem.storeMerge(0, 0x20000, 7, 0, false); // dirty in L1D only
    mem.powerFail();
    EXPECT_FALSE(mem.l1d(0).contains(0x20000));
    // The dirty data never reached NVM: lost, as in real hardware.
    EXPECT_EQ(mem.nvmImage().read(0x20000), 0u);
}

TEST_F(HierFixture, RecoveryWriteUpdatesBothImages)
{
    mem.recoveryWrite(0x1234, 99);
    EXPECT_EQ(mem.nvmImage().read(0x1234), 99u);
    EXPECT_EQ(mem.committed().read(0x1234), 99u);
    EXPECT_TRUE(mem.l1d(0).dirtyLines().empty());
    EXPECT_EQ(mem.nvm().writeCount(), 0u);
}

TEST_F(HierFixture, ClwbPersistsTheLine)
{
    mem.storeMerge(0, 0x20000, 7, 0, false);
    Cycle ack = mem.clwbLine(0, 0x20000, 10);
    EXPECT_GT(ack, 10u);
    EXPECT_EQ(mem.nvmImage().read(0x20000), 7u);
    EXPECT_TRUE(mem.l1d(0).dirtyLines().empty());
}

TEST_F(HierFixture, AtomicPersistWriteIsImmediatelyDurable)
{
    Cycle ack = mem.atomicPersistWrite(0x40000, 77, 5);
    EXPECT_GT(ack, 5u);
    EXPECT_EQ(mem.nvmImage().read(0x40000), 77u);
    EXPECT_EQ(mem.committed().read(0x40000), 77u);
}

TEST(Hierarchy, DramOnlyNeverTouchesNvm)
{
    MemSystemParams p = testMemParams();
    p.dramOnly = true;
    ClockDomain clk(2e9);
    MemHierarchy mem(p, 1, clk);
    mem.load(0, 0x10000, 0);
    mem.storeMerge(0, 0x20000, 1, 0, false);
    mem.drainAll(100);
    EXPECT_EQ(mem.nvm().readCount(), 0u);
    EXPECT_EQ(mem.nvm().writeCount(), 0u);
}

TEST(Hierarchy, AppDirectSkipsDramCache)
{
    MemSystemParams p = testMemParams();
    p.dramCache.enabled = false; // eADR/BBB ideal-PSP configuration
    ClockDomain clk(2e9);
    MemHierarchy mem(p, 1, clk);
    Cycle done = mem.load(0, 0x10000, 0);
    // L1 (4) + L2 (44) + NVM (350) but no DRAM-cache 100 cycles.
    EXPECT_GE(done, 350u);
    EXPECT_LT(done, 440u);
}

TEST(Hierarchy, L3AddsALevel)
{
    MemSystemParams p = testMemParams();
    p.l3Enabled = true;
    p.l3 = CacheParams{128 * 1024, 16, 64, 44};
    p.l2 = CacheParams{32 * 1024, 16, 64, 14};
    ClockDomain clk(2e9);
    MemHierarchy mem(p, 1, clk);
    mem.load(0, 0x10000, 0); // cold fill through all levels
    // Evict from L1+L2 by thrashing, then re-access: should hit L3.
    for (Addr a = 0; a < 96 * 1024; a += 64)
        mem.load(0, 0x100000 + a, 1);
    Cycle before_reads = mem.nvm().readCount();
    mem.load(0, 0x10000, 2);
    EXPECT_EQ(mem.nvm().readCount(), before_reads);
}

// The walk below the L1s on tiny geometries. Every cache is direct-
// mapped with 64 B lines: the L1D has 2 sets, the L2 4, the L3 8 and
// the DRAM cache 16, so lines 128, 256, 512 and 1024 bytes apart
// collide in the L1D, L2, L3 and DRAM cache in turn. The DRAM cache
// starts cold and one NVM controller has a one-entry WPQ, so every
// read, write and WPQ stall below can be counted by hand. Hit
// latencies: L1I 3, L1D 4, L2 10, L3 20, DRAM cache 100; an NVM read
// takes 350 cycles and a write 180 (2 GHz).

namespace
{

MemSystemParams
tinyParams(bool l3, bool dram_cache)
{
    MemSystemParams p;
    p.l1i = CacheParams{128, 1, 64, 3};
    p.l1d = CacheParams{128, 1, 64, 4};
    p.l2 = CacheParams{256, 1, 64, 10};
    p.l3Enabled = l3;
    p.l3 = CacheParams{512, 1, 64, 20};
    p.dramCache.enabled = dram_cache;
    p.dramCache.sizeBytes = 1024;
    p.dramCache.warmStart = false;
    p.nvm.numControllers = 1;
    p.nvm.wpqEntries = 1;
    return p;
}

MemSystemParams
tinyDramOnlyParams()
{
    MemSystemParams p = tinyParams(true, true);
    p.dramOnly = true; // 50 ns = 100 cycles below the last cache
    return p;
}

/** Set 0 of every level. */
constexpr Addr X = 0x4000;

struct NvmCounts
{
    std::uint64_t reads;
    std::uint64_t writes;
    std::uint64_t wpqStall;
    bool operator==(const NvmCounts &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const NvmCounts &c)
{
    return os << "{reads " << c.reads << ", writes " << c.writes
              << ", wpqStall " << c.wpqStall << "}";
}

NvmCounts
counts(MemHierarchy &mem)
{
    return {mem.nvm().readCount(), mem.nvm().writeCount(),
            mem.nvm().wpqStallCycles()};
}

} // namespace

TEST(HierarchyWalk, VictimsCascadeThroughL3AndDramCache)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    // A full miss: 4 + 10 + 20 + 100 + 350.
    EXPECT_EQ(mem.storeMerge(0, X, 7, 0, false).completeCycle, 484u);
    EXPECT_EQ(counts(mem), (NvmCounts{1, 0, 0}));

    // L1D -> L2: the dirty L1D victim X lands on its clean L2 copy.
    EXPECT_EQ(mem.load(0, X + 128, 1000), 1484u);
    EXPECT_EQ(mem.l2().dirtyLines(), std::vector<Addr>{X});

    // L2 -> L3: X leaves the L2 dirty and lands on its L3 copy.
    EXPECT_EQ(mem.load(0, X + 256, 2000), 2484u);
    EXPECT_TRUE(mem.l2().dirtyLines().empty());

    // L3 -> DRAM cache: X dirties its DRAM-cache copy; still no write.
    EXPECT_EQ(mem.load(0, X + 512, 3000), 3484u);
    EXPECT_EQ(counts(mem), (NvmCounts{4, 0, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 0u);

    // DRAM cache -> NVM: the fill of X + 1024 evicts X. An atomic
    // write holds the one WPQ slot until 4180, so the load absorbs
    // 180 stall cycles.
    EXPECT_EQ(mem.atomicPersistWrite(X + 64, 3, 4000), 4180u);
    EXPECT_EQ(mem.load(0, X + 1024, 4000), 4664u);
    EXPECT_EQ(counts(mem), (NvmCounts{5, 2, 180}));
    EXPECT_EQ(mem.nvmImage().read(X), 7u);
    EXPECT_EQ(mem.nvmImage().read(X + 64), 3u);
}

TEST(HierarchyWalk, OneVictimCascadesThroughEveryLevel)
{
    // Four cores, so that private L1Ds hold dirty lines V, A and B
    // that share set 0 of every level while the shared levels are
    // refilled. Every fill is a full miss (484) until the last one.
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 4, clk);
    constexpr Addr V = X, A = X + 1024, B = X + 2048, C = X + 3072;
    EXPECT_EQ(mem.storeMerge(0, V, 1, 0, false).completeCycle, 484u);
    EXPECT_EQ(mem.storeMerge(1, A, 2, 1000, false).completeCycle, 1484u);
    EXPECT_EQ(mem.storeMerge(2, B, 3, 2000, false).completeCycle, 2484u);
    EXPECT_EQ(mem.storeMerge(3, C, 4, 3000, false).completeCycle, 3484u);
    EXPECT_EQ(mem.load(3, C + 128, 4000), 4484u);
    EXPECT_EQ(mem.load(3, C + 256, 5000), 5484u);
    EXPECT_EQ(mem.load(3, C + 512, 6000), 6484u); // C dirty in DRAM$
    EXPECT_EQ(mem.load(2, B + 128, 7000), 7484u);
    EXPECT_EQ(mem.load(2, B + 256, 8000), 8484u); // B dirty in L3
    EXPECT_EQ(mem.load(1, A + 128, 9000), 9484u); // A dirty in L2
    EXPECT_EQ(counts(mem), (NvmCounts{10, 0, 0}));

    // V leaves the L1D and displaces A from the L2, A displaces B
    // from the L3, B displaces C from the DRAM cache, and C is written
    // behind an atomic write that holds the WPQ slot until 10180.
    EXPECT_EQ(mem.atomicPersistWrite(X + 64, 9, 10000), 10180u);
    EXPECT_EQ(mem.load(0, V + 128, 10000), 10664u);
    EXPECT_EQ(counts(mem), (NvmCounts{11, 2, 180}));
    EXPECT_EQ(mem.nvmImage().read(C), 4u);
    EXPECT_EQ(mem.nvmImage().read(V), 0u);

    // V from the L2, A from the L3, B from the DRAM cache.
    EXPECT_EQ(mem.drainAll(20000), 20540u);
    EXPECT_EQ(counts(mem), (NvmCounts{11, 5, 720}));
    EXPECT_EQ(mem.nvmImage().read(V), 1u);
    EXPECT_EQ(mem.nvmImage().read(A), 2u);
    EXPECT_EQ(mem.nvmImage().read(B), 3u);
}

TEST(HierarchyWalk, StoreFillsCascadeVictims)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    // Each store's fill evicts the previous store's line from the
    // L1D, and that line's own victims one level further down.
    EXPECT_EQ(mem.storeMerge(0, X, 1, 0, false).completeCycle, 484u);
    EXPECT_EQ(mem.storeMerge(0, X + 128, 2, 1000, false).completeCycle,
              1484u);
    // The L2 victim X goes to the L3.
    EXPECT_EQ(mem.storeMerge(0, X + 256, 3, 2000, false).completeCycle,
              2484u);
    // The L3 victim X goes to the DRAM cache.
    EXPECT_EQ(mem.storeMerge(0, X + 512, 4, 3000, false).completeCycle,
              3484u);
    EXPECT_EQ(counts(mem), (NvmCounts{4, 0, 0}));
    // The DRAM-cache victim X goes to NVM, behind an atomic write.
    EXPECT_EQ(mem.atomicPersistWrite(X + 64, 9, 4000), 4180u);
    EXPECT_EQ(mem.storeMerge(0, X + 1024, 5, 4000, false).completeCycle,
              4664u);
    EXPECT_EQ(counts(mem), (NvmCounts{5, 2, 180}));
    EXPECT_EQ(mem.nvmImage().read(X), 1u);

    // X + 1024 from the L1D, X + 128 from the L2, X + 256 from the L3
    // and X + 512 from the DRAM cache, all issued at 10000.
    EXPECT_EQ(mem.drainAll(10000), 10720u);
    EXPECT_EQ(counts(mem), (NvmCounts{5, 6, 1260}));
    EXPECT_EQ(mem.nvmImage().read(X + 128), 2u);
    EXPECT_EQ(mem.nvmImage().read(X + 256), 3u);
    EXPECT_EQ(mem.nvmImage().read(X + 512), 4u);
    EXPECT_EQ(mem.nvmImage().read(X + 1024), 5u);
}

TEST(HierarchyWalk, L2VictimGoesToDramCacheWithoutL3)
{
    // A 2-way L2 keeps two dirty lines that share DRAM-cache set 0.
    MemSystemParams p = tinyParams(false, true);
    p.l2 = CacheParams{512, 2, 64, 10};
    ClockDomain clk(2e9);
    MemHierarchy mem(p, 1, clk);
    constexpr Addr Y = X + 1024;
    EXPECT_EQ(mem.storeMerge(0, X, 7, 0, false).completeCycle, 464u);
    EXPECT_EQ(mem.load(0, X + 128, 1000), 1464u); // X dirty in L2
    EXPECT_EQ(mem.storeMerge(0, Y, 8, 2000, false).completeCycle, 2464u);
    EXPECT_EQ(mem.load(0, X + 128, 3000), 3014u); // Y dirty in L2
    EXPECT_EQ(counts(mem), (NvmCounts{3, 0, 0}));

    // L2 -> DRAM cache: the LRU X replaces Y's clean DRAM-cache copy.
    EXPECT_EQ(mem.load(0, X + 256, 4000), 4464u);
    EXPECT_EQ(counts(mem), (NvmCounts{4, 0, 0}));

    // L2 -> DRAM cache -> NVM: Y evicts the dirty X from the DRAM
    // cache on its way down.
    EXPECT_EQ(mem.load(0, X + 512, 5000), 5464u);
    EXPECT_EQ(counts(mem), (NvmCounts{5, 1, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 7u);
    EXPECT_EQ(mem.nvmImage().read(Y), 0u);

    // DRAM cache -> NVM on a fill, while X's write still holds the
    // WPQ slot until 5180: 80 stall cycles.
    EXPECT_EQ(mem.load(0, X + 2048, 5100), 5644u);
    EXPECT_EQ(counts(mem), (NvmCounts{6, 2, 80}));
    EXPECT_EQ(mem.nvmImage().read(Y), 8u);
}

TEST(HierarchyWalk, L2VictimGoesToNvmWithoutDramCache)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(false, false), 1, clk);
    // 4 + 10 + 350: no L3, no DRAM cache.
    EXPECT_EQ(mem.storeMerge(0, X, 7, 0, false).completeCycle, 364u);
    EXPECT_EQ(mem.load(0, X + 128, 1000), 1364u);
    EXPECT_EQ(mem.atomicPersistWrite(X + 64, 3, 2000), 2180u);
    // L2 -> NVM, behind the atomic write: 180 stall cycles.
    EXPECT_EQ(mem.load(0, X + 256, 2000), 2544u);
    EXPECT_EQ(counts(mem), (NvmCounts{3, 2, 180}));
    EXPECT_EQ(mem.nvmImage().read(X), 7u);
}

TEST(HierarchyWalk, L3VictimGoesToNvmWithoutDramCache)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, false), 1, clk);
    // 4 + 10 + 20 + 350.
    EXPECT_EQ(mem.storeMerge(0, X, 7, 0, false).completeCycle, 384u);
    EXPECT_EQ(mem.load(0, X + 128, 1000), 1384u);
    EXPECT_EQ(mem.load(0, X + 256, 2000), 2384u); // X dirty in L3
    EXPECT_EQ(counts(mem), (NvmCounts{3, 0, 0}));
    EXPECT_EQ(mem.atomicPersistWrite(X + 64, 3, 3000), 3180u);
    // L3 -> NVM, behind the atomic write.
    EXPECT_EQ(mem.load(0, X + 512, 3000), 3564u);
    EXPECT_EQ(counts(mem), (NvmCounts{4, 2, 180}));
    EXPECT_EQ(mem.nvmImage().read(X), 7u);
}

TEST(HierarchyWalk, InstFetchCascadesDataVictims)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    mem.storeMerge(0, X, 7, 0, false);
    mem.load(0, X + 128, 1000); // X dirty in L2
    // 3 + 10 + 20 + 100 + 350; the L2 victim X goes to the L3.
    EXPECT_EQ(mem.instFetch(0, X + 256, 2000), 2483u);
    // The L3 victim X dirties the DRAM cache.
    EXPECT_EQ(mem.instFetch(0, X + 512, 3000), 3483u);
    EXPECT_EQ(counts(mem), (NvmCounts{4, 0, 0}));
    // The DRAM-cache victim X goes to NVM.
    EXPECT_EQ(mem.instFetch(0, X + 1024, 4000), 4483u);
    EXPECT_EQ(counts(mem), (NvmCounts{5, 1, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 7u);
    // An L2 hit: X + 128 still sits in L2 set 2.
    EXPECT_EQ(mem.instFetch(0, X + 128, 5000), 5013u);
    // An L1I hit.
    EXPECT_EQ(mem.instFetch(0, X + 128, 6000), 6003u);
    // An L3 hit, then a DRAM-cache hit.
    EXPECT_EQ(mem.instFetch(0, X + 256, 7000), 7033u);
    EXPECT_EQ(mem.instFetch(0, X + 512, 8000), 8133u);
    EXPECT_EQ(counts(mem), (NvmCounts{5, 1, 0}));
}

TEST(HierarchyWalk, StoreFillHitsInL3)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    EXPECT_EQ(mem.load(0, X, 0), 484u);
    EXPECT_EQ(mem.load(0, X + 256, 1000), 1484u); // X only in L3
    // L1D miss, L2 miss, L3 hit: 4 + 10 + 20, nothing below.
    auto r = mem.storeMerge(0, X, 9, 2000, false);
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.completeCycle, 2034u);
    EXPECT_EQ(counts(mem), (NvmCounts{2, 0, 0}));
    EXPECT_EQ(mem.committed().read(X), 9u);
    EXPECT_EQ(mem.l1d(0).dirtyLines(), std::vector<Addr>{X});

    // A store whose fill evicts the dirty X from the L1D into the L2.
    EXPECT_EQ(mem.storeMerge(0, X + 128, 5, 3000, false).completeCycle,
              3484u);
    EXPECT_EQ(counts(mem), (NvmCounts{3, 0, 0}));
    EXPECT_EQ(mem.l2().dirtyLines(), std::vector<Addr>{X});
    EXPECT_EQ(mem.l1d(0).dirtyLines(), std::vector<Addr>{X + 128});
}

TEST(HierarchyWalk, DrainAllFlushesEveryLevel)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    constexpr Addr Y = X + 64; // set 1 of every level
    mem.storeMerge(0, X, 1, 0, false);
    mem.load(0, X + 128, 1000);
    mem.load(0, X + 256, 2000);
    mem.load(0, X + 512, 3000); // X dirty in the DRAM cache
    mem.storeMerge(0, Y, 2, 4000, false);
    mem.load(0, Y + 128, 5000);
    mem.load(0, Y + 256, 6000); // Y dirty in the L3
    // Y + 128 still sits in the L2: an L2 hit, dirty in the L1D.
    mem.storeMerge(0, Y + 128, 3, 7000, false);
    EXPECT_EQ(counts(mem), (NvmCounts{7, 0, 0}));

    // Y + 128, then Y, then X, all issued at 10000 into the one-entry
    // WPQ: they wait 0, 180 and 360 cycles.
    EXPECT_EQ(mem.drainAll(10000), 10540u);
    EXPECT_EQ(counts(mem), (NvmCounts{7, 3, 540}));
    EXPECT_EQ(mem.nvmImage().read(X), 1u);
    EXPECT_EQ(mem.nvmImage().read(Y), 2u);
    EXPECT_EQ(mem.nvmImage().read(Y + 128), 3u);
    // Everything is clean now.
    EXPECT_EQ(mem.drainAll(20000), 20000u);
    EXPECT_EQ(counts(mem), (NvmCounts{7, 3, 540}));
}

TEST(HierarchyWalk, PersistedStoreCleansTheDramCacheCopy)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    mem.storeMerge(0, X, 1, 0, false);
    mem.load(0, X + 128, 1000);
    mem.load(0, X + 256, 2000);
    mem.load(0, X + 512, 3000); // X dirty in the DRAM cache
    // A persisting store to X: the DRAM-cache copy turns clean, and
    // only the write buffer's entry reaches NVM.
    auto r = mem.storeMerge(0, X + 8, 2, 4000, true);
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.completeCycle, 4134u); // 4 + 10 + 20 + 100
    // The entry's coalescing window closes at 5024; 180 to write.
    EXPECT_EQ(mem.drainAll(5000), 5204u);
    EXPECT_EQ(counts(mem), (NvmCounts{4, 1, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 0u);
    EXPECT_EQ(mem.nvmImage().read(X + 8), 2u);
}

TEST(HierarchyWalk, ClwbCleansTheL3Copy)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    mem.storeMerge(0, X, 7, 0, false);
    mem.load(0, X + 128, 1000);
    mem.load(0, X + 256, 2000); // X dirty in the L3
    EXPECT_EQ(mem.clwbLine(0, X, 3000), 3180u);
    EXPECT_EQ(counts(mem), (NvmCounts{3, 1, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 7u);
    // No dirty copy is left anywhere.
    EXPECT_EQ(mem.drainAll(4000), 4000u);
    EXPECT_EQ(counts(mem), (NvmCounts{3, 1, 0}));
}

TEST(HierarchyWalk, PowerFailEmptiesEveryLevel)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyParams(true, true), 1, clk);
    mem.storeMerge(0, X, 7, 0, false);
    mem.load(0, X + 128, 1000);
    mem.load(0, X + 256, 2000); // X dirty in the L3
    mem.powerFail();
    // X is gone from every level: a full miss, and nothing to drain.
    EXPECT_EQ(mem.load(0, X, 3000), 3484u);
    EXPECT_EQ(mem.drainAll(4000), 4000u);
    EXPECT_EQ(counts(mem), (NvmCounts{4, 0, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 0u);
}

TEST(HierarchyWalk, ClwbOnDramOnlyIsVolatile)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyDramOnlyParams(), 1, clk);
    // 4 + 10 + 20 + 100 of flat DRAM.
    EXPECT_EQ(mem.storeMerge(0, X, 7, 0, false).completeCycle, 134u);
    EXPECT_EQ(mem.clwbLine(0, X, 500), 501u);
    EXPECT_TRUE(mem.l1d(0).dirtyLines().empty());
    EXPECT_EQ(mem.instFetch(0, X + 64, 600), 733u); // 3 + 10 + 20 + 100
    EXPECT_EQ(counts(mem), (NvmCounts{0, 0, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 0u);
    EXPECT_EQ(mem.committed().read(X), 7u);
}

TEST(HierarchyWalk, AtomicPersistWriteOnDramOnlyIsVolatile)
{
    ClockDomain clk(2e9);
    MemHierarchy mem(tinyDramOnlyParams(), 1, clk);
    EXPECT_EQ(mem.atomicPersistWrite(X, 77, 5), 105u);
    EXPECT_EQ(counts(mem), (NvmCounts{0, 0, 0}));
    EXPECT_EQ(mem.nvmImage().read(X), 0u);
    EXPECT_EQ(mem.committed().read(X), 77u);
}

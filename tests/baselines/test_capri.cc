/** @file Tests for the Capri redo-buffer baseline. */

#include <gtest/gtest.h>

#include "baselines/capri.hh"
#include "sim/system.hh"
#include "workload/kernels.hh"

using namespace ppa;

TEST(CapriChannel, AcceptsUntilFull)
{
    ClockDomain clk(2e9);
    // Tiny 64-byte buffer = 4 entries of 16 B.
    CapriChannel ch(clk, 4.0, 64);
    EXPECT_TRUE(ch.onStoreCommit(0));
    EXPECT_TRUE(ch.onStoreCommit(0));
    EXPECT_TRUE(ch.onStoreCommit(0));
    EXPECT_TRUE(ch.onStoreCommit(0));
    EXPECT_FALSE(ch.onStoreCommit(0));
}

TEST(CapriChannel, DrainsAtPathBandwidth)
{
    ClockDomain clk(2e9);
    CapriChannel ch(clk, 4.0, 64);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ch.onStoreCommit(0));
    EXPECT_FALSE(ch.empty(0));
    // 16 B at 4 GB/s = 4 ns = 8 cycles per entry, with a 38 ns
    // (76-cycle) path latency floor: completions land at 76, 84, 92,
    // 100.
    EXPECT_FALSE(ch.empty(60));
    EXPECT_FALSE(ch.empty(99));
    EXPECT_TRUE(ch.empty(101));
}

TEST(CapriChannel, LatencyFloorAppliesToSingleEntry)
{
    ClockDomain clk(2e9);
    CapriChannel ch(clk, 4.0, 1024);
    ASSERT_TRUE(ch.onStoreCommit(1000));
    EXPECT_FALSE(ch.empty(1075));
    EXPECT_TRUE(ch.empty(1077));
}

TEST(CapriChannel, SlowerPathDrainsLater)
{
    ClockDomain clk(2e9);
    CapriChannel fast(clk, 32.0, 1024);
    CapriChannel slow(clk, 4.0, 1024);
    for (int i = 0; i < 16; ++i) {
        fast.onStoreCommit(0);
        slow.onStoreCommit(0);
    }
    Cycle t = 0;
    while (!fast.empty(t))
        ++t;
    Cycle t_fast = t;
    t = 0;
    while (!slow.empty(t))
        ++t;
    EXPECT_GT(t, t_fast);
}

TEST(CapriMode, FunctionalCorrectnessPreserved)
{
    Program prog = kernels::tatpUpdate(120);
    ProgramExecutor golden(prog);
    golden.totalLength();

    SystemConfig sc;
    sc.core.mode = PersistMode::Capri;
    System system(sc);
    system.seedMemory(prog.initialMemory());
    ProgramExecutor source(prog);
    system.bindSource(0, &source);
    system.run(40'000'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_TRUE(system.memory().committed().sameContents(
        golden.goldenMemory()));
}

TEST(CapriMode, FormsCompilerRegions)
{
    Program prog = kernels::hashTableUpdate(300);
    SystemConfig sc;
    sc.core.mode = PersistMode::Capri;
    System system(sc);
    system.seedMemory(prog.initialMemory());
    ProgramExecutor source(prog);
    system.bindSource(0, &source);
    system.run(40'000'000);
    ASSERT_TRUE(system.allDone());
    // ~29-instruction regions over ~4k instructions.
    std::uint64_t insts = system.core(0).committedInsts();
    std::uint64_t regions = system.core(0).regionStats().regionCount();
    EXPECT_GT(regions, insts / 40);
}

/** @file Unit tests for the L1D write buffer with persist coalescing. */

#include <gtest/gtest.h>

#include "mem/write_buffer.hh"

using namespace ppa;

namespace
{

struct WbFixture : ::testing::Test
{
    ClockDomain clk{2e9};
    NvmParams nvmParams{};
    Nvm nvm{nvmParams, clk};
    MemImage nvmImage;
    /** Window 0: issue immediately (windowed behaviour is tested
     *  separately below). */
    WriteBuffer wb{4, 64, 0};
};

} // namespace

TEST_F(WbFixture, StoreIsOutstandingUntilAcked)
{
    ASSERT_TRUE(wb.addStore(0x1000, 7, 0));
    EXPECT_EQ(wb.outstandingStores(), 1u);
    wb.drainAll(0, nvm, nvmImage);
    EXPECT_EQ(wb.outstandingStores(), 0u);
    EXPECT_EQ(nvmImage.read(0x1000), 7u);
}

TEST_F(WbFixture, SameLineStoresCoalesce)
{
    ASSERT_TRUE(wb.addStore(0x1000, 1, 0));
    ASSERT_TRUE(wb.addStore(0x1008, 2, 0));
    ASSERT_TRUE(wb.addStore(0x1010, 3, 0));
    EXPECT_EQ(wb.coalescedStores(), 2u);
    EXPECT_EQ(wb.outstandingStores(), 3u);

    wb.drainAll(0, nvm, nvmImage);
    // One persist op carried all three words.
    EXPECT_EQ(wb.persistOps(), 1u);
    EXPECT_EQ(nvm.writeCount(), 1u);
    EXPECT_EQ(nvmImage.read(0x1000), 1u);
    EXPECT_EQ(nvmImage.read(0x1008), 2u);
    EXPECT_EQ(nvmImage.read(0x1010), 3u);
}

TEST_F(WbFixture, CoalescingKeepsYoungestValue)
{
    ASSERT_TRUE(wb.addStore(0x1000, 1, 0));
    ASSERT_TRUE(wb.addStore(0x1000, 2, 0));
    wb.drainAll(0, nvm, nvmImage);
    EXPECT_EQ(nvmImage.read(0x1000), 2u);
}

TEST_F(WbFixture, DifferentLinesUseSeparateEntries)
{
    ASSERT_TRUE(wb.addStore(0x1000, 1, 0));
    ASSERT_TRUE(wb.addStore(0x2000, 2, 0));
    EXPECT_EQ(wb.coalescedStores(), 0u);
    wb.drainAll(0, nvm, nvmImage);
    EXPECT_EQ(wb.persistOps(), 2u);
}

TEST_F(WbFixture, FullBufferRejectsNewLine)
{
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(wb.addStore(0x1000 + 0x40 * i, i, 0));
    EXPECT_FALSE(wb.addStore(0x9000, 9, 0));
    // Same-line store still coalesces even when "full".
    EXPECT_TRUE(wb.addStore(0x1008, 42, 0));
}

TEST_F(WbFixture, TickIssuesOldestFirst)
{
    ASSERT_TRUE(wb.addStore(0x1000, 1, 0));
    ASSERT_TRUE(wb.addStore(0x2000, 2, 0));
    wb.tick(0, nvm, nvmImage);
    // Only the oldest issued this tick.
    EXPECT_EQ(wb.persistOps(), 1u);
    EXPECT_EQ(nvmImage.read(0x1000), 1u);
    EXPECT_EQ(nvmImage.read(0x2000), 0u);
    wb.tick(1, nvm, nvmImage);
    EXPECT_EQ(wb.persistOps(), 2u);
}

TEST_F(WbFixture, WpqAcceptanceIsPersistence)
{
    // ADR semantics: once the WPQ accepts the write it is inside the
    // persistence domain, so the L1D counter drops immediately.
    ASSERT_TRUE(wb.addStore(0x1000, 1, 0));
    EXPECT_EQ(wb.outstandingStores(), 1u);
    wb.tick(0, nvm, nvmImage); // issued into WPQ
    EXPECT_EQ(wb.persistOps(), 1u);
    EXPECT_EQ(wb.outstandingStores(), 0u);
    EXPECT_EQ(nvmImage.read(0x1000), 1u);
}

TEST_F(WbFixture, EmptyAfterDrain)
{
    ASSERT_TRUE(wb.addStore(0x1000, 1, 0));
    wb.drainAll(0, nvm, nvmImage);
    EXPECT_EQ(wb.outstandingStores(), 0u);
}

TEST(WriteBufferWindow, HoldsEntryForCombining)
{
    ClockDomain clk(2e9);
    Nvm nvm(NvmParams{}, clk);
    MemImage img;
    WriteBuffer wb(8, 64, 16);
    ASSERT_TRUE(wb.addStore(0x1000, 1, 0));
    for (Cycle t = 0; t < 16; ++t)
        wb.tick(t, nvm, img);
    // Still combining: nothing issued during the window.
    EXPECT_EQ(wb.persistOps(), 0u);
    wb.tick(16, nvm, img);
    EXPECT_EQ(wb.persistOps(), 1u);
}

TEST(WriteBufferWindow, BurstCoalescesIntoOneOp)
{
    ClockDomain clk(2e9);
    Nvm nvm(NvmParams{}, clk);
    MemImage img;
    WriteBuffer wb(8, 64, 16);
    // A burst of 8 sequential-word stores spread over 8 cycles.
    for (Cycle t = 0; t < 8; ++t) {
        ASSERT_TRUE(wb.addStore(0x1000 + t * 8, t, t));
        wb.tick(t, nvm, img);
    }
    wb.drainAll(8, nvm, img);
    EXPECT_EQ(wb.persistOps(), 1u);
    EXPECT_EQ(wb.coalescedStores(), 7u);
    EXPECT_EQ(wb.outstandingStores(), 0u);
    for (Cycle i = 0; i < 8; ++i)
        EXPECT_EQ(img.read(0x1000 + i * 8), i);
}

TEST(WriteBufferWindow, PressureFlushesEarly)
{
    ClockDomain clk(2e9);
    Nvm nvm(NvmParams{}, clk);
    MemImage img;
    WriteBuffer wb(16, 64, 1000);
    // More than 3 open lines trips the streaming-issue pressure path
    // (only a handful of lines stay open for combining).
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(wb.addStore(0x1000 + 0x40 * i, i, 0));
    wb.tick(0, nvm, img);
    EXPECT_EQ(wb.persistOps(), 1u); // flushed despite the long window
    // With only 3 open lines, nothing flushes inside the window.
    WriteBuffer calm(16, 64, 1000);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(calm.addStore(0x1000 + 0x40 * i, i, 0));
    calm.tick(0, nvm, img);
    EXPECT_EQ(calm.persistOps(), 0u);
}

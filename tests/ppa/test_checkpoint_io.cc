/** @file Tests for checkpoint (de)serialization to the NVM layout. */

#include <gtest/gtest.h>

#include "obs/event_sink.hh"
#include "ppa/checkpoint_io.hh"
#include "sim/system.hh"
#include "workload/kernels.hh"

using namespace ppa;

namespace
{

/** Structural equality of two checkpoint images. */
void
expectEqual(const CheckpointImage &a, const CheckpointImage &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.anyCommitted, b.anyCommitted);
    EXPECT_EQ(a.lcpc, b.lcpc);
    ASSERT_EQ(a.csq.size(), b.csq.size());
    for (std::size_t i = 0; i < a.csq.size(); ++i) {
        EXPECT_EQ(a.csq[i].physRegIndex, b.csq[i].physRegIndex);
        EXPECT_EQ(a.csq[i].addr, b.csq[i].addr);
        EXPECT_EQ(a.csq[i].carriesValue, b.csq[i].carriesValue);
        EXPECT_EQ(a.csq[i].value, b.csq[i].value);
    }
    EXPECT_EQ(a.crtInt, b.crtInt);
    EXPECT_EQ(a.crtFp, b.crtFp);
    EXPECT_TRUE(a.maskBits == b.maskBits);
    EXPECT_EQ(a.physRegValues, b.physRegValues);
}

/** A representative image with every field populated. */
CheckpointImage
sampleImage()
{
    CheckpointImage img;
    img.valid = true;
    img.anyCommitted = true;
    img.lcpc = 12345;
    img.csq.push_back({7, 0x1000, 0, false});
    img.csq.push_back({csqZeroRegIndex, 0x2000, 0, false});
    img.csq.push_back({csqZeroRegIndex, 0x3000, 99, true});
    img.crtInt = {0, 5, invalidPhysReg, 17};
    img.crtFp = {invalidPhysReg, 2};
    img.maskBits = BitVector(348);
    img.maskBits.set(0);
    img.maskBits.set(347);
    img.physRegValues[0] = 111;
    img.physRegValues[5] = 222;
    return img;
}

} // namespace

TEST(CheckpointIo, RoundTripPreservesEverything)
{
    CheckpointImage img = sampleImage();
    auto words = serializeCheckpoint(img);
    CheckpointImage back = deserializeCheckpoint(words);
    expectEqual(img, back);
}

TEST(CheckpointIo, EmptyImageRoundTrips)
{
    CheckpointImage img;
    img.maskBits = BitVector(64);
    auto words = serializeCheckpoint(img);
    CheckpointImage back = deserializeCheckpoint(words);
    expectEqual(img, back);
}

TEST(CheckpointIo, BadMagicIsFatal)
{
    auto words = serializeCheckpoint(sampleImage());
    words[0] ^= 0xFF;
    EXPECT_DEATH({ deserializeCheckpoint(words); }, "bad magic");
}

TEST(CheckpointIo, VersionMismatchIsFatal)
{
    // A checkpoint written by a different format revision must be
    // rejected up front, not deserialized on stale layout assumptions.
    auto words = serializeCheckpoint(sampleImage());
    words[1] += 1;
    EXPECT_DEATH({ deserializeCheckpoint(words); }, "format version");
}

TEST(CheckpointIo, TruncationIsFatal)
{
    auto words = serializeCheckpoint(sampleImage());
    words.resize(words.size() / 2);
    EXPECT_DEATH({ deserializeCheckpoint(words); }, "truncated|garbage");
}

TEST(CheckpointIo, SizeTracksSection712Granularity)
{
    // The serialized entry count stays within 2x of the image's own
    // 8-byte-granularity estimate (headers/trailer add a few words).
    CheckpointImage img = sampleImage();
    auto words = serializeCheckpoint(img);
    EXPECT_LE(words.size() * 8, img.sizeBytes() * 2 + 128);
}

TEST(CheckpointIo, FullCsqRoundTrips)
{
    // Edge case: a checkpoint taken the cycle the CSQ fills (40
    // entries, the paper's sizing) — the largest CSQ section the
    // serializer ever writes. Mix all three entry flavors.
    CheckpointImage img = sampleImage();
    img.csq.clear();
    img.physRegValues.clear();
    for (unsigned i = 0; i < 40; ++i) {
        if (i % 3 == 0) {
            img.csq.push_back({csqZeroRegIndex, 0x4000 + 8 * i,
                               Word{100} + i, true});
        } else if (i % 3 == 1) {
            img.csq.push_back({csqZeroRegIndex, 0x4000 + 8 * i, 0,
                               false});
        } else {
            unsigned reg = 10 + i;
            img.csq.push_back({reg, 0x4000 + 8 * i, 0, false});
            img.maskBits.set(reg);
            img.physRegValues[reg] = Word{1000} + i;
        }
    }
    ASSERT_EQ(img.csq.size(), 40u);
    CheckpointImage back =
        deserializeCheckpoint(serializeCheckpoint(img));
    expectEqual(img, back);
}

TEST(CheckpointIo, EmptyCsqFromRealBoundaryRoundTripsAndRecovers)
{
    // Edge case: power failure in the window right after a region
    // boundary, when the CSQ has drained to empty but instructions
    // have committed. The checkpoint must round-trip and recovery
    // must still reproduce the golden run.
    // The tree walk is read-heavy, so the CSQ sits empty for long
    // stretches between committed stores.
    Program prog = kernels::searchTreeWalk(600);
    ProgramExecutor golden(prog);
    golden.totalLength();

    SystemConfig sc;
    sc.core.mode = PersistMode::Ppa;
    System system(sc);
    system.seedMemory(prog.initialMemory());
    ProgramExecutor source(prog);
    system.bindSource(0, &source);

    // Tick to a window where something committed but the CSQ is empty.
    Cycle limit = system.cycle() + 200'000;
    while ((!system.core(0).csqRef().empty() ||
            system.totalCommitted() == 0) &&
           system.cycle() < limit && !system.allDone())
        system.tick();
    ASSERT_TRUE(system.core(0).csqRef().empty())
        << "no empty-CSQ window found";
    ASSERT_FALSE(system.allDone());

    auto images = system.powerFail();
    ASSERT_TRUE(images[0].valid);
    EXPECT_TRUE(images[0].csq.empty());
    EXPECT_TRUE(images[0].anyCommitted);

    CheckpointImage restored =
        deserializeCheckpoint(serializeCheckpoint(images[0]));
    expectEqual(images[0], restored);
    system.recover({restored});
    system.run(40'000'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_TRUE(system.memory().nvmImage().sameContents(
        golden.goldenMemory()));
    EXPECT_EQ(system.core(0).architecturalState(),
              golden.goldenState());
}

namespace
{

/** Records the cycle of every region-boundary completion. */
struct BoundaryRecorder : obs::EventSink
{
    Cycle cur = 0;
    std::vector<Cycle> boundaries;

    void onCycle(Cycle c) override { cur = c; }
    void onRegionBoundaryComplete() override { boundaries.push_back(cur); }
};

} // namespace

TEST(CheckpointIo, FailureExactlyAtRegionBoundaryCycle)
{
    // Edge case: the failure cycle coincides exactly with a region
    // boundary. First run records the boundary cycles through an event
    // sink; a fresh, deterministic rerun is then killed at
    // precisely such a cycle and must recover to the golden state.
    Program prog = kernels::hashTableUpdate(120);
    ProgramExecutor golden(prog);
    golden.totalLength();

    std::vector<Cycle> boundaries;
    {
        SystemConfig sc;
        sc.core.mode = PersistMode::Ppa;
        System probe(sc);
        probe.seedMemory(prog.initialMemory());
        ProgramExecutor source(prog);
        probe.bindSource(0, &source);
        BoundaryRecorder rec;
        probe.core(0).attach(&rec);
        probe.run(40'000'000);
        ASSERT_TRUE(probe.allDone());
        boundaries = rec.boundaries;
    }
    ASSERT_GE(boundaries.size(), 3u) << "kernel formed too few regions";

    for (std::size_t pick : {std::size_t{1}, boundaries.size() / 2}) {
        SystemConfig sc;
        sc.core.mode = PersistMode::Ppa;
        System system(sc);
        system.seedMemory(prog.initialMemory());
        ProgramExecutor source(prog);
        system.bindSource(0, &source);

        system.runUntilCycle(boundaries[pick]);
        ASSERT_FALSE(system.allDone());
        auto images = system.powerFail();
        ASSERT_TRUE(images[0].valid);
        CheckpointImage restored =
            deserializeCheckpoint(serializeCheckpoint(images[0]));
        expectEqual(images[0], restored);
        system.recover({restored});
        system.run(40'000'000);
        ASSERT_TRUE(system.allDone());
        EXPECT_TRUE(system.memory().nvmImage().sameContents(
            golden.goldenMemory()))
            << "diverged failing at boundary cycle " << boundaries[pick];
        EXPECT_EQ(system.core(0).architecturalState(),
                  golden.goldenState());
    }
}

TEST(CheckpointIo, RecoveryThroughSerializedBytes)
{
    // Full loop: run, fail, serialize the checkpoint to "NVM bytes",
    // deserialize, recover — state must match golden exactly.
    Program prog = kernels::hashTableUpdate(120);
    ProgramExecutor golden(prog);
    golden.totalLength();

    SystemConfig sc;
    sc.core.mode = PersistMode::Ppa;
    System system(sc);
    system.seedMemory(prog.initialMemory());
    ProgramExecutor source(prog);
    system.bindSource(0, &source);
    system.runUntilCycle(2500);
    ASSERT_FALSE(system.allDone());
    auto images = system.powerFail();

    auto nvm_bytes = serializeCheckpoint(images[0]);
    CheckpointImage restored = deserializeCheckpoint(nvm_bytes);
    system.recover({restored});
    system.run(40'000'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_TRUE(system.memory().nvmImage().sameContents(
        golden.goldenMemory()));
    EXPECT_EQ(system.core(0).architecturalState(),
              golden.goldenState());
}

/** @file
 * Crash-consistency property tests: the headline invariant.
 *
 * For ANY power-failure point, JIT checkpoint + recovery (replay the
 * CSQ, restore CRT into RAT, resume after LCPC) must produce a final
 * NVM image and architectural state identical to a failure-free run
 * (paper Sections 3.4, 4.5, 4.6). The sweep is parameterized over
 * kernels and failure cycles, including repeated failures.
 */

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "sim/system.hh"
#include "workload/kernels.hh"

using namespace ppa;

namespace
{

Program
kernelByName(const std::string &name)
{
    if (name == "counter")
        return kernels::counterLoop(150);
    if (name == "hash")
        return kernels::hashTableUpdate(150);
    if (name == "tree")
        return kernels::searchTreeWalk(100);
    if (name == "swap")
        return kernels::arraySwap(120);
    if (name == "tatp")
        return kernels::tatpUpdate(80);
    if (name == "tpcc")
        return kernels::tpccNewOrder(60);
    if (name == "kv")
        return kernels::kvStore(80, 50);
    if (name == "stencil")
        return kernels::stencil(2, 128);
    ADD_FAILURE() << "unknown kernel " << name;
    return kernels::counterLoop(1);
}

/**
 * Run @p prog with power failures injected at the given cycles;
 * verify exact state equality with the golden model at the end.
 */
void
crashAndVerify(const Program &prog, const std::vector<Cycle> &fail_at)
{
    ProgramExecutor golden(prog);
    golden.totalLength();

    SystemConfig sc;
    sc.core.mode = PersistMode::Ppa;
    System system(sc);
    system.seedMemory(prog.initialMemory());
    ProgramExecutor source(prog);
    system.bindSource(0, &source);

    for (Cycle target : fail_at) {
        system.runUntilCycle(target);
        if (system.allDone())
            break;
        auto images = system.powerFail();
        ASSERT_TRUE(images[0].valid);
        system.recover(images);
    }
    system.run(20'000'000);
    ASSERT_TRUE(system.allDone()) << "did not finish after recovery";

    EXPECT_TRUE(system.memory().nvmImage().sameContents(
        golden.goldenMemory()))
        << "NVM image diverged from golden memory";
    EXPECT_EQ(system.core(0).architecturalState(),
              golden.goldenState());
}

struct Case
{
    const char *kernel;
    Cycle failCycle;
};

// Prints the case by value: gtest's default dump of the raw bytes
// would show the kernel name's pointer, which changes from run to run.
std::ostream &
operator<<(std::ostream &os, const Case &c)
{
    return os << c.kernel << "_c" << c.failCycle;
}

class RecoverySweep : public ::testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(RecoverySweep, SingleFailureRecovers)
{
    const Case &c = GetParam();
    crashAndVerify(kernelByName(c.kernel), {c.failCycle});
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, RecoverySweep,
    ::testing::Values(
        Case{"counter", 50}, Case{"counter", 500}, Case{"counter", 2000},
        Case{"counter", 7000}, Case{"hash", 100}, Case{"hash", 1000},
        Case{"hash", 5000}, Case{"hash", 20000}, Case{"tree", 300},
        Case{"tree", 3000}, Case{"tree", 12000}, Case{"swap", 400},
        Case{"swap", 4000}, Case{"swap", 16000}, Case{"tatp", 600},
        Case{"tatp", 6000}, Case{"tpcc", 800}, Case{"tpcc", 8000},
        Case{"kv", 700}, Case{"kv", 7000}, Case{"stencil", 900},
        Case{"stencil", 9000}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.kernel) + "_c" +
               std::to_string(info.param.failCycle);
    });

TEST(Recovery, FailureAtEveryEarlyCycle)
{
    // Exhaustive sweep over the first cycles of a store-heavy kernel:
    // catches boundary conditions (failure before first commit,
    // mid-rename, mid-merge, ...).
    Program prog = kernels::counterLoop(30);
    for (Cycle fail = 1; fail <= 120; fail += 3)
        crashAndVerify(prog, {fail});
}

TEST(Recovery, RepeatedFailures)
{
    Program prog = kernels::hashTableUpdate(120);
    crashAndVerify(prog, {400, 900, 1500, 2600, 4000, 8000});
}

TEST(Recovery, BackToBackFailures)
{
    // A second failure immediately after recovery: the restored
    // CSQ/MaskReg must replay idempotently (paper footnote 8).
    Program prog = kernels::tpccNewOrder(40);
    crashAndVerify(prog, {1000, 1001, 1002, 1400});
}

TEST(Recovery, FailureBeforeFirstCommit)
{
    Program prog = kernels::counterLoop(20);
    crashAndVerify(prog, {1});
}

TEST(Recovery, FailureDuringDrainAfterLastCommit)
{
    Program prog = kernels::counterLoop(20);
    // Very late failure: either the run is done (no-op) or the tail
    // stores replay.
    crashAndVerify(prog, {100'000});
}

TEST(Recovery, CheckpointContainsOnlyMarkedRegisters)
{
    Program prog = kernels::hashTableUpdate(100);
    SystemConfig sc;
    sc.core.mode = PersistMode::Ppa;
    System system(sc);
    system.seedMemory(prog.initialMemory());
    ProgramExecutor source(prog);
    system.bindSource(0, &source);
    system.runUntilCycle(3000);
    auto images = system.powerFail();
    const CheckpointImage &img = images[0];
    ASSERT_TRUE(img.valid);

    // Every CSQ-referenced register has a checkpointed value.
    for (const auto &e : img.csq)
        EXPECT_TRUE(img.physRegValues.count(e.physRegIndex));

    // The checkpoint is tiny: bounded by the paper's worst case of
    // ~1.9 KB (88 regs + CSQ + CRT + MaskReg + LCPC).
    EXPECT_LE(img.sizeBytes(), 2200u);
    EXPECT_GT(img.sizeBytes(), 0u);
}

TEST(Recovery, ReplayIsIdempotent)
{
    // Recover twice from the same image: the second replay must not
    // change the NVM image (stores are idempotent).
    Program prog = kernels::arraySwap(60);
    ProgramExecutor golden(prog);
    golden.totalLength();

    SystemConfig sc;
    sc.core.mode = PersistMode::Ppa;
    System system(sc);
    system.seedMemory(prog.initialMemory());
    ProgramExecutor source(prog);
    system.bindSource(0, &source);
    system.runUntilCycle(2500);
    auto images = system.powerFail();

    system.recover(images);
    MemImage after_first = system.memory().nvmImage();
    // Second recovery from the same checkpoint (as if power failed
    // again instantly with no progress).
    system.powerFail();
    system.recover(images);
    EXPECT_TRUE(system.memory().nvmImage().sameContents(after_first));

    system.run(20'000'000);
    ASSERT_TRUE(system.allDone());
    EXPECT_TRUE(system.memory().nvmImage().sameContents(
        golden.goldenMemory()));
}

TEST(Recovery, VolatileCoreCheckpointIsInvalid)
{
    // Non-PPA systems cannot recover: powerFail returns an invalid
    // image (that inability is the paper's motivation).
    Program prog = kernels::counterLoop(50);
    SystemConfig sc;
    sc.core.mode = PersistMode::Volatile;
    System system(sc);
    ProgramExecutor source(prog);
    system.bindSource(0, &source);
    system.runUntilCycle(500);
    auto images = system.powerFail();
    EXPECT_FALSE(images[0].valid);
}

/**
 * @file
 * Tests for the run pipeline (sim/run.hh): the shared host worker
 * pool and the sim::Run wiring steps the drivers rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "sim/run.hh"
#include "workload/profile.hh"

using namespace ppa;

TEST(RunIndexed, EachIndexRunsExactlyOnce)
{
    constexpr std::size_t jobs = 37;
    for (unsigned workers : {0u, 1u, static_cast<unsigned>(jobs + 3)}) {
        std::vector<std::atomic<unsigned>> hits(jobs);
        sim::runIndexed(workers, jobs, [&](std::size_t i) {
            ASSERT_LT(i, jobs);
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < jobs; ++i)
            EXPECT_EQ(hits[i].load(), 1u)
                << "index " << i << " with " << workers << " workers";
    }
}

TEST(RunIndexed, NoJobsRunsNothing)
{
    for (unsigned workers : {0u, 1u, 3u}) {
        std::atomic<unsigned> calls{0};
        sim::runIndexed(workers, 0, [&](std::size_t) { ++calls; });
        EXPECT_EQ(calls.load(), 0u) << workers << " workers";
    }
}

TEST(RunIndexed, OneWorkerRunsInIndexOrder)
{
    std::vector<std::size_t> order;
    sim::runIndexed(1, 5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RunIndexed, HostWorkersResolvesZeroToAtLeastOne)
{
    EXPECT_GE(sim::hostWorkers(0), 1u);
    EXPECT_EQ(sim::hostWorkers(5), 5u);
}

TEST(Run, CrashObserveReportsCutAndImages)
{
    ExperimentKnobs k;
    k.instsPerCore = 2'000;
    for (SystemVariant v : {SystemVariant::Ppa, SystemVariant::MemoryMode}) {
        sim::Run run(v, k, 1);
        run.addStreams(profileByName("gcc"));
        run.bindSources();
        run.system().runUntilCycle(1'500);
        ASSERT_FALSE(run.system().allDone());
        sim::Run::CrashView view = run.crashObserve({});
        ASSERT_EQ(view.cut.size(), 1u);
        EXPECT_GT(view.cut[0], 0u);
        ASSERT_EQ(view.images.size(), 1u);
        EXPECT_TRUE(view.words.empty());
    }
}

TEST(Run, ArmedFailuresFireOncePerCycleInOrder)
{
    ExperimentKnobs k;
    k.instsPerCore = 3'000;
    k.audit = true;
    sim::Run run(SystemVariant::Ppa, k, 1);
    run.attachAuditors();
    run.addStreams(profileByName("gcc"));
    run.bindSources();
    RunStats rs;
    // Unsorted and duplicated: both copies of 400 fire, on
    // consecutive cycles.
    run.armFailures({900, 400, 400}, 100, rs);
    run.finish(3'000 * 400);
    EXPECT_EQ(rs.powerFailures, 3u);
    EXPECT_EQ(rs.replayAudits, 3u);
    EXPECT_EQ(rs.replayMismatches, 0u);
    EXPECT_TRUE(run.system().allDone());
}

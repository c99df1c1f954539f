/**
 * @file
 * Tests for the run pipeline (sim/run.hh): the shared host worker
 * pool and the sim::Run wiring steps the drivers rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/report.hh"
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

TEST(Run, PooledTagArraysCarryNoStateBetweenRuns)
{
    // Cache and DRAM-cache tag arrays freed by one run are reused by
    // the next run on the same thread. Runs of 1, 2 and 4 cores, with
    // power failures, recovery and replay audits on ppa, must give the
    // stats of a run on a new thread (whose pool starts empty), in
    // sequence on one thread and on 4 workers.
    struct Job
    {
        const char *app;
        unsigned threads;
        SystemVariant variant;
    };
    const std::vector<Job> jobs = {
        {"gcc", 1, SystemVariant::Ppa},
        {"barnes", 2, SystemVariant::Ppa},
        {"barnes", 4, SystemVariant::Ppa},
        {"gcc", 1, SystemVariant::MemoryMode},
        {"barnes", 2, SystemVariant::MemoryMode},
        {"barnes", 4, SystemVariant::MemoryMode},
    };
    auto stats = [&](std::size_t j) {
        ExperimentKnobs k;
        k.instsPerCore = 3'000;
        k.threads = jobs[j].threads;
        if (jobs[j].variant == SystemVariant::Ppa) {
            k.audit = true;
            k.failAtCycles = {1'500, 4'000};
        }
        RunStats rs =
            runWorkload(profileByName(jobs[j].app), jobs[j].variant, k);
        EXPECT_EQ(rs.powerFailures, k.failAtCycles.size()) << "job " << j;
        return metrics::runStatsToJson(rs);
    };

    std::vector<std::string> fresh(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        std::thread([&, j] { fresh[j] = stats(j); }).join();

    for (int round = 0; round < 2; ++round) {
        for (std::size_t j = 0; j < jobs.size(); ++j)
            EXPECT_EQ(stats(j), fresh[j])
                << "round " << round << " job " << j;
    }

    const std::size_t repeats = 3;
    std::vector<std::string> pooled(jobs.size() * repeats);
    sim::runIndexed(4, pooled.size(), [&](std::size_t i) {
        pooled[i] = stats(i % jobs.size());
    });
    for (std::size_t i = 0; i < pooled.size(); ++i)
        EXPECT_EQ(pooled[i], fresh[i % jobs.size()]) << "index " << i;
}

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

#include "check/litmus.hh"
#include "isa/builder.hh"
#include "serve/serve.hh"
#include "sim/report.hh"
#include "sim/run.hh"
#include "workload/profile.hh"

using namespace ppa;

namespace
{

/** @p threads' programs on @p variant, wired as the litmus engine
 *  wires a test. */
std::unique_ptr<sim::Run>
programRun(const std::vector<Program> &threads, SystemVariant variant)
{
    const auto n = static_cast<unsigned>(threads.size());
    ExperimentKnobs knobs;
    knobs.threads = n;
    auto run = std::make_unique<sim::Run>(variant, knobs, n);
    for (const Program &p : threads)
        run->system().seedMemory(p.initialMemory());
    for (const Program &p : threads)
        run->addSource(std::make_unique<ProgramExecutor>(p));
    run->wrapReplayCache();
    run->bindSources();
    return run;
}

/**
 * Run @p walk on to @p cycle and take its crash view of @p observed;
 * expect it to equal what a new run from @p make, crashed at @p cycle,
 * leaves durable. Returns the walked view.
 */
template <class MakeRun>
sim::Run::CrashView
expectViewMatchesCrash(sim::Run &walk, MakeRun &&make, Cycle cycle,
                       const std::vector<Addr> &observed,
                       const std::string &where)
{
    walk.system().runUntilCycle(cycle);
    sim::Run::CrashView view = walk.crashView(observed);
    std::unique_ptr<sim::Run> fresh = make();
    fresh->system().runUntilCycle(cycle);
    sim::Run::CrashView crashed = fresh->crashObserve(observed);
    EXPECT_EQ(view.cut, crashed.cut) << where << " cycle " << cycle;
    EXPECT_EQ(view.words, crashed.words) << where << " cycle " << cycle;
    EXPECT_EQ(view.csq, crashed.csq) << where << " cycle " << cycle;
    return view;
}

/** True when @p core's CSQ holds a store to @p addr's word. */
bool
csqHolds(const Core &core, Addr addr)
{
    for (const CsqEntry &e : core.csqRef().contents())
        if (MemImage::wordAlign(e.addr) == MemImage::wordAlign(addr))
            return true;
    return false;
}

} // namespace

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

TEST(Run, CrashObserveReportsCutAndCsq)
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
        ASSERT_EQ(view.csq.size(), 1u);
        EXPECT_TRUE(view.words.empty());
    }
}

TEST(Run, CrashViewMatchesCrash)
{
    // Every cycle of every litmus corpus test.
    for (const check::LitmusTest &test : check::litmusCorpus()) {
        for (SystemVariant v :
             {SystemVariant::Ppa, SystemVariant::MemoryMode,
              SystemVariant::ReplayCache}) {
            auto make = [&] { return programRun(test.threads, v); };
            std::unique_ptr<sim::Run> walk = make();
            const std::string where =
                test.name + " on " + variantToken(v);
            for (Cycle c = 1; !walk->system().allDone(); ++c) {
                ASSERT_LT(c, 100'000u) << where << " never halts";
                expectViewMatchesCrash(*walk, make, c, test.observed,
                                       where);
            }
        }
    }

    // 256 evenly spaced cycles of 2-core serve stacks, one walk per
    // variant, as the serving study's measuring run passes its views.
    serve::ServeConfig cfg;
    cfg.workload = serve::ServeWorkload::Tatp;
    cfg.requests = 60;
    cfg.threads = 2;
    cfg.keys = 256;
    cfg.seed = 5;
    for (serve::ServeVariant v : serve::allServeVariants()) {
        auto make = [&] { return serve::makeServeRun(cfg, v).run; };
        const std::string where =
            std::string("serve ") + serve::serveVariantToken(v);
        Cycle end = make()->system().run(0);
        ASSERT_GT(end, 1'000u) << where;
        serve::ServeRun walk = serve::makeServeRun(cfg, v);
        for (Cycle k = 1; k <= 256; ++k)
            expectViewMatchesCrash(*walk.run, make,
                                   std::max<Cycle>(end * k / 257, 1),
                                   walk.frontier, where);
    }

    // Directed: an ack store sits in the CSQ but not yet in NVM, so
    // the replay overlay alone decides the durable frontier.
    {
        auto make = [&] {
            return serve::makeServeRun(cfg, serve::ServeVariant::Ppa).run;
        };
        serve::ServeRun walk =
            serve::makeServeRun(cfg, serve::ServeVariant::Ppa);
        System &sys = walk.run->system();
        unsigned decided = 0;
        for (Cycle c = 1; decided < 4 && !sys.allDone(); ++c) {
            sys.runUntilCycle(c);
            sim::Run::CrashView view = walk.run->crashView(walk.frontier);
            for (unsigned t = 0; t < cfg.threads; ++t) {
                Addr ack = walk.frontier[t];
                if (csqHolds(sys.core(t), ack) &&
                    view.words[t] != sys.memory().nvmImage().read(ack)) {
                    expectViewMatchesCrash(*walk.run, make, c,
                                           walk.frontier, "ack in CSQ");
                    ++decided;
                    break;
                }
            }
        }
        EXPECT_EQ(decided, 4u) << "no ack store was caught in the CSQ";
    }

    // Directed: two cores store to one word (outside the DRF fragment
    // the checkers use), so recovery's core order decides its value.
    {
        constexpr Addr word = 0x4000;
        std::vector<Program> threads;
        for (Word t = 0; t < 2; ++t) {
            ProgramBuilder b;
            b.movi(1, word);
            for (Word k = 0; k < 12; ++k) {
                b.movi(2, 100 * (t + 1) + k);
                b.st(2, 1, 0);
            }
            b.halt();
            threads.push_back(b.program());
        }
        auto make = [&] { return programRun(threads, SystemVariant::Ppa); };
        std::unique_ptr<sim::Run> walk = make();
        System &sys = walk->system();
        unsigned both = 0;
        for (Cycle c = 1; !sys.allDone(); ++c) {
            ASSERT_LT(c, 100'000u) << "racy stores never halt";
            expectViewMatchesCrash(*walk, make, c, {word}, "racy stores");
            if (csqHolds(sys.core(0), word) && csqHolds(sys.core(1), word))
                ++both;
        }
        EXPECT_GT(both, 0u) << "the two CSQs never held the word at once";
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

TEST(Run, CounterWindowsAddBackToTheSnapshot)
{
    // Two snapshots of one 2-core run: the earlier one plus the window
    // between them must give the later one back in every field.
    ExperimentKnobs k;
    k.instsPerCore = 10'000;
    k.threads = 2;
    sim::Run run(SystemVariant::Ppa, k, 2);
    run.addStreams(profileByName("gcc"));
    run.bindSources();
    run.warmup(8'000, 10'000 * 400, 1);
    sim::Counters warm = run.counters();
    run.finish(10'000 * 400);
    sim::Counters end = run.counters();
    ASSERT_GT(warm.regionCount, 0u);
    ASSERT_GT(end.regionCount, warm.regionCount);
    ASSERT_GT(end.committedInsts, warm.committedInsts);

    sim::Counters sum = warm;
    sum += end - warm;
    EXPECT_EQ(sum.committedInsts, end.committedInsts);
    EXPECT_EQ(sum.committedStores, end.committedStores);
    EXPECT_EQ(sum.regionCount, end.regionCount);
    EXPECT_EQ(sum.boundaryStall, end.boundaryStall);
    EXPECT_EQ(sum.renameStall, end.renameStall);
    EXPECT_EQ(sum.coreRegionCount, end.coreRegionCount);
    EXPECT_EQ(sum.coreRegionStoreSum, end.coreRegionStoreSum);
    EXPECT_EQ(sum.coreRegionOtherSum, end.coreRegionOtherSum);
    EXPECT_EQ(sum.nvmWrites, end.nvmWrites);
    EXPECT_EQ(sum.nvmReads, end.nvmReads);
    EXPECT_EQ(sum.nvmBytes, end.nvmBytes);
    EXPECT_EQ(sum.wpqStall, end.wpqStall);
    EXPECT_EQ(sum.l2Hits, end.l2Hits);
    EXPECT_EQ(sum.l2Misses, end.l2Misses);
    EXPECT_EQ(sum.coalesced, end.coalesced);
    EXPECT_EQ(sum.persist, end.persist);
    EXPECT_EQ(sum.freeInt.binCounts(), end.freeInt.binCounts());
    EXPECT_EQ(sum.freeInt.overflowCount(), end.freeInt.overflowCount());
    EXPECT_EQ(sum.freeInt.count(), end.freeInt.count());
    EXPECT_EQ(sum.freeFp.binCounts(), end.freeFp.binCounts());
    EXPECT_EQ(sum.freeFp.overflowCount(), end.freeFp.overflowCount());
    EXPECT_EQ(sum.freeFp.count(), end.freeFp.count());
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

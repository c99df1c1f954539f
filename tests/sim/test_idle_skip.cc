/**
 * @file
 * Idle-cycle skipping (docs/PERF.md): System::run, runUntilCycle and
 * the sim::Run schedule jump over cycles in which nothing happens and
 * book them in bulk. A lockstep oracle holds them to the per-cycle
 * reference, System::tick(): two identical machines, one ticked cycle
 * by cycle and one advanced to checkpoints a few hundred cycles apart,
 * must agree on every counter, histogram and region statistic, and on
 * the cycles the event sinks see.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/durability.hh"
#include "isa/builder.hh"
#include "mem/nvm.hh"
#include "mem/write_buffer.hh"
#include "obs/event_sink.hh"
#include "obs/telemetry.hh"
#include "serve/request_source.hh"
#include "sim/report.hh"
#include "sim/run.hh"
#include "workload/profile.hh"

using namespace ppa;

namespace
{

constexpr Cycle kCheckpointEvery = 250;

/** Records the cycles at which persistency events reach a sink. */
struct EventRecorder : obs::EventSink
{
    Cycle now = 0;
    std::vector<Cycle> issues;
    std::vector<Cycle> enqueues;
    std::vector<Cycle> starts;
    std::vector<Cycle> completes;

    void onCycle(Cycle cycle) override { now = cycle; }
    void onPersistIssue(Addr, unsigned) override { issues.push_back(now); }
    void
    onPersistEnqueue(Addr, Word, bool) override
    {
        enqueues.push_back(now);
    }
    void
    onRegionBoundaryStart(Cycle cycle, RegionEndCause) override
    {
        starts.push_back(cycle);
    }
    void onRegionBoundaryComplete() override { completes.push_back(now); }
};

/** One machine and the recorders watching its cores: two per core,
 *  recorders[2t] and recorders[2t + 1], which must see the same. */
struct Machine
{
    std::unique_ptr<sim::Run> run;
    std::vector<EventRecorder *> recorders;

    System &sys() { return run->system(); }
};

using Build = std::function<void(sim::Run &)>;

Machine
makeMachine(SystemVariant variant, unsigned threads,
            const ExperimentKnobs &knobs, const Build &build)
{
    Machine m;
    m.run = std::make_unique<sim::Run>(variant, knobs, threads);
    build(*m.run);
    m.run->bindSources();
    for (unsigned t = 0; t < threads; ++t) {
        m.recorders.push_back(&m.run->watch<EventRecorder>(t));
        m.recorders.push_back(&m.run->watch<EventRecorder>(t));
    }
    return m;
}

Build
streams(const std::string &profile)
{
    return [profile](sim::Run &run) {
        run.addStreams(profileByName(profile));
        run.wrapReplayCache();
    };
}

/** A serving stack per core: tatp requests, bare as the ppa serve
 *  variant runs them or under undo/redo logging. */
Build
serveStack(unsigned threads, bool logged)
{
    return [threads, logged](sim::Run &run) {
        for (unsigned t = 0; t < threads; ++t) {
            serve::RequestStreamConfig rc;
            rc.requests = 60;
            rc.seed = 11 + t;
            rc.dataBase = 0x1000'0000 + Addr{t} * 0x100'0000;
            rc.ackAddr = 0x0800'0000 + Addr{t} * 64;
            rc.scratchAddr = 0x0804'0000 + Addr{t} * 64;
            run.addSource(std::make_unique<serve::RequestSource>(rc));
            if (!logged)
                continue;
            DurabilityParams dp;
            dp.publishAddr = rc.ackAddr;
            dp.commitAddr = 0x0808'0000 + Addr{t} * 64;
            dp.logBase = 0x0900'0000 + Addr{t} * 0x1'0000;
            run.stack<UndoRedoLogTransform>(t, dp);
        }
    };
}

void
expectSameHistogram(const stats::Histogram &a, const stats::Histogram &b,
                    const std::string &what)
{
    EXPECT_EQ(a.binCounts(), b.binCounts()) << what;
    EXPECT_EQ(a.overflowCount(), b.overflowCount()) << what;
}

/** Every counter, histogram and region statistic of two machines. */
void
expectSameState(Machine &ref, Machine &fast, const std::string &where)
{
    ASSERT_EQ(ref.sys().cycle(), fast.sys().cycle()) << where;
    sim::Counters a = ref.run->counters();
    sim::Counters b = fast.run->counters();
    EXPECT_EQ(a.committedInsts, b.committedInsts) << where;
    EXPECT_EQ(a.committedStores, b.committedStores) << where;
    EXPECT_EQ(a.regionCount, b.regionCount) << where;
    EXPECT_EQ(a.boundaryStall, b.boundaryStall) << where;
    EXPECT_EQ(a.renameStall, b.renameStall) << where;
    EXPECT_EQ(a.coreRegionCount, b.coreRegionCount) << where;
    EXPECT_EQ(a.coreRegionStoreSum, b.coreRegionStoreSum) << where;
    EXPECT_EQ(a.coreRegionOtherSum, b.coreRegionOtherSum) << where;
    EXPECT_EQ(a.nvmWrites, b.nvmWrites) << where;
    EXPECT_EQ(a.nvmReads, b.nvmReads) << where;
    EXPECT_EQ(a.nvmBytes, b.nvmBytes) << where;
    EXPECT_EQ(a.wpqStall, b.wpqStall) << where;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << where;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << where;
    EXPECT_EQ(a.coalesced, b.coalesced) << where;
    EXPECT_EQ(a.persist, b.persist) << where;
    expectSameHistogram(a.freeInt, b.freeInt, where + " freeInt");
    expectSameHistogram(a.freeFp, b.freeFp, where + " freeFp");
    for (unsigned t = 0; t < ref.sys().numCores(); ++t) {
        const Core &x = ref.sys().core(t);
        const Core &y = fast.sys().core(t);
        EXPECT_EQ(x.cycle(), y.cycle()) << where;
        expectSameHistogram(x.freeIntRegHistogram(),
                            y.freeIntRegHistogram(), where + " core int");
        expectSameHistogram(x.freeFpRegHistogram(), y.freeFpRegHistogram(),
                            where + " core fp");
        const RegionStats &rx = x.regionStats();
        const RegionStats &ry = y.regionStats();
        EXPECT_EQ(rx.regionCount(), ry.regionCount()) << where;
        EXPECT_EQ(rx.stallCycles(), ry.stallCycles()) << where;
        EXPECT_EQ(rx.avgStoresPerRegion(), ry.avgStoresPerRegion()) << where;
        EXPECT_EQ(rx.avgOthersPerRegion(), ry.avgOthersPerRegion()) << where;
        EXPECT_EQ(rx.endedByPrf(), ry.endedByPrf()) << where;
        EXPECT_EQ(rx.endedByCsq(), ry.endedByCsq()) << where;
        EXPECT_EQ(rx.endedBySync(), ry.endedBySync()) << where;
        EXPECT_EQ(x.renameStallNoRegCycles(), y.renameStallNoRegCycles())
            << where;
    }
}

void
expectSameEvents(const EventRecorder &a, const EventRecorder &b,
                 const std::string &what)
{
    EXPECT_EQ(a.issues, b.issues) << what;
    EXPECT_EQ(a.enqueues, b.enqueues) << what;
    EXPECT_EQ(a.starts, b.starts) << what;
    EXPECT_EQ(a.completes, b.completes) << what;
}

/** Both machines saw the same events, and every sink on a core saw
 *  what its twin saw. */
void
expectSameEvents(const Machine &ref, const Machine &fast)
{
    for (std::size_t i = 0; i < ref.recorders.size(); ++i) {
        std::string core = "core " + std::to_string(i / 2);
        expectSameEvents(*ref.recorders[i], *fast.recorders[i],
                         core + " sink " + std::to_string(i % 2));
        if (i % 2 == 1) {
            expectSameEvents(*ref.recorders[i - 1], *ref.recorders[i],
                             core + " twin sinks");
            expectSameEvents(*fast.recorders[i - 1], *fast.recorders[i],
                             core + " twin sinks");
        }
    }
}

/**
 * Tick @p ref cycle by cycle and advance @p fast with runUntilCycle to
 * each checkpoint until both are done; compare at every checkpoint.
 */
void
lockstep(Machine &ref, Machine &fast, Cycle cap)
{
    for (Cycle cp = kCheckpointEvery; cp <= cap; cp += kCheckpointEvery) {
        while (ref.sys().cycle() < cp && !ref.sys().allDone())
            ref.sys().tick();
        fast.sys().runUntilCycle(cp);
        expectSameState(ref, fast, "checkpoint " + std::to_string(cp));
        if (ref.sys().allDone() || ::testing::Test::HasFailure())
            break;
    }
    ASSERT_TRUE(ref.sys().allDone()) << "raise the cap";
    EXPECT_TRUE(fast.sys().allDone());
    expectSameEvents(ref, fast);
}

struct Config
{
    SystemVariant variant;
    unsigned threads;
    std::string profile;
    /** Integer PRF entries; a small file makes rename stall on an
     *  empty free list. 0 keeps the default. */
    unsigned intPrf = 0;
};

std::string
configName(const Config &c)
{
    std::string name = std::string(variantToken(c.variant)) + "_" +
                       std::to_string(c.threads) + "_" + c.profile;
    if (c.intPrf)
        name += "_prf" + std::to_string(c.intPrf);
    for (char &ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

std::ostream &
operator<<(std::ostream &os, const Config &c)
{
    return os << configName(c);
}

class IdleSkipLockstep : public ::testing::TestWithParam<Config>
{};

} // namespace

TEST_P(IdleSkipLockstep, MatchesPerCycleTicks)
{
    const Config &c = GetParam();
    ExperimentKnobs k;
    k.instsPerCore = c.threads > 2 ? 800 : 2'500;
    if (c.intPrf)
        k.intPrf = c.intPrf;
    Machine ref = makeMachine(c.variant, c.threads, k, streams(c.profile));
    Machine fast = makeMachine(c.variant, c.threads, k, streams(c.profile));
    lockstep(ref, fast, k.instsPerCore * 400);
    if (c.variant != SystemVariant::Ppa)
        return;
    // Every sink gets the write buffer's events, not only the first.
    for (const EventRecorder *rec : fast.recorders) {
        EXPECT_FALSE(rec->enqueues.empty());
        EXPECT_FALSE(rec->issues.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, IdleSkipLockstep,
    ::testing::Values(Config{SystemVariant::Ppa, 1, "gcc"},
                      Config{SystemVariant::Ppa, 1, "lbm"},
                      Config{SystemVariant::Ppa, 2, "tatp"},
                      Config{SystemVariant::Ppa, 8, "tatp"},
                      Config{SystemVariant::Ppa, 1, "mcf", 40},
                      Config{SystemVariant::MemoryMode, 1, "lbm"},
                      Config{SystemVariant::MemoryMode, 1, "mcf", 40},
                      Config{SystemVariant::MemoryMode, 2, "tpcc"},
                      Config{SystemVariant::ReplayCache, 1, "gcc"},
                      Config{SystemVariant::ReplayCache, 2, "tatp"},
                      Config{SystemVariant::Capri, 1, "lbm"},
                      Config{SystemVariant::Capri, 8, "water-ns"},
                      Config{SystemVariant::DramOnly, 1, "mcf"},
                      Config{SystemVariant::DramOnly, 2, "tatp"}),
    [](const ::testing::TestParamInfo<Config> &info) {
        return configName(info.param);
    });

TEST(IdleSkip, ServeStackMatchesPerCycleTicks)
{
    for (bool logged : {false, true}) {
        SystemVariant v =
            logged ? SystemVariant::ReplayCache : SystemVariant::Ppa;
        ExperimentKnobs k;
        Machine ref = makeMachine(v, 2, k, serveStack(2, logged));
        Machine fast = makeMachine(v, 2, k, serveStack(2, logged));
        lockstep(ref, fast, 4'000'000);
    }
}

TEST(IdleSkip, TelemetryMatchesPerCycleTicks)
{
    // Telemetry classifies and samples the skipped cycles through
    // onIdle; its harvest must equal the per-cycle one, stall buckets,
    // WPQ series and region events included. The ppa serve stack
    // stalls on a full ROB, CSQ and WPQ and on NVM bandwidth, the
    // logged one and Capri on NVM bandwidth, and lbm with two-entry
    // WPQs on a full CSQ.
    struct Case
    {
        SystemVariant variant;
        Build build;
        unsigned wpq;
    };
    const Case cases[] = {
        {SystemVariant::Ppa, serveStack(2, false), 16},
        {SystemVariant::ReplayCache, serveStack(2, true), 16},
        {SystemVariant::Capri, streams("tatp"), 16},
        {SystemVariant::Ppa, streams("lbm"), 2},
    };
    for (const Case &c : cases) {
        ExperimentKnobs k;
        k.instsPerCore = 2'000;
        k.telemetry = true;
        k.telemetrySampleCycles = 7;
        k.wpqEntries = c.wpq;
        Machine ref = makeMachine(c.variant, 2, k, c.build);
        Machine fast = makeMachine(c.variant, 2, k, c.build);
        ref.run->attachTelemetry();
        fast.run->attachTelemetry();
        lockstep(ref, fast, 4'000'000);
        EXPECT_EQ(metrics::telemetryToJson(ref.run->harvestTelemetry()),
                  metrics::telemetryToJson(fast.run->harvestTelemetry()))
            << variantToken(c.variant);
    }
}

TEST(IdleSkip, TelemetryAttributionFollowsWpqDrains)
{
    // Stores to fresh lines merge one at a time into a write buffer
    // that keeps three entries combining and issues the fourth into a
    // two-entry WPQ. A region barrier (the small PRF ends regions
    // quickly) waits on the merges; while both WPQ entries are in
    // flight its drain stall reads WPQ-full, and it turns to
    // NVM-bandwidth when the older write completes, inside a span in
    // which nothing else happens.
    ProgramBuilder b;
    b.movi(1, 0x100000);
    for (unsigned i = 0; i < 200; ++i) {
        b.movi(2, i + 1);
        b.st(2, 1, Word{i} * 4096);
    }
    b.halt();
    SystemConfig sc;
    sc.core.mode = PersistMode::Ppa;
    sc.core.storeMergeOverlap = 1;
    sc.core.intPrfEntries = 24;
    sc.mem.nvm.wpqEntries = 2;
    sc.mem.nvm.numControllers = 1;
    sc.mem.nvm.writeBwGBps = 10.0;
    sc.mem.wbCoalesceWindow = 1'000'000;
    auto harvest = [&](bool per_cycle) {
        System sys(sc);
        sys.seedMemory(b.program().initialMemory());
        ProgramExecutor source(b.program());
        sys.bindSource(0, &source);
        obs::Telemetry telemetry(obs::TelemetryConfig{}, 1);
        telemetry.attach(sys.core(0), sys.memory());
        if (per_cycle) {
            while (!sys.allDone())
                sys.tick();
        } else {
            sys.runUntilCycle(neverCycle);
        }
        return telemetry.harvest();
    };
    obs::TelemetryResult ref = harvest(true);
    EXPECT_GT(ref.classCycles(obs::CycleClass::WpqFull), 0u);
    EXPECT_GT(ref.classCycles(obs::CycleClass::NvmBandwidth), 0u);
    EXPECT_EQ(metrics::telemetryToJson(ref),
              metrics::telemetryToJson(harvest(false)));
}

TEST(IdleSkip, WarmupLandsOnItsCheckCycles)
{
    // The classic runner checks the warmup target every 64 cycles; the
    // skipping warmup must stop on the same check cycle.
    ExperimentKnobs k;
    k.instsPerCore = 3'000;
    Machine ref = makeMachine(SystemVariant::Ppa, 2, k, streams("tatp"));
    Machine fast = makeMachine(SystemVariant::Ppa, 2, k, streams("tatp"));
    const std::uint64_t target = 1'500;
    const Cycle cap = k.instsPerCore * 400;
    System &r = ref.sys();
    while (!r.allDone() && r.cycle() < cap && r.totalCommitted() < target) {
        for (unsigned i = 0; i < 64 && !r.allDone(); ++i)
            r.tick();
    }
    Cycle warm = fast.run->warmup(target, cap, 64);
    EXPECT_EQ(warm, r.cycle());
    expectSameState(ref, fast, "after warmup");
    lockstep(ref, fast, cap);
}

TEST(IdleSkip, ArmedFailuresFireOnTheirCycles)
{
    ExperimentKnobs k;
    k.instsPerCore = 3'000;
    auto build = [&](Machine &m) {
        m = makeMachine(SystemVariant::Ppa, 2, k, streams("tatp"));
    };
    Machine ref, fast;
    build(ref);
    build(fast);
    const std::vector<Cycle> at = {700, 2'000, 2'001, 5'500};
    const Cycle cap = k.instsPerCore * 400;

    // Reference: Run's schedule, one tick at a time.
    RunStats ref_rs;
    std::size_t next = 0;
    while (!ref.sys().allDone() && ref.sys().cycle() < cap) {
        if (next < at.size() && ref.sys().cycle() >= at[next]) {
            ++next;
            ref.run->auditedCrash(ref_rs);
        }
        ref.sys().tick();
    }
    ref.sys().run(cap); // the final drain finish() ends with

    RunStats fast_rs;
    fast.run->armFailures(at, 0, fast_rs);
    fast.run->finish(cap);
    EXPECT_EQ(ref_rs.powerFailures, at.size());
    EXPECT_EQ(fast_rs.powerFailures, at.size());
    expectSameState(ref, fast, "after finish");
    expectSameEvents(ref, fast);
}

TEST(IdleSkip, HistogramBulkSampleEqualsSingleSamples)
{
    stats::Histogram bulk(8);
    stats::Histogram single(8);
    const std::pair<std::size_t, std::uint64_t> samples[] = {
        {0, 3}, {8, 5}, {9, 4}, {100, 1}, {4, 0}, {2, 7}};
    for (auto [v, n] : samples) {
        bulk.sample(v, n);
        for (std::uint64_t i = 0; i < n; ++i)
            single.sample(v);
    }
    expectSameHistogram(bulk, single, "bulk");
    EXPECT_EQ(bulk.count(), 15u);
    EXPECT_EQ(bulk.overflowCount(), 5u);
}

TEST(IdleSkip, DrainAllMatchesPerCycleTicks)
{
    // drainAll jumps to each next issue cycle; a cycle-by-cycle tick
    // loop over an identical buffer and device must end on the same
    // cycle with the same NVM traffic.
    NvmParams np;
    np.wpqEntries = 2;
    np.writeBwGBps = 0.5;
    ClockDomain clock(2e9);
    for (bool draining : {false, true}) {
        Nvm nvm_a(np, clock), nvm_b(np, clock);
        MemImage img_a, img_b;
        WriteBuffer a(8, 64, 300), b(8, 64, 300);
        a.setDraining(draining);
        b.setDraining(draining);
        for (unsigned i = 0; i < 6; ++i) {
            ASSERT_TRUE(a.addStore(0x1000 + 0x40 * i, i, 10 * i));
            ASSERT_TRUE(b.addStore(0x1000 + 0x40 * i, i, 10 * i));
        }
        Cycle t = 40;
        while (b.outstandingStores() > 0)
            b.tick(t++, nvm_b, img_b);
        EXPECT_EQ(a.drainAll(40, nvm_a, img_a), t) << draining;
        EXPECT_EQ(nvm_a.writeCount(), nvm_b.writeCount());
        EXPECT_EQ(nvm_a.drainAllBy(), nvm_b.drainAllBy());
        EXPECT_EQ(a.persistOps(), b.persistOps());
    }
}

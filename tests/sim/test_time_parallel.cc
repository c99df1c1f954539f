/** @file
 * Time-parallel simulation oracle suite (docs/PERF.md).
 *
 * The exact-mode contract under test: a segmented run's stitched
 * RunStats is a pure function of (profile, variant, knobs) — the host
 * worker count used to execute the segments never changes a single
 * bit of it. This mirrors the SchedEquiv/driver determinism oracles:
 * serial-scheduled vs parallel-scheduled execution of the same
 * segmented plan must agree bitwise, across the golden workload set
 * and with injected power failures. Also covered here: segment-plan
 * geometry edge cases, SimPoint-style sampling, and trace-vs-generator
 * agreement.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/segment.hh"
#include "trace/capture.hh"
#include "workload/profile.hh"

using namespace ppa;
namespace fs = std::filesystem;

namespace
{

/** Knobs for a small segmented run (kept cheap: the golden grid
 *  multiplies this by 41 profiles x 3 variants x 2 worker counts). */
ExperimentKnobs
tpKnobs(unsigned segments, std::uint64_t insts = 6'000,
        std::uint64_t warmup = 500)
{
    ExperimentKnobs k;
    k.instsPerCore = insts;
    k.seed = 42;
    k.timeParallel = segments;
    k.tpWarmupInsts = warmup;
    return k;
}

/** Serialize with worker count pinned; the JSON covers every stats
 *  field (counters, doubles, histograms), so string equality is the
 *  bitwise-identity oracle. */
std::string
statsAt(const WorkloadProfile &p, SystemVariant v, ExperimentKnobs k,
        unsigned workers)
{
    k.tpWorkers = workers;
    return metrics::runStatsToJson(runWorkload(p, v, k));
}

/** Strip trace provenance so trace-driven and generator-driven runs
 *  compare equal (same idiom as the trace replay tests). */
std::string
statsJsonSansProvenance(RunStats rs)
{
    rs.traceDir.clear();
    rs.traceShards = 0;
    rs.traceInsts = 0;
    rs.traceCrc = 0;
    return metrics::runStatsToJson(rs);
}

std::string
scratchDir(const std::string &name)
{
    fs::path dir =
        fs::path(testing::TempDir()) / "ppa_time_parallel" / name;
    fs::remove_all(dir);
    fs::create_directories(dir.parent_path());
    return dir.string();
}

} // namespace

TEST(TimeParallel, WorkerCountInvariantAcrossGoldenGrid)
{
    // The SchedEquiv golden set (all profiles, the non-replaycache
    // variants) at the SchedEquiv budget: serial segment execution
    // (tpWorkers=1) vs parallel (tpWorkers=4) must agree bitwise.
    for (const WorkloadProfile &p : allProfiles()) {
        for (SystemVariant v :
             {SystemVariant::MemoryMode, SystemVariant::Ppa,
              SystemVariant::Capri}) {
            ExperimentKnobs k = tpKnobs(4);
            EXPECT_EQ(statsAt(p, v, k, 1), statsAt(p, v, k, 4))
                << p.name << "/" << variantToken(v);
        }
    }
}

TEST(TimeParallel, WorkerCountInvariantWithInjectedFailures)
{
    // Power failures inside segments — including one exactly at a
    // segment join (cycle 0) — go through checkpoint serialization,
    // recovery, and replay audit; none of it may depend on the host
    // worker count.
    for (const char *app : {"gcc", "tpcc", "sps"}) {
        ExperimentKnobs k = tpKnobs(4, 20'000, 2'000);
        k.audit = true;
        k.tpFailAt = {{0, 0}, {1, 0}, {2, 123}, {3, 7}};
        const WorkloadProfile &p = profileByName(app);
        std::string serial = statsAt(p, SystemVariant::Ppa, k, 1);
        std::string parallel = statsAt(p, SystemVariant::Ppa, k, 4);
        EXPECT_EQ(serial, parallel) << app;

        k.tpWorkers = 4;
        RunStats rs = runWorkload(p, SystemVariant::Ppa, k);
        std::string messages;
        for (const std::string &m : rs.auditMessages)
            messages += m + "\n";
        EXPECT_EQ(rs.powerFailures, 4u) << app;
        EXPECT_EQ(rs.replayAudits, 4u * rs.threads) << app;
        EXPECT_EQ(rs.replayMismatches, 0u) << app << "\n" << messages;
        EXPECT_EQ(rs.auditViolations, 0u) << app << "\n" << messages;
        EXPECT_GT(rs.replayAddrsChecked, 0u) << app;
    }
}

TEST(TimeParallel, SingleSegmentRoutesToClassicPath)
{
    // timeParallel 0 and 1 are both the classic serial runner;
    // neither carries segmentation provenance.
    const WorkloadProfile &p = profileByName("gcc");
    ExperimentKnobs off;
    off.instsPerCore = 6'000;
    ExperimentKnobs one = off;
    one.timeParallel = 1;
    RunStats a = runWorkload(p, SystemVariant::Ppa, off);
    RunStats b = runWorkload(p, SystemVariant::Ppa, one);
    EXPECT_EQ(a.tpSegments, 0u);
    EXPECT_EQ(b.tpSegments, 0u);
    EXPECT_EQ(metrics::runStatsToJson(a), metrics::runStatsToJson(b));
}

TEST(TimeParallel, SampledModeIsDeterministicAndExtrapolates)
{
    const WorkloadProfile &p = profileByName("gcc");
    ExperimentKnobs k = tpKnobs(8);
    k.tpSampleStride = 3; // simulate segments 0, 3, 6
    EXPECT_EQ(statsAt(p, SystemVariant::Ppa, k, 1),
              statsAt(p, SystemVariant::Ppa, k, 4));

    RunStats rs = runWorkload(p, SystemVariant::Ppa, k);
    EXPECT_EQ(rs.tpSegments, 8u);
    EXPECT_EQ(rs.tpSimulatedSegments, 3u);
    EXPECT_EQ(rs.tpSampleStride, 3u);
    // Extrapolated counters approximate the full-stream totals.
    EXPECT_NEAR(static_cast<double>(rs.committedInsts),
                static_cast<double>(k.instsPerCore), 0.1 * 6'000);
    EXPECT_GT(rs.totalCycles, 0u);
    EXPECT_GE(rs.tpCpiRelStderr, 0.0);
}

TEST(TimeParallel, MoreSegmentsThanInstructionsClamps)
{
    ExperimentKnobs k = tpKnobs(64, 16, 4);
    SegmentPlan plan = planSegments(k);
    ASSERT_EQ(plan.segments.size(), 16u); // one instruction each
    for (std::size_t s = 0; s < plan.segments.size(); ++s) {
        EXPECT_EQ(plan.segments[s].begin, s);
        EXPECT_EQ(plan.segments[s].end, s + 1);
    }

    const WorkloadProfile &p = profileByName("gcc");
    EXPECT_EQ(statsAt(p, SystemVariant::Ppa, k, 1),
              statsAt(p, SystemVariant::Ppa, k, 4));
    RunStats rs = runWorkload(p, SystemVariant::Ppa, k);
    EXPECT_EQ(rs.tpSegments, 16u);
    EXPECT_GT(rs.totalCycles, 0u);
}

TEST(TimeParallel, PlanPartitionsStreamAndClampsWarmup)
{
    ExperimentKnobs k = tpKnobs(8, 4'000, 2'000);
    SegmentPlan plan = planSegments(k);
    ASSERT_EQ(plan.segments.size(), 8u);
    std::uint64_t expectBegin = 0;
    for (const SegmentPlan::Segment &seg : plan.segments) {
        EXPECT_EQ(seg.begin, expectBegin); // contiguous partition
        EXPECT_GT(seg.end, seg.begin);
        EXPECT_LE(seg.warmupBegin, seg.begin);
        // Warmup never reaches before the stream start, and is
        // otherwise exactly tpWarmupInsts long.
        EXPECT_EQ(seg.warmupBegin,
                  seg.begin > k.tpWarmupInsts
                      ? seg.begin - k.tpWarmupInsts
                      : 0);
        expectBegin = seg.end;
    }
    EXPECT_EQ(expectBegin, k.instsPerCore);

    k.tpSampleStride = 2;
    plan = planSegments(k);
    for (std::size_t s = 0; s < plan.segments.size(); ++s)
        EXPECT_EQ(plan.segments[s].simulated, s % 2 == 0);
    EXPECT_EQ(plan.simulatedCount(), 4u);
}

TEST(TimeParallel, SegmentShorterThanWarmupStaysExact)
{
    // 500-instruction segments under a 2000-instruction warmup: the
    // warmup prefix spans several earlier segments' windows and the
    // early segments' prefixes clamp at the stream start.
    const WorkloadProfile &p = profileByName("tpcc");
    ExperimentKnobs k = tpKnobs(8, 4'000, 2'000);
    EXPECT_EQ(statsAt(p, SystemVariant::Ppa, k, 1),
              statsAt(p, SystemVariant::Ppa, k, 4));
    RunStats rs = runWorkload(p, SystemVariant::Ppa, k);
    EXPECT_EQ(rs.tpSegments, 8u);
    // The measured windows tile the whole stream, per core (the
    // warmup loop can overshoot a boundary by at most a commit group).
    EXPECT_NEAR(static_cast<double>(rs.committedInsts),
                4'000.0 * rs.threads, 64.0 * rs.threads);
}

TEST(TimeParallel, TraceAndGeneratorRunsAgreeBitwise)
{
    const std::string dir = scratchDir("tp_equiv");
    const WorkloadProfile &p = profileByName("gcc");
    trace::CaptureSpec spec;
    spec.seed = 42;
    spec.instsPerThread = 6'000;
    spec.shardInsts = 2048; // several shards, so seeks cross files
    spec.blockInsts = 256;
    trace::recordWorkloadTrace(dir, p, spec);

    ExperimentKnobs k = tpKnobs(4);
    k.tpWorkers = 2;
    RunStats fromGen = runWorkload(p, SystemVariant::Ppa, k);
    k.traceDir = dir;
    RunStats fromTrace = runWorkload(p, SystemVariant::Ppa, k);
    EXPECT_EQ(fromTrace.traceInsts, 6'000u);
    EXPECT_EQ(statsJsonSansProvenance(fromGen),
              statsJsonSansProvenance(fromTrace));

    // And the trace-driven path obeys the worker-count contract too.
    EXPECT_EQ(statsAt(p, SystemVariant::Ppa, k, 1),
              statsAt(p, SystemVariant::Ppa, k, 4));
}

TEST(TimeParallelDeath, ReplayCacheVariantIsRejected)
{
    // ReplayCache's stream transform inserts instructions, so the
    // committed index no longer equals the stream position and
    // segment boundaries cannot align.
    const WorkloadProfile &p = profileByName("gcc");
    ExperimentKnobs k = tpKnobs(4);
    EXPECT_DEATH(runWorkload(p, SystemVariant::ReplayCache, k),
                 "time-parallel does not support");
}

TEST(TimeParallelDeath, ClassicFailureCyclesAreRejected)
{
    const WorkloadProfile &p = profileByName("gcc");
    ExperimentKnobs k = tpKnobs(4);
    k.failAtCycles = {1'000};
    EXPECT_DEATH(runWorkload(p, SystemVariant::Ppa, k),
                 "tpFailAt");
}

TEST(TimeParallelDeath, FailureInUnsimulatedSegmentIsRejected)
{
    ExperimentKnobs k = tpKnobs(8);
    k.tpSampleStride = 2;
    k.tpFailAt = {{1, 0}}; // segment 1 is sampled out
    EXPECT_DEATH(planSegments(k), "skips");
    k.tpFailAt = {{9, 0}}; // out of range
    EXPECT_DEATH(planSegments(k), "only");
}

/** @file
 * Telemetry oracle suite (docs/TELEMETRY.md).
 *
 * The contracts under test:
 *  - Stall attribution is an exact partition: per core, the eight
 *    CycleClass buckets sum to the covered cycles, which on the
 *    classic path is the whole run.
 *  - Downsampling is lossless for interval counters: the sum over an
 *    nvmWriteBytes series equals the end-of-run NVM aggregate, for
 *    any series capacity.
 *  - Telemetry joins the repo's bitwise determinism contracts: a
 *    sweep's results are identical serial vs parallel, and a
 *    time-parallel run's stitched telemetry is identical for any
 *    host worker count.
 *  - `stats.telemetry` is additive (absent when off) and round-trips
 *    through the schema-v1 JSON byte-for-byte.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workload/profile.hh"

using namespace ppa;

namespace
{

ExperimentKnobs
telemetryKnobs(std::uint64_t insts = 8'000)
{
    ExperimentKnobs k;
    k.instsPerCore = insts;
    k.seed = 42;
    k.telemetry = true;
    return k;
}

/** Per-core bucket sums must equal the covered-cycle count — the
 *  exactly-one-class-per-cycle partition. */
void
expectExactPartition(const obs::TelemetryResult &t)
{
    ASSERT_TRUE(t.enabled);
    ASSERT_FALSE(t.stallCycles.empty());
    for (std::size_t core = 0; core < t.stallCycles.size(); ++core) {
        std::uint64_t sum = 0;
        for (std::uint64_t v : t.stallCycles[core])
            sum += v;
        EXPECT_EQ(sum, t.coveredCycles) << "core " << core;
    }
}

} // namespace

TEST(Telemetry, StallPartitionCoversWholeRun)
{
    for (const char *variant : {"ppa", "memory-mode", "capri"}) {
        SystemVariant v;
        ASSERT_TRUE(variantFromToken(variant, v));
        RunStats rs = runWorkload(profileByName("gcc"), v,
                                  telemetryKnobs());
        SCOPED_TRACE(variant);
        expectExactPartition(rs.telemetry);
        // Classic runner attaches at cycle 0: covered == whole run.
        EXPECT_EQ(rs.telemetry.coveredCycles, rs.totalCycles);
        EXPECT_GT(rs.telemetry.classCycles(obs::CycleClass::Active),
                  0u);
    }
}

TEST(Telemetry, StallPartitionMultiCore)
{
    ExperimentKnobs k = telemetryKnobs(4'000);
    k.threads = 4;
    RunStats rs =
        runWorkload(profileByName("gcc"), SystemVariant::Ppa, k);
    ASSERT_EQ(rs.telemetry.stallCycles.size(), 4u);
    expectExactPartition(rs.telemetry);
    EXPECT_EQ(rs.telemetry.coveredCycles, rs.totalCycles);
}

TEST(Telemetry, DownsamplingPreservesIntervalTotals)
{
    // The same run under aggressive and generous series capacities:
    // bucket counts differ, totals must not. The nvmWriteBytes series
    // is the end-to-end check — its sum is pinned to the NVM device's
    // own aggregate, which the collector never reads directly (it
    // accumulates per-sample deltas plus a harvest-time flush).
    for (std::uint64_t cap : {4u, 16u, 1024u}) {
        ExperimentKnobs k = telemetryKnobs();
        k.telemetrySeriesCap = cap;
        RunStats rs = runWorkload(profileByName("gcc"),
                                  SystemVariant::Ppa, k);
        SCOPED_TRACE(cap);
        const obs::TelemetrySeries *wr =
            rs.telemetry.findSeries("nvmWriteBytes", -1);
        ASSERT_NE(wr, nullptr);
        EXPECT_EQ(wr->total(), rs.nvmBytesWritten);
        EXPECT_LE(wr->cycles.size(), std::max<std::uint64_t>(cap, 2));
        // Occupancy series keep their sample population too.
        const obs::TelemetrySeries *rob =
            rs.telemetry.findSeries("rob", 0);
        ASSERT_NE(rob, nullptr);
        EXPECT_EQ(rob->samples(),
                  rs.totalCycles / rs.telemetry.sampleCycles + 1);
    }
}

TEST(Telemetry, SweepSerialVsParallelBitwise)
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"gcc", "rb", "mcf"}) {
        SweepJob j;
        j.profile = profileByName(app);
        j.variant = SystemVariant::Ppa;
        j.knobs = telemetryKnobs(5'000);
        jobs.push_back(j);
    }
    auto serial = ExperimentDriver(1).run(jobs);
    auto parallel = ExperimentDriver(4).run(jobs);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].stats.telemetry.enabled);
        EXPECT_EQ(metrics::runStatsToJson(serial[i].stats),
                  metrics::runStatsToJson(parallel[i].stats))
            << jobs[i].profile.name;
    }
}

TEST(Telemetry, TimeParallelWorkerCountInvariance)
{
    ExperimentKnobs k = telemetryKnobs(12'000);
    k.timeParallel = 4;
    k.tpWarmupInsts = 500;
    for (const char *app : {"gcc", "rb"}) {
        const WorkloadProfile &p = profileByName(app);
        ExperimentKnobs k1 = k;
        k1.tpWorkers = 1;
        ExperimentKnobs k4 = k;
        k4.tpWorkers = 4;
        RunStats w1 = runWorkload(p, SystemVariant::Ppa, k1);
        RunStats w4 = runWorkload(p, SystemVariant::Ppa, k4);
        SCOPED_TRACE(app);
        EXPECT_TRUE(w1.telemetry.enabled);
        expectExactPartition(w1.telemetry);
        EXPECT_EQ(metrics::runStatsToJson(w1),
                  metrics::runStatsToJson(w4));
    }
}

TEST(Telemetry, TimeParallelCoversStitchedWindow)
{
    // Segments attach after their warmup prefix, so the stitched
    // covered window is exactly the measured (stitched) cycles.
    ExperimentKnobs k = telemetryKnobs(12'000);
    k.timeParallel = 3;
    k.tpWarmupInsts = 500;
    RunStats rs =
        runWorkload(profileByName("gcc"), SystemVariant::Ppa, k);
    expectExactPartition(rs.telemetry);
    EXPECT_EQ(rs.telemetry.coveredCycles, rs.cycles);
}

TEST(Telemetry, OffPathIsAdditive)
{
    ExperimentKnobs k;
    k.instsPerCore = 3'000;
    RunStats rs =
        runWorkload(profileByName("gcc"), SystemVariant::Ppa, k);
    EXPECT_FALSE(rs.telemetry.enabled);
    std::string json = metrics::runStatsToJson(rs);
    EXPECT_EQ(json.find("telemetry"), std::string::npos);
}

TEST(Telemetry, RegionAndPowerTimelines)
{
    ExperimentKnobs k = telemetryKnobs();
    k.failAtCycles = {2'000};
    RunStats rs =
        runWorkload(profileByName("gcc"), SystemVariant::Ppa, k);
    const obs::TelemetryResult &t = rs.telemetry;

    ASSERT_FALSE(t.regionEvents.empty());
    for (const obs::TelemetryRegionEvent &e : t.regionEvents) {
        EXPECT_LE(e.start, e.drainStart);
        EXPECT_LE(e.drainStart, e.end);
        EXPECT_LT(e.end, t.coveredCycles + 1);
    }
    ASSERT_EQ(t.powerEvents.size(), 1u);
    EXPECT_TRUE(t.powerEvents[0].recovered);
    EXPECT_LE(t.powerEvents[0].fail, t.powerEvents[0].recover);
    EXPECT_EQ(rs.powerFailures, 1u);
}

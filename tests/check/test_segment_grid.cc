/** @file
 * Segment-boundary failure grid (the time-parallel audit acceptance
 * test, companion to test_failure_grid.cc).
 *
 * The classic failure grid injects power failures at absolute cycles
 * of one long run; under --time-parallel the stitched cycle axis is
 * not known up front, so failures are scheduled as (segment, cycle
 * after warmup end) pairs instead. This grid drives the spots the
 * segmented runner is most likely to get wrong: a failure exactly at
 * a segment join (cycle 0 — the first measured cycle after warmup), a
 * failure inside the very first segment (which has no warmup prefix),
 * and failures deep inside interior segments. Every case runs with
 * the full audit harness and must recover with zero invariant
 * violations and a bitwise-clean replay diff — and must produce the
 * same counters whether the segments execute serially or on four
 * worker threads.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/segment.hh"
#include "workload/profile.hh"

using namespace ppa;

namespace
{

struct GridCase
{
    const char *profile;
    unsigned threads; // 0 = profile default
};

// Prints the case by value, as the classic grid does: gtest's default
// dump of the raw bytes would show the profile name's pointer and the
// struct's padding, which change from run to run.
std::ostream &
operator<<(std::ostream &os, const GridCase &c)
{
    return os << c.profile << "_t" << c.threads;
}

class SegmentGrid : public ::testing::TestWithParam<GridCase>
{
};

std::string
caseName(const ::testing::TestParamInfo<GridCase> &info)
{
    std::string name = info.param.profile;
    for (char &ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name + "_t" + std::to_string(info.param.threads);
}

ExperimentKnobs
gridKnobs(unsigned threads)
{
    ExperimentKnobs knobs;
    knobs.instsPerCore = 20'000;
    knobs.threads = threads;
    knobs.audit = true;
    knobs.timeParallel = 4;
    knobs.tpWarmupInsts = 2'000;
    // Segment 0 has no warmup prefix; cycle 0 in segments 1..3 is the
    // first cycle after the warmup drain — i.e. exactly at the join.
    knobs.tpFailAt = {{0, 150}, {1, 0}, {2, 0}, {3, 450}};
    return knobs;
}

} // namespace

TEST_P(SegmentGrid, JoinFailuresReplayCleanAndWorkerInvariant)
{
    const GridCase &c = GetParam();
    const WorkloadProfile &profile = profileByName(c.profile);

    ExperimentKnobs knobs = gridKnobs(c.threads);
    knobs.tpWorkers = 1;
    RunStats serial = runWorkload(profile, SystemVariant::Ppa, knobs);
    knobs.tpWorkers = 4;
    RunStats parallel = runWorkload(profile, SystemVariant::Ppa, knobs);

    std::string messages;
    for (const std::string &m : serial.auditMessages)
        messages += m + "\n";

    EXPECT_EQ(serial.powerFailures, knobs.tpFailAt.size());
    EXPECT_EQ(serial.auditViolations, 0u) << messages;
    EXPECT_EQ(serial.replayMismatches, 0u) << messages;
    EXPECT_EQ(serial.replayAudits,
              serial.powerFailures * serial.threads);
    EXPECT_GT(serial.replayAddrsChecked, 0u);
    EXPECT_GT(serial.auditEvents, 0u);
    EXPECT_GT(serial.committedInsts, 0u);

    // Failure/audit counters, timing counters, histograms — all of it
    // must survive the serial-vs-parallel schedule swap bitwise.
    EXPECT_EQ(metrics::runStatsToJson(serial),
              metrics::runStatsToJson(parallel));
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SegmentGrid,
    ::testing::Values(GridCase{"gcc", 1},       // SPEC int
                      GridCase{"mcf", 1},       // memory-bound
                      GridCase{"lbm", 1},       // store-heavy FP
                      GridCase{"tatp", 2},      // multicore txn
                      GridCase{"tpcc", 1},      // txn, fwd-heavy
                      GridCase{"water-ns", 2}), // store-dense sync
    caseName);

TEST(SegmentGridDeterminism, RepeatRunsAreBitwiseIdentical)
{
    // Same contract as the classic grid's determinism check, through
    // the segmented runner: re-running an identical plan — including
    // recovery replays seeking backward across segment windows — must
    // reproduce every stat bit for bit.
    ExperimentKnobs knobs = gridKnobs(0);
    const WorkloadProfile &p = profileByName("tpcc");
    RunStats a = runWorkload(p, SystemVariant::Ppa, knobs);
    RunStats b = runWorkload(p, SystemVariant::Ppa, knobs);
    EXPECT_EQ(metrics::runStatsToJson(a), metrics::runStatsToJson(b));
    EXPECT_EQ(a.auditViolations, 0u);
}

TEST(SegmentGridDeterminism, RepeatedJoinFailuresInOneSegment)
{
    // Several failures in one segment exercise repeated recovery from
    // the same warmup image; the first fires on the join itself.
    ExperimentKnobs knobs = gridKnobs(0);
    knobs.tpFailAt = {{2, 0}, {2, 200}, {2, 400}};
    RunStats rs =
        runWorkload(profileByName("gcc"), SystemVariant::Ppa, knobs);
    std::string messages;
    for (const std::string &m : rs.auditMessages)
        messages += m + "\n";
    EXPECT_EQ(rs.powerFailures, 3u);
    EXPECT_EQ(rs.auditViolations, 0u) << messages;
    EXPECT_EQ(rs.replayMismatches, 0u) << messages;
    EXPECT_GT(rs.replayAddrsChecked, 0u);
}

/** @file
 * Seeded failure-injection grid (the audit layer's acceptance test).
 *
 * For each workload profile in the grid, inject power failures at
 * eight pseudo-random cycles drawn from a fixed seed, recover through
 * the serialized checkpoint path every time, and require that the
 * replayed NVM image matches the committed-store oracle exactly and
 * that no pipeline invariant was violated anywhere along the way.
 * Seeded Rng cycles keep every run byte-reproducible while still
 * sampling failure points across warmup, steady state, and region
 * boundaries.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

using namespace ppa;

namespace
{

constexpr std::size_t failuresPerRun = 8;

std::vector<Cycle>
randomFailCycles(std::uint64_t seed, Cycle lo, Cycle hi)
{
    Rng rng(seed);
    std::vector<Cycle> cycles;
    cycles.reserve(failuresPerRun);
    for (std::size_t i = 0; i < failuresPerRun; ++i)
        cycles.push_back(lo + rng.below(hi - lo));
    return cycles;
}

struct GridCase
{
    const char *profile;
    unsigned threads; // 0 = profile default
    std::uint64_t seed;
};

// Prints the case by value: gtest's default dump of the raw bytes
// would show the profile name's pointer and the struct's padding,
// which change from run to run.
std::ostream &
operator<<(std::ostream &os, const GridCase &c)
{
    return os << c.profile << "_t" << c.threads;
}

class FailureGrid : public ::testing::TestWithParam<GridCase>
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

} // namespace

TEST_P(FailureGrid, ReplayMatchesCommittedStoreOracle)
{
    const GridCase &c = GetParam();

    ExperimentKnobs knobs;
    knobs.instsPerCore = 20'000;
    knobs.threads = c.threads;
    knobs.audit = true;
    // The budget above keeps every profile busy well past cycle 6000
    // (PPA IPC stays below ~3), so all eight failures fire.
    knobs.failAtCycles = randomFailCycles(c.seed, 200, 6000);

    RunStats rs =
        runWorkload(profileByName(c.profile), SystemVariant::Ppa, knobs);

    std::string messages;
    for (const std::string &m : rs.auditMessages)
        messages += m + "\n";

    EXPECT_EQ(rs.powerFailures, failuresPerRun);
    EXPECT_EQ(rs.auditViolations, 0u) << messages;
    EXPECT_EQ(rs.replayMismatches, 0u) << messages;
    EXPECT_EQ(rs.replayAudits, rs.powerFailures * rs.threads);
    EXPECT_GT(rs.replayAddrsChecked, 0u);
    EXPECT_GT(rs.auditEvents, 0u);
    EXPECT_GT(rs.committedInsts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, FailureGrid,
    ::testing::Values(GridCase{"gcc", 1, 101},       // SPEC int
                      GridCase{"mcf", 1, 202},       // memory-bound
                      GridCase{"lbm", 1, 303},       // store-heavy FP
                      GridCase{"tatp", 2, 404},      // multicore txn
                      GridCase{"sps", 2, 505},       // multicore struct
                      GridCase{"tpcc", 1, 606},      // txn, fwd-heavy
                      GridCase{"hmmer", 1, 707},     // ILP-heavy ALU
                      GridCase{"water-ns", 2, 808},  // store-dense sync
                      GridCase{"ocean", 2, 909},     // multicore FP
                      GridCase{"genome", 2, 1010},   // STAMP atomic mix
                      GridCase{"xsbench", 1, 1111}), // mini-app
    caseName);

TEST(FailureGridDeterminism, RepeatRunsAreBitwiseIdentical)
{
    // The recovery path replays committed streams through
    // StreamGenerator::seekTo(); with eight failures the replay seeks
    // backward repeatedly, so this doubles as the integration check
    // that snapshot-based seeks leave simulation results bitwise
    // unchanged from run to run.
    ExperimentKnobs knobs;
    knobs.instsPerCore = 20'000;
    knobs.audit = true;
    knobs.failAtCycles = randomFailCycles(1212, 200, 6000);

    const WorkloadProfile &p = profileByName("tpcc");
    RunStats a = runWorkload(p, SystemVariant::Ppa, knobs);
    RunStats b = runWorkload(p, SystemVariant::Ppa, knobs);

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.regionCount, b.regionCount);
    EXPECT_EQ(a.boundaryStallCycles, b.boundaryStallCycles);
    EXPECT_EQ(a.persistOps, b.persistOps);
    EXPECT_EQ(a.coalescedStores, b.coalescedStores);
    EXPECT_EQ(a.nvmWrites, b.nvmWrites);
    EXPECT_EQ(a.nvmBytesWritten, b.nvmBytesWritten);
    EXPECT_EQ(a.replayAddrsChecked, b.replayAddrsChecked);
    EXPECT_EQ(a.auditViolations, 0u);
    EXPECT_EQ(b.auditViolations, 0u);
}

TEST(FailureGridDeterminism, LateFailuresRecoverCleanly)
{
    // Failures injected deep into the run force long backward seeks
    // (many snapshot intervals) during replay.
    ExperimentKnobs knobs;
    knobs.instsPerCore = 30'000;
    knobs.audit = true;
    knobs.failAtCycles = {9'000, 9'500, 10'000};

    RunStats rs = runWorkload(profileByName("gcc"), SystemVariant::Ppa,
                              knobs);
    std::string messages;
    for (const std::string &m : rs.auditMessages)
        messages += m + "\n";
    EXPECT_EQ(rs.powerFailures, 3u);
    EXPECT_EQ(rs.auditViolations, 0u) << messages;
    EXPECT_EQ(rs.replayMismatches, 0u) << messages;
    EXPECT_GT(rs.replayAddrsChecked, 0u);
}

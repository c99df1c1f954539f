/** @file
 * Scheduler-equivalence suite: the optimized hot loop against the
 * old-path statistics oracle.
 *
 * The core's issue/wakeup path was restructured for host throughput
 * (flat waiter lists, ring buffers, a calendar event wheel — see
 * docs/PERF.md). None of that may change simulated behaviour: this
 * suite runs every workload profile through every pipeline-relevant
 * system variant, plus eADR/BBB and memory mode with an L3 for the
 * walk below the L1s, and asserts that cycle counts, region boundaries,
 * store traffic, and stall accounting are identical to the golden
 * numbers recorded from the pre-optimization scheduler
 * (tests/core/sched_equiv_golden.txt).
 *
 * Regenerating the oracle (only when simulated behaviour changes *on
 * purpose*, e.g. a timing-model fix — never to paper over a scheduler
 * discrepancy):
 *
 *   PPA_SCHED_EQUIV_REGEN=1 ./build/tests/ppa_tests \
 *       --gtest_filter='SchedEquiv.*'
 *
 * which rewrites the golden file in the source tree.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

using namespace ppa;

namespace
{

#ifndef PPA_SOURCE_DIR
#error "PPA_SOURCE_DIR must be defined by the build"
#endif

constexpr std::uint64_t equivInsts = 6'000;
constexpr std::uint64_t equivSeed = 42;

std::string
goldenPath()
{
    return std::string(PPA_SOURCE_DIR) +
           "/tests/core/sched_equiv_golden.txt";
}

/** The scheduler-visible scalar fingerprint of one run. */
struct Fingerprint
{
    std::uint64_t totalCycles = 0;
    std::uint64_t cycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t regionCount = 0;
    std::uint64_t boundaryStallCycles = 0;
    std::uint64_t renameStallNoRegCycles = 0;
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmBytesWritten = 0;
    std::uint64_t persistOps = 0;
    std::uint64_t coalescedStores = 0;

    bool operator==(const Fingerprint &other) const = default;
};

Fingerprint
fingerprintOf(const RunStats &rs)
{
    Fingerprint f;
    f.totalCycles = rs.totalCycles;
    f.cycles = rs.cycles;
    f.committedInsts = rs.committedInsts;
    f.committedStores = rs.committedStores;
    f.regionCount = rs.regionCount;
    f.boundaryStallCycles = rs.boundaryStallCycles;
    f.renameStallNoRegCycles = rs.renameStallNoRegCycles;
    f.nvmWrites = rs.nvmWrites;
    f.nvmBytesWritten = rs.nvmBytesWritten;
    f.persistOps = rs.persistOps;
    f.coalescedStores = rs.coalescedStores;
    return f;
}

std::string
fingerprintLine(const std::string &key, const Fingerprint &f)
{
    std::ostringstream os;
    os << key << ' ' << f.totalCycles << ' ' << f.cycles << ' '
       << f.committedInsts << ' ' << f.committedStores << ' '
       << f.regionCount << ' ' << f.boundaryStallCycles << ' '
       << f.renameStallNoRegCycles << ' ' << f.nvmWrites << ' '
       << f.nvmBytesWritten << ' ' << f.persistOps << ' '
       << f.coalescedStores;
    return os.str();
}

/** The grid: every profile through every pipeline-distinct variant. */
std::vector<SweepJob>
equivalenceGrid()
{
    std::vector<SweepJob> jobs;
    ExperimentKnobs knobs;
    knobs.instsPerCore = equivInsts;
    knobs.seed = equivSeed;
    for (const WorkloadProfile &p : allProfiles()) {
        for (SystemVariant v :
             {SystemVariant::MemoryMode, SystemVariant::Ppa,
              SystemVariant::Capri, SystemVariant::ReplayCache}) {
            jobs.push_back({p, v, knobs});
        }
    }
    // Appended after the grid above so its golden lines stay as they
    // are: the app-direct walk (no DRAM cache) and the memory-mode
    // walk through an L3.
    ExperimentKnobs l3 = knobs;
    l3.l3Cache = true;
    for (const WorkloadProfile &p : allProfiles()) {
        jobs.push_back({p, SystemVariant::EadrBbb, knobs});
        jobs.push_back({p, SystemVariant::MemoryMode, l3});
    }
    return jobs;
}

std::string
jobKey(const SweepJob &job)
{
    return job.profile.name + "/" + variantToken(job.variant) +
           (job.knobs.l3Cache ? "+l3" : "");
}

std::map<std::string, Fingerprint>
loadGolden(const std::string &path)
{
    std::map<std::string, Fingerprint> golden;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return golden;
    char line[512];
    while (std::fgets(line, sizeof(line), f)) {
        if (line[0] == '#' || line[0] == '\n')
            continue;
        char key[128];
        Fingerprint fp;
        if (std::sscanf(line,
                        "%127s %" SCNu64 " %" SCNu64 " %" SCNu64
                        " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                        " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                        key, &fp.totalCycles, &fp.cycles,
                        &fp.committedInsts, &fp.committedStores,
                        &fp.regionCount, &fp.boundaryStallCycles,
                        &fp.renameStallNoRegCycles, &fp.nvmWrites,
                        &fp.nvmBytesWritten, &fp.persistOps,
                        &fp.coalescedStores) == 12) {
            golden.emplace(key, fp);
        }
    }
    std::fclose(f);
    return golden;
}

} // namespace

TEST(SchedEquiv, AllProfilesMatchOldPathOracle)
{
    std::vector<SweepJob> jobs = equivalenceGrid();
    ExperimentDriver driver;
    std::vector<JobResult> results = driver.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());

    if (std::getenv("PPA_SCHED_EQUIV_REGEN")) {
        std::FILE *f = std::fopen(goldenPath().c_str(), "w");
        ASSERT_NE(f, nullptr) << "cannot write " << goldenPath();
        std::fprintf(f,
                     "# Scheduler-equivalence oracle: one line per "
                     "(workload, variant) at\n"
                     "# instsPerCore=%llu seed=%llu. Columns: key "
                     "totalCycles cycles committedInsts\n"
                     "# committedStores regionCount "
                     "boundaryStallCycles renameStallNoRegCycles\n"
                     "# nvmWrites nvmBytesWritten persistOps "
                     "coalescedStores.\n"
                     "# Regenerate: PPA_SCHED_EQUIV_REGEN=1 "
                     "ppa_tests --gtest_filter='SchedEquiv.*'\n",
                     static_cast<unsigned long long>(equivInsts),
                     static_cast<unsigned long long>(equivSeed));
        for (const JobResult &r : results) {
            std::fprintf(
                f, "%s\n",
                fingerprintLine(jobKey(r.job),
                                fingerprintOf(r.stats))
                    .c_str());
        }
        std::fclose(f);
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::map<std::string, Fingerprint> golden =
        loadGolden(goldenPath());
    ASSERT_FALSE(golden.empty())
        << "missing oracle " << goldenPath()
        << " (regenerate with PPA_SCHED_EQUIV_REGEN=1)";

    for (const JobResult &r : results) {
        std::string key = jobKey(r.job);
        auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
        Fingerprint actual = fingerprintOf(r.stats);
        EXPECT_EQ(actual, it->second)
            << key << "\n  actual: " << fingerprintLine(key, actual)
            << "\n  golden: " << fingerprintLine(key, it->second);
    }
    EXPECT_EQ(golden.size(), results.size())
        << "golden file has stale extra entries";
}

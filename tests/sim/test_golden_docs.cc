/** @file
 * Golden-document oracle: the JSON documents the run drivers emit,
 * pinned byte for byte.
 *
 * Every simulation driver (classic runner, time-parallel segments,
 * serving study, litmus explorer, fuzz campaign) wires the machine
 * through the same run pipeline, so a refactor of that pipeline must
 * leave each document bit-identical. The documents are captured at
 * tiny sizes and kept under tests/sim/golden/:
 *
 *  - runStatsToJson of a generator run with audit, injected power
 *    failures and telemetry; of a trace-driven ReplayCache run; and
 *    of a time-parallel run with audit and per-segment failures;
 *  - serveToJson of a 2-thread tatp study with failures;
 *  - litmusResultsJson of corpus tests under ppa, memory-mode and
 *    replaycache;
 *  - campaignJson of a memory-mode campaign with trace replay.
 *
 * Host paths are normalised to fixed placeholders before comparison.
 * Regenerating (only when simulated behaviour changes on purpose):
 *
 *   PPA_GOLDEN_DOCS_REGEN=1 ./build/tests/ppa_tests \
 *       --gtest_filter='GoldenDocs.*'
 *
 * which rewrites the files in the source tree.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/litmus.hh"
#include "fuzz/campaign.hh"
#include "serve/serve.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/capture.hh"
#include "workload/profile.hh"

using namespace ppa;
namespace fs = std::filesystem;

namespace
{

#ifndef PPA_SOURCE_DIR
#error "PPA_SOURCE_DIR must be defined by the build"
#endif

std::string
goldenPath(const std::string &name)
{
    return std::string(PPA_SOURCE_DIR) + "/tests/sim/golden/" + name;
}

std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / "ppa_golden_docs" / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Replace every occurrence of @p from in @p s with @p to. */
std::string
replaceAll(std::string s, const std::string &from, const std::string &to)
{
    for (std::size_t at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size()))
        s.replace(at, from.size(), to);
    return s;
}

/** Compare @p doc with golden file @p name, or rewrite it when
 *  PPA_GOLDEN_DOCS_REGEN is set. */
void
checkGolden(const std::string &name, const std::string &doc)
{
    const std::string path = goldenPath(name);
    if (std::getenv("PPA_GOLDEN_DOCS_REGEN")) {
        fs::create_directories(fs::path(path).parent_path());
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << doc;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (regenerate with PPA_GOLDEN_DOCS_REGEN=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(doc, buf.str()) << "document drifted from " << path;
}

} // namespace

TEST(GoldenDocs, GeneratorRunWithAuditFailuresAndTelemetry)
{
    ExperimentKnobs k;
    k.instsPerCore = 4'000;
    k.audit = true;
    k.failAtCycles = {1'500, 700};
    k.telemetry = true;
    k.telemetrySampleCycles = 512;
    k.telemetrySeriesCap = 64;
    RunStats rs = runWorkload(profileByName("gcc"), SystemVariant::Ppa, k);
    ASSERT_EQ(rs.powerFailures, 2u);
    checkGolden("run_generator.json", metrics::runStatsToJson(rs));
}

TEST(GoldenDocs, TraceDrivenReplayCacheRun)
{
    const WorkloadProfile &p = profileByName("gcc");
    const std::string dir = scratchDir("trace");
    trace::CaptureSpec spec;
    spec.seed = 42;
    spec.instsPerThread = 3'000;
    spec.shardInsts = 1'024;
    spec.blockInsts = 256;
    trace::recordWorkloadTrace(dir, p, spec);

    ExperimentKnobs k;
    k.instsPerCore = 3'000;
    k.traceDir = dir;
    RunStats rs = runWorkload(p, SystemVariant::ReplayCache, k);
    ASSERT_EQ(rs.traceDir, dir);
    rs.traceDir = "<trace-dir>";
    checkGolden("run_trace.json", metrics::runStatsToJson(rs));
}

TEST(GoldenDocs, TimeParallelRunWithAuditAndSegmentFailures)
{
    ExperimentKnobs k;
    k.instsPerCore = 6'000;
    k.timeParallel = 3;
    k.tpWarmupInsts = 500;
    k.tpWorkers = 2;
    k.audit = true;
    k.tpFailAt = {{0, 300}, {1, 0}, {2, 800}};
    k.telemetry = true;
    k.telemetrySampleCycles = 512;
    k.telemetrySeriesCap = 64;
    RunStats rs = runWorkload(profileByName("gcc"), SystemVariant::Ppa, k);
    ASSERT_EQ(rs.powerFailures, 3u);
    checkGolden("run_time_parallel.json", metrics::runStatsToJson(rs));
}

TEST(GoldenDocs, ServeTatpStudyWithFailures)
{
    serve::ServeConfig cfg;
    cfg.workload = serve::ServeWorkload::Tatp;
    cfg.requests = 160;
    cfg.threads = 2;
    cfg.keys = 256;
    cfg.skew = 0.9;
    cfg.arrival.meanGap = 64.0;
    cfg.failures = 3;
    cfg.seed = 7;
    cfg.workers = 2;
    cfg.telemetry = true;
    cfg.telemetrySampleCycles = 512;
    cfg.telemetrySeriesCap = 64;
    serve::ServeStats stats =
        serve::runServeStudy(cfg, serve::allServeVariants());
    checkGolden("serve_tatp.json", serve::serveToJson(stats));
}

TEST(GoldenDocs, LitmusResultsPerVariant)
{
    const std::vector<std::string> names = {"mp", "sb", "atomic-sync",
                                            "epoch-pair"};
    for (SystemVariant v : {SystemVariant::Ppa, SystemVariant::MemoryMode,
                            SystemVariant::ReplayCache}) {
        check::LitmusOptions opts;
        opts.variant = v;
        std::vector<check::LitmusResult> results;
        for (const std::string &n : names)
            results.push_back(
                check::runLitmusTest(*check::findLitmusTest(n), opts));
        checkGolden(std::string("litmus_") + variantToken(v) + ".json",
                    check::litmusResultsJson(results, opts));
    }
    // The auditor-biased randomized explorer, on a pressure test.
    check::LitmusOptions opts;
    opts.mode = check::ExploreMode::Randomized;
    opts.schedules = 24;
    opts.seed = 5;
    std::vector<check::LitmusResult> results = {check::runLitmusTest(
        *check::findLitmusTest("wpq-pressure"), opts)};
    checkGolden("litmus_ppa_randomized.json",
                check::litmusResultsJson(results, opts));
}

TEST(GoldenDocs, MemoryModeCampaignWithTraceReplay)
{
    fuzz::CampaignOptions opts;
    opts.variant = SystemVariant::MemoryMode;
    opts.programs = 8;
    opts.schedules = 6;
    opts.seed = 20260808;
    opts.maxFindings = 1;
    opts.traceDir = scratchDir("campaign_traces");
    opts.corpusDir = scratchDir("campaign_corpus");
    fuzz::CampaignResult res = fuzz::runCampaign(opts);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_TRUE(res.findings.front().replayConfirmed);
    std::string doc = fuzz::campaignJson(res, opts);
    doc = replaceAll(doc, opts.corpusDir, "<corpus-dir>");
    doc = replaceAll(doc, opts.traceDir, "<trace-dir>");
    checkGolden("campaign_memory_mode.json", doc);
}

/** @file End-to-end tests for the open-loop serving study. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/auditor.hh"
#include "serve/serve.hh"
#include "sim/run.hh"

using namespace ppa;
using namespace ppa::serve;

namespace
{

ServeConfig
smallConfig()
{
    ServeConfig cfg;
    cfg.workload = ServeWorkload::Tatp;
    cfg.requests = 240;
    cfg.threads = 2;
    cfg.keys = 256;
    cfg.skew = 0.9;
    cfg.arrival.meanGap = 64.0;
    cfg.failures = 4;
    cfg.seed = 11;
    return cfg;
}

void
checkCommonInvariants(const ServeConfig &cfg,
                      const ServeVariantStats &s)
{
    std::string tag = serveVariantToken(s.variant);
    EXPECT_EQ(s.requests, cfg.requests) << tag;
    EXPECT_EQ(s.completed, cfg.requests) << tag;
    EXPECT_GT(s.serviceCycles, 0u) << tag;
    EXPECT_GT(s.committedInsts, 0u) << tag;
    EXPECT_GT(s.committedStores, 0u) << tag;
    EXPECT_GT(s.achievedPerKcycle, 0.0) << tag;
    EXPECT_GT(s.offeredPerKcycle, 0.0) << tag;

    EXPECT_EQ(s.latency.count(), cfg.requests) << tag;
    std::uint64_t prev = 0;
    for (double f : {0.50, 0.95, 0.99, 0.999, 0.9999}) {
        std::uint64_t p = s.latency.percentile(f);
        EXPECT_GE(p, prev) << tag << " frac " << f;
        prev = p;
    }
    EXPECT_LE(prev, s.latency.max()) << tag;

    ASSERT_EQ(s.failures.size(), cfg.failures) << tag;
    Cycle prev_cycle = 0;
    for (const FailurePoint &fp : s.failures) {
        EXPECT_GT(fp.cycle, prev_cycle) << tag;
        prev_cycle = fp.cycle;
        EXPECT_GT(fp.recoveryCycles, 0u) << tag;
        EXPECT_EQ(fp.durableRequests + fp.lostRequests,
                  fp.completedRequests)
            << tag << " cycle " << fp.cycle;
        EXPECT_LE(fp.lossWindow, fp.cycle)
            << tag << " cycle " << fp.cycle;
        EXPECT_LE(fp.completedRequests, cfg.requests) << tag;
    }
    // The last crash point sits deep in the run: work completed.
    EXPECT_GT(s.failures.back().completedRequests, 0u) << tag;
}

/** Failure point @p k of the study: evenly spaced over the service
 *  timeline, rounded down to the view grid @p grid. */
Cycle
failurePoint(const ServeConfig &cfg, Cycle service_cycles, Cycle grid,
             unsigned k)
{
    Cycle even =
        std::max<Cycle>(service_cycles * k / (cfg.failures + 1), 1);
    return even / grid * grid;
}

/**
 * The failure study as one new run per point: run it to the point,
 * crash it (sim::Run::crashObserve) and score what recovery left.
 */
std::vector<FailurePoint>
freshBranches(const ServeConfig &cfg, ServeVariant variant,
              Cycle service_cycles, Cycle grid)
{
    std::vector<FailurePoint> out;
    for (unsigned k = 1; k <= cfg.failures; ++k) {
        Cycle crash = failurePoint(cfg, service_cycles, grid, k);
        ServeRun sr = makeServeRun(cfg, variant);
        sr.run->system().runUntilCycle(crash);
        std::vector<std::vector<Cycle>> acks;
        for (const std::vector<Cycle> *a : sr.acks)
            acks.push_back(*a);
        sim::Run::CrashView view = sr.run->crashObserve(sr.frontier);

        FailurePoint fp;
        fp.cycle = crash;
        for (unsigned t = 0; t < cfg.threads; ++t) {
            std::uint64_t completed = acks[t].size();
            std::uint64_t durable = std::min(view.words[t], completed);
            fp.completedRequests += completed;
            fp.durableRequests += durable;
            fp.lostRequests += completed - durable;
            if (durable < completed)
                fp.lossWindow =
                    std::max(fp.lossWindow, crash - acks[t][durable]);
        }
        fp.recoveryCycles =
            modelRecovery(cfg, variant, view.csq, fp.lostRequests);
        out.push_back(fp);
    }
    return out;
}

/** The cycle at which every core of a fresh run is done. */
Cycle
endCycle(const ServeConfig &cfg, ServeVariant variant)
{
    ServeRun sr = makeServeRun(cfg, variant);
    sr.run->system().runUntilCycle(neverCycle);
    return sr.run->system().cycle();
}

/** Compare the study's failure points with fresh branches; set
 *  @p min_grid to the smallest view grid over the variants. */
void
expectWalkMatchesFreshBranches(ServeConfig cfg, Cycle &min_grid)
{
    // One host thread per variant; the reference runs serially.
    cfg.workers = 3;
    ServeStats study = runServeStudy(cfg, allServeVariants());
    min_grid = neverCycle;
    for (const ServeVariantStats &s : study.variants) {
        std::string tag = std::string(serveVariantToken(s.variant)) +
                          " on " + std::to_string(cfg.threads) + " cores";
        const Cycle grid = s.failureGrid;
        min_grid = std::min(min_grid, grid);
        // A power of two, and coarse only where the run is long: it
        // doubled from grid / 2 at a stop past 16 (F + 1) grids.
        ASSERT_GT(grid, 0u) << tag;
        EXPECT_EQ(grid & (grid - 1), 0u) << tag;
        if (grid > 1) {
            EXPECT_LE(grid * 16 * (cfg.failures + 1),
                      endCycle(cfg, s.variant))
                << tag;
        }
        std::vector<FailurePoint> ref =
            freshBranches(cfg, s.variant, s.serviceCycles, grid);
        ASSERT_EQ(s.failures.size(), ref.size()) << tag;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const FailurePoint &a = s.failures[i];
            const FailurePoint &b = ref[i];
            // Rounding to the grid moves a point back by less than
            // one grid step.
            Cycle even = failurePoint(cfg, s.serviceCycles, 1, i + 1);
            EXPECT_LE(a.cycle, even) << tag << " point " << i;
            EXPECT_LT(even - a.cycle, grid) << tag << " point " << i;
            EXPECT_EQ(a.cycle, b.cycle) << tag << " point " << i;
            EXPECT_EQ(a.recoveryCycles, b.recoveryCycles)
                << tag << " point " << i;
            EXPECT_EQ(a.lossWindow, b.lossWindow) << tag << " point " << i;
            EXPECT_EQ(a.completedRequests, b.completedRequests)
                << tag << " point " << i;
            EXPECT_EQ(a.durableRequests, b.durableRequests)
                << tag << " point " << i;
            EXPECT_EQ(a.lostRequests, b.lostRequests)
                << tag << " point " << i;
        }
    }
}

/** @p stats with its failure study blanked: the document a study
 *  without failures would give. */
std::string
jsonWithoutFailures(ServeStats stats)
{
    stats.config.failures = 0;
    for (ServeVariantStats &v : stats.variants) {
        v.failures.clear();
        v.failureGrid = 0;
    }
    return serveToJson(stats);
}

} // namespace

TEST(Serve, FailureWalkMatchesFreshBranches)
{
    Cycle grid = 0;
    for (unsigned threads : {2u, 4u}) {
        ServeConfig cfg = smallConfig();
        cfg.threads = threads;
        cfg.failures = 16;
        expectWalkMatchesFreshBranches(cfg, grid);
    }

    // Long enough for the grid to double at least three times.
    ServeConfig longer = smallConfig();
    longer.requests = 600;
    longer.failures = 6;
    expectWalkMatchesFreshBranches(longer, grid);
    EXPECT_GE(grid, 8u);

    // failures + 1 > serviceCycles: points repeat, the grid stays 1
    // and the points are exactly serviceCycles * k / (F + 1).
    ServeConfig tiny = smallConfig();
    tiny.requests = 2;
    tiny.failures = 400;
    ServeVariantStats ppa = runServeVariant(tiny, ServeVariant::Ppa);
    ASSERT_LT(ppa.serviceCycles, tiny.failures + 1);
    EXPECT_EQ(ppa.failureGrid, 1u);
    ASSERT_EQ(ppa.failures.size(), tiny.failures);
    std::set<Cycle> distinct;
    for (unsigned k = 1; k <= tiny.failures; ++k) {
        const FailurePoint &fp = ppa.failures[k - 1];
        EXPECT_EQ(fp.cycle,
                  std::max<Cycle>(
                      ppa.serviceCycles * k / (tiny.failures + 1), 1));
        distinct.insert(fp.cycle);
    }
    ASSERT_LT(distinct.size(), ppa.failures.size());
    expectWalkMatchesFreshBranches(tiny, grid);
    EXPECT_EQ(grid, 1u);
}

TEST(Serve, FailureViewsNeverPerturbTheRun)
{
    // The views are read as the measuring run passes: latency,
    // counters and telemetry must be those of a run without them.
    ServeConfig cfg = smallConfig();
    cfg.telemetry = true;
    cfg.failures = 0;
    ServeStats plain = runServeStudy(cfg, allServeVariants());
    cfg.failures = 8;
    ServeStats viewed = runServeStudy(cfg, allServeVariants());
    for (const ServeVariantStats &v : viewed.variants)
        ASSERT_EQ(v.failures.size(), 8u);
    EXPECT_EQ(serveToJson(plain), jsonWithoutFailures(viewed));
}

TEST(Serve, AuditorsAndTelemetryShareCoresWithAckTrackers)
{
    // Per-core auditors sharing one oracle and telemetry join serve's
    // ack trackers in each core's sink list. The acks and the durable
    // frontier must be those of an unwatched run, and the auditors must
    // see the serving traffic and find it clean.
    ServeConfig cfg = smallConfig();
    ServeRun plain = makeServeRun(cfg, ServeVariant::Ppa);
    cfg.telemetry = true;
    ServeRun audited = makeServeRun(cfg, ServeVariant::Ppa);
    sim::Run &run = *audited.run;
    System &sys = run.system();
    auto oracle = std::make_shared<check::StoreOracle>();
    std::vector<check::Auditor *> auditors;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        auditors.push_back(&run.watch<check::Auditor>(
            t, sys.core(t), sys.memory(), oracle));
    }
    run.attachTelemetry();

    for (Cycle stop = 512; !plain.run->system().allDone(); stop += 512) {
        plain.run->system().runUntilCycle(stop);
        sys.runUntilCycle(stop);
        ASSERT_EQ(sys.cycle(), plain.run->system().cycle());
        sim::Run::CrashView a = plain.run->crashView(plain.frontier);
        sim::Run::CrashView b = run.crashView(audited.frontier);
        EXPECT_EQ(a.cut, b.cut) << "cycle " << stop;
        EXPECT_EQ(a.words, b.words) << "cycle " << stop;
        EXPECT_EQ(a.csq, b.csq) << "cycle " << stop;
    }
    EXPECT_TRUE(sys.allDone());

    std::size_t acked = 0;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        EXPECT_EQ(*plain.acks[t], *audited.acks[t]) << "core " << t;
        acked += audited.acks[t]->size();
    }
    EXPECT_EQ(acked, cfg.requests);
    for (const check::Auditor *aud : auditors) {
        EXPECT_GT(aud->eventCount(), 0u);
        EXPECT_GT(aud->regionsAudited(), 0u);
        EXPECT_EQ(aud->violationCount(), 0u)
            << (aud->violations().empty()
                    ? std::string()
                    : aud->violations().front().what);
    }
    EXPECT_GT(run.harvestTelemetry().coveredCycles, 0u);
}

TEST(Serve, VariantTokensRoundTrip)
{
    for (ServeVariant v : allServeVariants()) {
        ServeVariant parsed;
        ASSERT_TRUE(serveVariantFromToken(serveVariantToken(v), parsed));
        EXPECT_EQ(parsed, v);
    }
    ServeVariant v;
    EXPECT_FALSE(serveVariantFromToken("eadr", v));
    EXPECT_EQ(allServeVariants().size(), 3u);
}

TEST(Serve, PpaVariantCompletesWithNoInjectedInstructions)
{
    ServeConfig cfg = smallConfig();
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::Ppa);
    checkCommonInvariants(cfg, s);
    EXPECT_EQ(s.injectedClwbs, 0u);
    EXPECT_EQ(s.injectedFences, 0u);
    EXPECT_EQ(s.injectedLogStores, 0u);
    EXPECT_GT(s.nvmWrites, 0u);
}

TEST(Serve, UndoRedoLogInjectsLoggingTraffic)
{
    ServeConfig cfg = smallConfig();
    ServeVariantStats s =
        runServeVariant(cfg, ServeVariant::UndoRedoLog);
    checkCommonInvariants(cfg, s);
    // Every data store is shadowed (tatp: 2 per request) and every
    // commit adds a record clwb and two fences.
    EXPECT_EQ(s.injectedLogStores, cfg.requests * 2);
    EXPECT_EQ(s.injectedFences, cfg.requests * 2);
    EXPECT_EQ(s.injectedClwbs, cfg.requests * 3);
}

TEST(Serve, DelayFreeInjectsFlushOnlyTraffic)
{
    ServeConfig cfg = smallConfig();
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::DelayFree);
    checkCommonInvariants(cfg, s);
    EXPECT_EQ(s.injectedLogStores, 0u);
    EXPECT_EQ(s.injectedFences, cfg.requests);
    // clwb per data store plus one per publish.
    EXPECT_EQ(s.injectedClwbs, cfg.requests * 3);
}

TEST(Serve, SoftwareDurabilityCostsThroughput)
{
    // The study's headline: the same offered load costs the software
    // schemes more cycles per request than hardware persistence.
    ServeConfig cfg = smallConfig();
    cfg.failures = 0;
    ServeVariantStats ppa = runServeVariant(cfg, ServeVariant::Ppa);
    ServeVariantStats log =
        runServeVariant(cfg, ServeVariant::UndoRedoLog);
    EXPECT_GT(log.serviceCycles, ppa.serviceCycles);
}

TEST(Serve, StudyIsDeterministic)
{
    ServeConfig cfg = smallConfig();
    cfg.failures = 2;
    ServeStats a = runServeStudy(cfg, allServeVariants());
    ServeStats b = runServeStudy(cfg, allServeVariants());
    EXPECT_EQ(serveToJson(a), serveToJson(b));
}

TEST(Serve, WorkerCountNeverChangesResults)
{
    // The serial == parallel bitwise contract: variants are stored by
    // index, so the host pool size is invisible.
    ServeConfig serial = smallConfig();
    serial.workers = 1;
    ServeConfig wide = smallConfig();
    wide.workers = 8;
    ServeStats a = runServeStudy(serial, allServeVariants());
    ServeStats b = runServeStudy(wide, allServeVariants());
    // workers is scheduling metadata: not echoed into the JSON, and
    // the measured document is bitwise identical.
    EXPECT_EQ(serveToJson(a), serveToJson(b));
}

TEST(Serve, KvWorkloadServes)
{
    ServeConfig cfg = smallConfig();
    cfg.workload = ServeWorkload::Kv;
    cfg.readPct = 50;
    cfg.failures = 2;
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::Ppa);
    checkCommonInvariants(cfg, s);
}

TEST(Serve, JsonDocumentShape)
{
    ServeConfig cfg = smallConfig();
    cfg.failures = 2;
    ServeStats stats = runServeStudy(cfg, {ServeVariant::Ppa});
    std::string json = serveToJson(stats);
    // Schema-v2 document of kind "serve"; per-variant metrics under
    // stats.serve (docs/METRICS.md).
    EXPECT_NE(json.find("\"schemaVersion\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"serve\""), std::string::npos);
    EXPECT_NE(json.find("\"variants\": ["), std::string::npos);
    EXPECT_NE(json.find("\"serve\": {"), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
    EXPECT_NE(json.find("\"p9999\""), std::string::npos);
    EXPECT_NE(json.find("\"lossWindow\""), std::string::npos);
    EXPECT_NE(json.find("\"recovery\""), std::string::npos);
    // Scheduling metadata must not leak into the measured document.
    EXPECT_EQ(json.find("\"workers\""), std::string::npos);
    // No telemetry requested: the key is absent, not empty.
    EXPECT_EQ(json.find("\"telemetry\""), std::string::npos);
}

TEST(Serve, TelemetryCarriesRequestSpans)
{
    ServeConfig cfg = smallConfig();
    cfg.requests = 120;
    cfg.failures = 0;
    cfg.telemetry = true;
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::Ppa);
    ASSERT_FALSE(s.telemetry.requestSpans.empty());
    EXPECT_LE(s.telemetry.requestSpans.size(),
              static_cast<std::size_t>(obs::kRequestSpanCap));
    for (const obs::TelemetryRequestSpan &span :
         s.telemetry.requestSpans) {
        EXPECT_LT(span.core, cfg.threads);
        EXPECT_GE(span.start, span.arrival);
        EXPECT_GE(span.finish, span.start);
    }
}

#include "sim/run.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "baselines/replaycache.hh"
#include "check/auditor.hh"
#include "common/logging.hh"
#include "ppa/checkpoint_io.hh"
#include "workload/generator.hh"

namespace ppa
{
namespace sim
{

/** RunStats keeps at most this many audit messages. */
constexpr std::size_t maxAuditMessages = 16;

unsigned
hostWorkers(unsigned requested)
{
    if (requested)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
runIndexed(unsigned workers, std::size_t jobs,
           const std::function<void(std::size_t)> &fn)
{
    if (jobs == 0)
        return;
    workers = static_cast<unsigned>(
        std::min<std::size_t>(hostWorkers(workers), jobs));
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= jobs)
                    return;
                fn(i);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
}

trace::TraceSet
openTrace(const ExperimentKnobs &knobs, unsigned threads)
{
    trace::TraceSet set = trace::TraceSet::openOrDie(knobs.traceDir);
    const trace::TraceMeta &meta = set.metadata();
    if (meta.threads != threads) {
        fatal("trace '", knobs.traceDir, "' was recorded with ",
              meta.threads, " thread(s) but the run wants ", threads);
    }
    if (meta.instsPerThread != knobs.instsPerCore) {
        fatal("trace '", knobs.traceDir, "' holds ", meta.instsPerThread,
              " insts per thread but the run wants ", knobs.instsPerCore,
              " (pass matching --insts or re-record)");
    }
    return set;
}

void
noteTrace(const trace::TraceSet &traces, unsigned threads, RunStats &rs)
{
    rs.traceDir = traces.directory();
    rs.traceShards = static_cast<unsigned>(traces.allShards().size());
    for (unsigned t = 0; t < threads; ++t)
        rs.traceInsts += traces.threadInsts(t);
    rs.traceCrc = traces.combinedCrc();
}

std::unique_ptr<DynInstSource>
makeStream(const WorkloadProfile &profile, unsigned t,
           const ExperimentKnobs &knobs, const trace::TraceSet *traces)
{
    if (traces)
        return std::make_unique<trace::TraceReplaySource>(*traces, t);
    return std::make_unique<StreamGenerator>(profile, t, knobs.seed,
                                             knobs.instsPerCore);
}

Run::Run(SystemVariant variant, const ExperimentKnobs &run_knobs,
         unsigned num_threads)
    : variantId(variant), knobs(run_knobs), threads(num_threads),
      sc(makeSystemConfig(variant, run_knobs, num_threads)),
      sys(std::make_unique<System>(sc))
{}

Run::~Run() = default;

DynInstSource &
Run::addSource(std::unique_ptr<DynInstSource> source)
{
    PPA_ASSERT(stacks.size() < threads, "more sources than cores");
    DynInstSource &base = *source;
    stacks.push_back(Stack{{}, &base});
    stacks.back().owned.push_back(std::move(source));
    return base;
}

void
Run::addStreams(const WorkloadProfile &profile)
{
    if (!knobs.traceDir.empty()) {
        replayTrace(openTrace(knobs, threads));
        return;
    }
    for (unsigned t = 0; t < threads; ++t)
        addSource(makeStream(profile, t, knobs, nullptr));
}

void
Run::replayTrace(trace::TraceSet set)
{
    traces = std::move(set);
    for (unsigned t = 0; t < threads; ++t)
        addSource(std::make_unique<trace::TraceReplaySource>(traces, t));
}

void
Run::wrapReplayCache()
{
    if (variantId != SystemVariant::ReplayCache)
        return;
    for (unsigned t = 0; t < threads; ++t)
        stack<ReplayCacheTransform>(t, ReplayCacheParams{});
}

void
Run::bindSources()
{
    PPA_ASSERT(stacks.size() == threads, "every core needs a source");
    for (unsigned t = 0; t < threads; ++t)
        sys->bindSource(t, stacks[t].top);
}

void
Run::attachAuditors()
{
    if (!knobs.audit || sc.core.mode != PersistMode::Ppa)
        return;
    auto oracle = std::make_shared<check::StoreOracle>();
    for (unsigned t = 0; t < threads; ++t) {
        auditors.push_back(std::make_unique<check::Auditor>(
            sys->core(t), sys->memory(), oracle));
        auditors.back()->attach();
    }
}

void
Run::attachTelemetry()
{
    if (!knobs.telemetry)
        return;
    obs::TelemetryConfig tc;
    tc.sampleCycles = knobs.telemetrySampleCycles;
    tc.seriesCap = static_cast<std::size_t>(knobs.telemetrySeriesCap);
    telemetry = std::make_unique<obs::Telemetry>(tc, threads);
    for (unsigned t = 0; t < threads; ++t)
        telemetry->attach(sys->core(t), sys->memory());
}

void
Run::armFailures(std::vector<Cycle> at, Cycle base, RunStats &sink)
{
    PPA_ASSERT(at.empty() || sc.core.mode == PersistMode::Ppa,
               "power-failure injection requires the PPA variant");
    std::sort(at.begin(), at.end());
    failAt = std::move(at);
    nextFail = 0;
    failBase = base;
    failSink = &sink;
}

void
Run::step()
{
    if (nextFail < failAt.size() &&
        sys->cycle() - failBase >= failAt[nextFail]) {
        ++nextFail;
        auditedCrash(*failSink);
    }
    sys->tick();
}

Cycle
Run::warmup(std::uint64_t insts, Cycle cap, unsigned check_every)
{
    while (!sys->allDone() && sys->cycle() < cap &&
           sys->totalCommitted() < insts) {
        for (unsigned i = 0; i < check_every && !sys->allDone(); ++i)
            step();
    }
    return sys->cycle();
}

void
Run::finish(Cycle cap)
{
    while (nextFail < failAt.size() && !sys->allDone() &&
           sys->cycle() < cap)
        step();
    sys->run(cap);
}

std::vector<CheckpointImage>
Run::crash()
{
    std::vector<CheckpointImage> images = sys->powerFail();
    if (sc.core.mode == PersistMode::Ppa)
        sys->recover(images);
    return images;
}

void
Run::auditedCrash(RunStats &rs)
{
    std::vector<CheckpointImage> images = sys->powerFail();
    for (CheckpointImage &image : images)
        image = deserializeCheckpoint(serializeCheckpoint(image));
    sys->recover(images);
    ++rs.powerFailures;
    verifyReplay(rs);
}

Run::CrashView
Run::crashObserve(const std::vector<Addr> &observed)
{
    CrashView view;
    view.cut.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        view.cut.push_back(sys->core(t).committedStores());
    view.images = crash();
    view.words.reserve(observed.size());
    for (Addr a : observed)
        view.words.push_back(
            sys->memory().nvmImage().read(MemImage::wordAlign(a)));
    return view;
}

Counters
Run::counters()
{
    Counters c;
    c.committedInsts = sys->totalCommitted();
    c.freeInt = stats::Histogram(sc.core.intPrfEntries);
    c.freeFp = stats::Histogram(sc.core.fpPrfEntries);
    MemHierarchy &mem = sys->memory();
    for (unsigned k = 0; k < threads; ++k) {
        const Core &core = sys->core(k);
        c.committedStores += core.committedStores();
        const RegionStats &reg = core.regionStats();
        c.coreRegionCount.push_back(reg.regionCount());
        c.coreRegionStoreSum.push_back(
            reg.avgStoresPerRegion() *
            static_cast<double>(reg.regionCount()));
        c.coreRegionOtherSum.push_back(
            reg.avgOthersPerRegion() *
            static_cast<double>(reg.regionCount()));
        c.regionCount += reg.regionCount();
        c.boundaryStall += reg.stallCycles();
        c.renameStall += core.renameStallNoRegCycles();
        c.freeInt.merge(core.freeIntRegHistogram());
        c.freeFp.merge(core.freeFpRegHistogram());
        c.coalesced += mem.writeBuffer(k).coalescedStores();
        c.persist += mem.writeBuffer(k).persistOps();
    }
    c.nvmWrites = mem.nvm().writeCount();
    c.nvmReads = mem.nvm().readCount();
    c.nvmBytes = mem.nvm().bytesWritten();
    c.wpqStall = mem.nvm().wpqStallCycles();
    c.l2Hits = mem.l2().hits();
    c.l2Misses = mem.l2().misses();
    return c;
}

void
Run::fillStats(RunStats &rs, Cycle warm_cycle)
{
    Counters c = counters();
    rs.variant = variantId;
    rs.threads = threads;
    rs.totalCycles = sys->cycle();
    rs.cycles = sys->cycle() - warm_cycle;
    rs.committedInsts = c.committedInsts;
    rs.committedStores = c.committedStores;
    rs.regionCount = c.regionCount;
    // Stall counters accumulate per core but cycles count wall-clock:
    // normalize to per-core stalls.
    rs.boundaryStallCycles = c.boundaryStall / threads;
    rs.renameStallNoRegCycles = c.renameStall / threads;

    double region_stores = 0.0;
    double region_others = 0.0;
    unsigned cores_with_regions = 0;
    for (unsigned t = 0; t < threads; ++t) {
        const RegionStats &reg = sys->core(t).regionStats();
        if (reg.regionCount() > 0) {
            region_stores += reg.avgStoresPerRegion();
            region_others += reg.avgOthersPerRegion();
            ++cores_with_regions;
        }
    }
    if (cores_with_regions) {
        rs.avgRegionStores = region_stores / cores_with_regions;
        rs.avgRegionOthers = region_others / cores_with_regions;
    }
    rs.freeIntHist = std::move(c.freeInt);
    rs.freeFpHist = std::move(c.freeFp);
    rs.coalescedStores = c.coalesced;
    rs.persistOps = c.persist;
    rs.ipc = rs.totalCycles
                 ? static_cast<double>(rs.committedInsts) /
                       static_cast<double>(rs.totalCycles)
                 : 0.0;
    rs.nvmWrites = c.nvmWrites;
    rs.nvmReads = c.nvmReads;
    rs.nvmBytesWritten = c.nvmBytes;
    rs.wpqStallCycles = c.wpqStall;
    rs.l2MissRatio = sys->memory().l2MissRatio();

    if (!knobs.traceDir.empty())
        noteTrace(traces, threads, rs);
    rs.telemetry = harvestTelemetry();
    collectAudit(rs);
}

void
Run::verifyReplay(RunStats &rs) const
{
    for (const auto &auditor : auditors) {
        check::ReplayAuditResult replay = auditor->verifyReplay();
        ++rs.replayAudits;
        rs.replayMismatches += replay.mismatches;
        rs.replayAddrsChecked += replay.addrsChecked;
        if (!replay.ok() && rs.auditMessages.size() < maxAuditMessages) {
            rs.auditMessages.push_back(detail::composeMessage(
                auditor->context().describe(), ": replay diff found ",
                replay.mismatches, " mismatched addresses"));
        }
    }
}

void
Run::collectAudit(RunStats &rs) const
{
    for (const auto &auditor : auditors) {
        rs.auditEvents += auditor->eventCount();
        rs.auditViolations += auditor->violationCount();
        for (const check::AuditViolation &v : auditor->violations()) {
            if (rs.auditMessages.size() >= maxAuditMessages)
                break;
            rs.auditMessages.push_back(v.where.describe() + ": " + v.what);
        }
    }
}

obs::TelemetryResult
Run::harvestTelemetry()
{
    return telemetry ? telemetry->harvest() : obs::TelemetryResult{};
}

} // namespace sim
} // namespace ppa

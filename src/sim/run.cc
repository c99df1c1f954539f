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
        auditors.push_back(&watch<check::Auditor>(t, sys->core(t),
                                                  sys->memory(), oracle));
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
Run::step(Cycle until)
{
    if (nextFail < failAt.size() &&
        sys->cycle() - failBase >= failAt[nextFail]) {
        ++nextFail;
        auditedCrash(*failSink);
    }
    // At least one tick, then on to @p until or the next armed failure.
    if (nextFail < failAt.size())
        until = std::min(until, failBase + failAt[nextFail]);
    sys->runUntilCycle(std::max(until, sys->cycle() + 1));
}

Cycle
Run::warmup(std::uint64_t insts, Cycle cap, unsigned check_every)
{
    while (!sys->allDone() && sys->cycle() < cap &&
           sys->totalCommitted() < insts) {
        Cycle check = sys->cycle() + check_every;
        while (sys->cycle() < check && !sys->allDone())
            step(check);
    }
    return sys->cycle();
}

void
Run::finish(Cycle cap)
{
    while (nextFail < failAt.size() && !sys->allDone() &&
           sys->cycle() < cap)
        step(cap);
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
Run::crashView(const std::vector<Addr> &observed) const
{
    const bool ppa = sc.core.mode == PersistMode::Ppa;
    const MemImage &nvm = sys->memory().nvmImage();
    CrashView view;
    view.words.reserve(observed.size());
    for (Addr a : observed)
        view.words.push_back(nvm.read(MemImage::wordAlign(a)));
    view.cut.reserve(threads);
    view.csq.reserve(threads);
    // MemHierarchy::powerFail writes no NVM, and recovery's only NVM
    // writes are the CSQ replays, in System::recover's core order.
    for (unsigned t = 0; t < threads; ++t) {
        const Core &core = sys->core(t);
        view.cut.push_back(core.committedStores());
        view.csq.push_back(ppa ? core.csqRef().size() : 0);
        if (!ppa)
            continue;
        core.forEachReplayWrite([&](Addr addr, Word value) {
            for (std::size_t i = 0; i < observed.size(); ++i)
                if (MemImage::wordAlign(observed[i]) ==
                    MemImage::wordAlign(addr))
                    view.words[i] = value;
        });
    }
    return view;
}

Run::CrashView
Run::crashObserve(const std::vector<Addr> &observed)
{
    CrashView view = crashView(observed);
    std::vector<CheckpointImage> images = crash();
    for (std::size_t i = 0; i < observed.size(); ++i) {
        Word word =
            sys->memory().nvmImage().read(MemImage::wordAlign(observed[i]));
        PPA_ASSERT(word == view.words[i], "crash view read ",
                   view.words[i], " at ", observed[i],
                   " but recovery left ", word);
    }
    for (unsigned t = 0; t < threads; ++t)
        PPA_ASSERT(images[t].csq.size() == view.csq[t],
                   "crash view disagrees with core ", t,
                   "'s checkpointed CSQ");
    return view;
}

Counters::Counters(unsigned cores, std::size_t int_prf, std::size_t fp_prf)
    : coreRegionCount(cores, 0), coreRegionStoreSum(cores, 0.0),
      coreRegionOtherSum(cores, 0.0), freeInt(int_prf), freeFp(fp_prf)
{}

Counters &
Counters::operator+=(const Counters &o)
{
    PPA_ASSERT(coreRegionCount.size() == o.coreRegionCount.size(),
               "adding counters of different core counts");
    committedInsts += o.committedInsts;
    committedStores += o.committedStores;
    regionCount += o.regionCount;
    boundaryStall += o.boundaryStall;
    renameStall += o.renameStall;
    for (std::size_t t = 0; t < coreRegionCount.size(); ++t) {
        coreRegionCount[t] += o.coreRegionCount[t];
        coreRegionStoreSum[t] += o.coreRegionStoreSum[t];
        coreRegionOtherSum[t] += o.coreRegionOtherSum[t];
    }
    nvmWrites += o.nvmWrites;
    nvmReads += o.nvmReads;
    nvmBytes += o.nvmBytes;
    wpqStall += o.wpqStall;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    coalesced += o.coalesced;
    persist += o.persist;
    freeInt.merge(o.freeInt);
    freeFp.merge(o.freeFp);
    return *this;
}

Counters
operator-(Counters later, const Counters &earlier)
{
    PPA_ASSERT(later.coreRegionCount.size() == earlier.coreRegionCount.size(),
               "subtracting counters of different core counts");
    later.committedInsts -= earlier.committedInsts;
    later.committedStores -= earlier.committedStores;
    later.regionCount -= earlier.regionCount;
    later.boundaryStall -= earlier.boundaryStall;
    later.renameStall -= earlier.renameStall;
    for (std::size_t t = 0; t < later.coreRegionCount.size(); ++t) {
        later.coreRegionCount[t] -= earlier.coreRegionCount[t];
        later.coreRegionStoreSum[t] -= earlier.coreRegionStoreSum[t];
        later.coreRegionOtherSum[t] -= earlier.coreRegionOtherSum[t];
    }
    later.nvmWrites -= earlier.nvmWrites;
    later.nvmReads -= earlier.nvmReads;
    later.nvmBytes -= earlier.nvmBytes;
    later.wpqStall -= earlier.wpqStall;
    later.l2Hits -= earlier.l2Hits;
    later.l2Misses -= earlier.l2Misses;
    later.coalesced -= earlier.coalesced;
    later.persist -= earlier.persist;
    auto minus = [](const stats::Histogram &a, const stats::Histogram &b) {
        std::vector<std::uint64_t> bins = a.binCounts();
        const std::vector<std::uint64_t> &sub = b.binCounts();
        PPA_ASSERT(bins.size() == sub.size(),
                   "histogram size mismatch in counter delta");
        for (std::size_t i = 0; i < bins.size(); ++i) {
            PPA_ASSERT(bins[i] >= sub[i],
                       "histogram bin decreased between snapshots");
            bins[i] -= sub[i];
        }
        return stats::Histogram::fromBins(
            std::move(bins), a.overflowCount() - b.overflowCount());
    };
    later.freeInt = minus(later.freeInt, earlier.freeInt);
    later.freeFp = minus(later.freeFp, earlier.freeFp);
    return later;
}

void
Counters::fill(RunStats &rs, Cycle total_cycles) const
{
    const auto cores = static_cast<unsigned>(coreRegionCount.size());
    rs.committedInsts = committedInsts;
    rs.committedStores = committedStores;
    rs.regionCount = regionCount;
    // Stall counters accumulate per core but cycles count wall-clock:
    // normalize to per-core stalls.
    rs.boundaryStallCycles = boundaryStall / cores;
    rs.renameStallNoRegCycles = renameStall / cores;

    double region_stores = 0.0;
    double region_others = 0.0;
    unsigned cores_with_regions = 0;
    for (unsigned t = 0; t < cores; ++t) {
        if (coreRegionCount[t] > 0) {
            auto n = static_cast<double>(coreRegionCount[t]);
            region_stores += coreRegionStoreSum[t] / n;
            region_others += coreRegionOtherSum[t] / n;
            ++cores_with_regions;
        }
    }
    if (cores_with_regions) {
        rs.avgRegionStores = region_stores / cores_with_regions;
        rs.avgRegionOthers = region_others / cores_with_regions;
    }

    rs.nvmWrites = nvmWrites;
    rs.nvmReads = nvmReads;
    rs.nvmBytesWritten = nvmBytes;
    rs.wpqStallCycles = wpqStall;
    std::uint64_t l2_accesses = l2Hits + l2Misses;
    rs.l2MissRatio = l2_accesses ? static_cast<double>(l2Misses) /
                                       static_cast<double>(l2_accesses)
                                 : 0.0;
    rs.coalescedStores = coalesced;
    rs.persistOps = persist;
    rs.freeIntHist = freeInt;
    rs.freeFpHist = freeFp;
    rs.ipc = total_cycles ? static_cast<double>(committedInsts) /
                                static_cast<double>(total_cycles)
                          : 0.0;
}

Counters
Run::counters()
{
    Counters c(threads, sc.core.intPrfEntries, sc.core.fpPrfEntries);
    c.committedInsts = sys->totalCommitted();
    MemHierarchy &mem = sys->memory();
    for (unsigned k = 0; k < threads; ++k) {
        const Core &core = sys->core(k);
        c.committedStores += core.committedStores();
        const RegionStats &reg = core.regionStats();
        c.coreRegionCount[k] = reg.regionCount();
        c.coreRegionStoreSum[k] = reg.regionStoreSum();
        c.coreRegionOtherSum[k] = reg.regionOtherSum();
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
    rs.variant = variantId;
    rs.threads = threads;
    rs.totalCycles = sys->cycle();
    rs.cycles = sys->cycle() - warm_cycle;
    counters().fill(rs, rs.totalCycles);

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

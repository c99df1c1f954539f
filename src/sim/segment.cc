#include "sim/segment.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "sim/run.hh"

namespace ppa
{

namespace
{

/** Per-bin difference of two snapshots of the same histogram. */
stats::Histogram
histDelta(const stats::Histogram &end, const stats::Histogram &warm)
{
    std::vector<std::uint64_t> bins = end.binCounts();
    const std::vector<std::uint64_t> &wb = warm.binCounts();
    PPA_ASSERT(bins.size() == wb.size(),
               "histogram size mismatch in segment delta");
    for (std::size_t i = 0; i < bins.size(); ++i) {
        PPA_ASSERT(bins[i] >= wb[i],
                   "histogram bin decreased across a segment");
        bins[i] -= wb[i];
    }
    return stats::Histogram::fromBins(
        std::move(bins), end.overflowCount() - warm.overflowCount());
}

/** Everything one segment's simulation produces. */
struct SegmentOutcome
{
    sim::Counters warm;
    sim::Counters end;
    Cycle warmEndCycle = 0;
    Cycle endCycle = 0;
    /** Failure, replay and audit counters and messages. Audit
     *  coverage spans the whole segment, warmup included: the warmup
     *  prefix is extra simulated work and the auditor checks it too —
     *  audit counters are correctness instrumentation, not timing. */
    RunStats audit;
    /** Measured-window telemetry (attached after the warmup prefix);
     *  the stitcher rebases and concatenates it. */
    obs::TelemetryResult telemetry;
};

SegmentOutcome
runSegment(const WorkloadProfile &profile, SystemVariant variant,
           const ExperimentKnobs &knobs, unsigned threads,
           const SegmentPlan::Segment &seg,
           const trace::TraceSet *traceSet)
{
    // Each segment gets its own auditors and oracle because its
    // System is its own machine.
    sim::Run run(variant, knobs, threads);
    run.attachAuditors();

    // Each source is positioned at the warmup start and bounded at the
    // segment end; recovery seeks (backward) pass through the window
    // to the underlying source.
    for (unsigned t = 0; t < threads; ++t) {
        DynInstSource &src =
            run.addSource(sim::makeStream(profile, t, knobs, traceSet));
        src.seekTo(seg.warmupBegin);
        run.stack<WindowedSource>(t, seg.end);
    }
    run.bindSources();

    // Runaway envelope, mirroring the classic runner's insts * 400.
    Cycle cap = std::max<Cycle>((seg.end - seg.warmupBegin) * 400, 400);

    // Re-converge microarchitectural state over the warmup prefix,
    // then snapshot every counter so warmup work can be subtracted.
    SegmentOutcome out;
    out.warmEndCycle = run.warmup((seg.begin - seg.warmupBegin) * threads,
                                  cap, 1);
    out.warm = run.counters();

    // Telemetry covers only the measured window: attach after the
    // discarded warmup prefix so stitched series line up with the
    // stitched cycle axis.
    run.attachTelemetry();

    // Segment-relative failure schedule: cycle 0 fires before the
    // first measured tick, i.e. exactly at the segment join.
    run.armFailures(seg.failAt, out.warmEndCycle, out.audit);
    run.finish(cap);
    out.endCycle = run.system().cycle();
    out.end = run.counters();
    out.telemetry = run.harvestTelemetry();
    run.collectAudit(out.audit);
    return out;
}

} // namespace

SegmentPlan
planSegments(const ExperimentKnobs &knobs)
{
    PPA_ASSERT(knobs.timeParallel >= 2,
               "planSegments requires timeParallel >= 2");
    PPA_ASSERT(knobs.instsPerCore > 0,
               "time-parallel run needs instsPerCore > 0");
    std::uint64_t insts = knobs.instsPerCore;
    // More segments than instructions would leave empty measured
    // windows; clamp so every segment measures at least one.
    std::uint64_t k = std::min<std::uint64_t>(knobs.timeParallel, insts);
    unsigned stride = std::max(1u, knobs.tpSampleStride);

    SegmentPlan plan;
    plan.warmupInsts = knobs.tpWarmupInsts;
    plan.sampleStride = stride;
    std::uint64_t base = insts / k;
    std::uint64_t rem = insts % k;
    std::uint64_t begin = 0;
    for (std::uint64_t s = 0; s < k; ++s) {
        SegmentPlan::Segment seg;
        seg.begin = begin;
        seg.end = begin + base + (s < rem ? 1 : 0);
        seg.warmupBegin = seg.begin > knobs.tpWarmupInsts
                              ? seg.begin - knobs.tpWarmupInsts
                              : 0;
        seg.simulated = (s % stride) == 0;
        plan.segments.push_back(seg);
        begin = seg.end;
    }
    for (const ExperimentKnobs::SegmentFailure &f : knobs.tpFailAt) {
        if (f.segment >= plan.segments.size()) {
            fatal("tpFailAt names segment ", f.segment,
                  " but the plan has only ", plan.segments.size(),
                  " segment(s)");
        }
        if (!plan.segments[f.segment].simulated) {
            fatal("tpFailAt names segment ", f.segment,
                  ", which sampling stride ", stride, " skips");
        }
        plan.segments[f.segment].failAt.push_back(f.cycle);
    }
    for (SegmentPlan::Segment &seg : plan.segments)
        std::sort(seg.failAt.begin(), seg.failAt.end());
    return plan;
}

RunStats
runWorkloadTimeParallel(const WorkloadProfile &profile,
                        SystemVariant variant,
                        const ExperimentKnobs &knobs)
{
    PPA_ASSERT(knobs.timeParallel >= 2,
               "runWorkloadTimeParallel requires timeParallel >= 2");
    PPA_ASSERT(knobs.failAtCycles.empty(),
               "failAtCycles is undefined under --time-parallel: "
               "absolute stitched cycles are not known up front; "
               "use tpFailAt (segment, cycle) pairs");
    if (variant == SystemVariant::ReplayCache) {
        fatal("--time-parallel does not support the replaycache "
              "variant: its stream transform inserts instructions, so "
              "segment boundaries no longer align with committed "
              "indices");
    }
    unsigned threads = knobs.threads ? knobs.threads
                                     : profile.defaultThreads;
    SegmentPlan plan = planSegments(knobs);

    RunStats rs;
    trace::TraceSet traces;
    const trace::TraceSet *traceSet = nullptr;
    if (!knobs.traceDir.empty()) {
        traces = sim::openTrace(knobs, threads);
        traceSet = &traces;
        sim::noteTrace(traces, threads, rs);
    }

    std::vector<unsigned> simIdx;
    for (unsigned s = 0; s < plan.segments.size(); ++s) {
        if (plan.segments[s].simulated)
            simIdx.push_back(s);
    }

    // Segment fan-out on the shared pool: results land in slots
    // indexed by segment, so scheduling order is invisible — the
    // time-parallel determinism contract.
    std::vector<SegmentOutcome> outcomes(plan.segments.size());
    sim::runIndexed(knobs.tpWorkers, simIdx.size(), [&](std::size_t i) {
        unsigned s = simIdx[i];
        outcomes[s] = runSegment(profile, variant, knobs, threads,
                                 plan.segments[s], traceSet);
    });

    // ---- Stitch: sum measured-window deltas in segment order. -------
    rs.workload = profile.name;
    rs.variant = variant;
    rs.threads = threads;
    rs.tpSegments = static_cast<unsigned>(plan.segments.size());
    rs.tpSimulatedSegments = static_cast<unsigned>(simIdx.size());
    rs.tpWarmupInsts = knobs.tpWarmupInsts;
    rs.tpSampleStride = plan.sampleStride;

    rs.freeIntHist = stats::Histogram(knobs.intPrf);
    rs.freeFpHist = stats::Histogram(knobs.fpPrf);

    std::vector<double> segCpi;
    std::vector<double> storeSum(threads, 0.0);
    std::vector<double> otherSum(threads, 0.0);
    std::vector<std::uint64_t> regCount(threads, 0);
    std::uint64_t l2h = 0;
    std::uint64_t l2m = 0;
    for (unsigned s : simIdx) {
        const SegmentOutcome &o = outcomes[s];
        Cycle seg_cycles = o.endCycle - o.warmEndCycle;
        // Telemetry cycles are segment-relative; rebase them onto the
        // stitched timeline at the cycles accumulated so far.
        appendTelemetry(rs.telemetry, o.telemetry, rs.cycles);
        rs.cycles += seg_cycles;
        rs.tpWarmupCycles += o.warmEndCycle;
        std::uint64_t seg_insts =
            o.end.committedInsts - o.warm.committedInsts;
        rs.committedInsts += seg_insts;
        if (seg_insts) {
            segCpi.push_back(static_cast<double>(seg_cycles) /
                             static_cast<double>(seg_insts));
        }
        rs.committedStores +=
            o.end.committedStores - o.warm.committedStores;
        rs.regionCount += o.end.regionCount - o.warm.regionCount;
        rs.boundaryStallCycles +=
            o.end.boundaryStall - o.warm.boundaryStall;
        rs.renameStallNoRegCycles +=
            o.end.renameStall - o.warm.renameStall;
        for (unsigned t = 0; t < threads; ++t) {
            regCount[t] +=
                o.end.coreRegionCount[t] - o.warm.coreRegionCount[t];
            storeSum[t] += o.end.coreRegionStoreSum[t] -
                           o.warm.coreRegionStoreSum[t];
            otherSum[t] += o.end.coreRegionOtherSum[t] -
                           o.warm.coreRegionOtherSum[t];
        }
        rs.nvmWrites += o.end.nvmWrites - o.warm.nvmWrites;
        rs.nvmReads += o.end.nvmReads - o.warm.nvmReads;
        rs.nvmBytesWritten += o.end.nvmBytes - o.warm.nvmBytes;
        rs.wpqStallCycles += o.end.wpqStall - o.warm.wpqStall;
        l2h += o.end.l2Hits - o.warm.l2Hits;
        l2m += o.end.l2Misses - o.warm.l2Misses;
        rs.coalescedStores += o.end.coalesced - o.warm.coalesced;
        rs.persistOps += o.end.persist - o.warm.persist;
        rs.freeIntHist.merge(histDelta(o.end.freeInt, o.warm.freeInt));
        rs.freeFpHist.merge(histDelta(o.end.freeFp, o.warm.freeFp));
        rs.auditEvents += o.audit.auditEvents;
        rs.auditViolations += o.audit.auditViolations;
        rs.powerFailures += o.audit.powerFailures;
        rs.replayAudits += o.audit.replayAudits;
        rs.replayMismatches += o.audit.replayMismatches;
        rs.replayAddrsChecked += o.audit.replayAddrsChecked;
        for (const std::string &m : o.audit.auditMessages)
            if (rs.auditMessages.size() < 16)
                rs.auditMessages.push_back(m);
    }
    // Drain-boundary semantics: every stitched cycle is post-warmup
    // (per-segment warmup is discarded overlap work, reported via
    // tpWarmupCycles), so the measured window IS the whole run.
    rs.totalCycles = rs.cycles;

    double region_stores = 0.0;
    double region_others = 0.0;
    unsigned cores_with_regions = 0;
    for (unsigned t = 0; t < threads; ++t) {
        if (regCount[t] > 0) {
            region_stores +=
                storeSum[t] / static_cast<double>(regCount[t]);
            region_others +=
                otherSum[t] / static_cast<double>(regCount[t]);
            ++cores_with_regions;
        }
    }
    if (cores_with_regions) {
        rs.avgRegionStores = region_stores / cores_with_regions;
        rs.avgRegionOthers = region_others / cores_with_regions;
    }
    // Per-core stall counters vs wall-clock cycles, as in the classic
    // runner: normalize to per-core stalls.
    rs.boundaryStallCycles /= threads;
    rs.renameStallNoRegCycles /= threads;

    rs.l2MissRatio = (l2h + l2m)
                         ? static_cast<double>(l2m) /
                               static_cast<double>(l2h + l2m)
                         : 0.0;

    if (plan.sampleStride > 1) {
        // SimPoint-style extrapolation: scale additive counters by
        // planned-instructions / simulated-planned-instructions.
        // Ratios and histograms stay as measured; audit and failure
        // counters are facts about what actually ran, never scaled.
        std::uint64_t planned = 0;
        std::uint64_t sim_planned = 0;
        for (const SegmentPlan::Segment &seg : plan.segments) {
            std::uint64_t window = (seg.end - seg.begin) * threads;
            planned += window;
            if (seg.simulated)
                sim_planned += window;
        }
        double scale = sim_planned
                           ? static_cast<double>(planned) /
                                 static_cast<double>(sim_planned)
                           : 1.0;
        auto scaled = [scale](std::uint64_t v) {
            return static_cast<std::uint64_t>(
                std::llround(static_cast<double>(v) * scale));
        };
        rs.cycles = scaled(rs.cycles);
        rs.totalCycles = rs.cycles;
        rs.committedInsts = scaled(rs.committedInsts);
        rs.committedStores = scaled(rs.committedStores);
        rs.regionCount = scaled(rs.regionCount);
        rs.boundaryStallCycles = scaled(rs.boundaryStallCycles);
        rs.renameStallNoRegCycles = scaled(rs.renameStallNoRegCycles);
        rs.nvmWrites = scaled(rs.nvmWrites);
        rs.nvmReads = scaled(rs.nvmReads);
        rs.nvmBytesWritten = scaled(rs.nvmBytesWritten);
        rs.wpqStallCycles = scaled(rs.wpqStallCycles);
        rs.coalescedStores = scaled(rs.coalescedStores);
        rs.persistOps = scaled(rs.persistOps);

        // Confidence: relative standard error of per-segment CPI
        // across the simulated subset.
        if (segCpi.size() >= 2) {
            double mean = 0.0;
            for (double v : segCpi)
                mean += v;
            mean /= static_cast<double>(segCpi.size());
            double var = 0.0;
            for (double v : segCpi)
                var += (v - mean) * (v - mean);
            var /= static_cast<double>(segCpi.size() - 1);
            if (mean > 0.0) {
                rs.tpCpiRelStderr =
                    std::sqrt(var /
                              static_cast<double>(segCpi.size())) /
                    mean;
            }
        }
    }

    rs.ipc = rs.totalCycles
                 ? static_cast<double>(rs.committedInsts) /
                       static_cast<double>(rs.totalCycles)
                 : 0.0;
    return rs;
}

std::vector<StatDelta>
statDeltas(const RunStats &serial, const RunStats &segmented)
{
    // Whole-run counters only: the classic runner's `cycles` excludes
    // its warmupFraction window while a segmented run measures the
    // whole stream, so totalCycles (whole run in both) is the
    // comparable time axis.
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"totalCycles", u(serial.totalCycles), u(segmented.totalCycles)},
        {"ipc", serial.ipc, segmented.ipc},
        {"committedInsts", u(serial.committedInsts),
         u(segmented.committedInsts)},
        {"committedStores", u(serial.committedStores),
         u(segmented.committedStores)},
        {"avgRegionStores", serial.avgRegionStores,
         segmented.avgRegionStores},
        {"avgRegionOthers", serial.avgRegionOthers,
         segmented.avgRegionOthers},
        {"regionCount", u(serial.regionCount), u(segmented.regionCount)},
        {"boundaryStallCycles", u(serial.boundaryStallCycles),
         u(segmented.boundaryStallCycles)},
        {"renameStallNoRegCycles", u(serial.renameStallNoRegCycles),
         u(segmented.renameStallNoRegCycles)},
        {"nvmWrites", u(serial.nvmWrites), u(segmented.nvmWrites)},
        {"nvmReads", u(serial.nvmReads), u(segmented.nvmReads)},
        {"nvmBytesWritten", u(serial.nvmBytesWritten),
         u(segmented.nvmBytesWritten)},
        {"wpqStallCycles", u(serial.wpqStallCycles),
         u(segmented.wpqStallCycles)},
        {"l2MissRatio", serial.l2MissRatio, segmented.l2MissRatio},
        {"coalescedStores", u(serial.coalescedStores),
         u(segmented.coalescedStores)},
        {"persistOps", u(serial.persistOps), u(segmented.persistOps)},
    };
}

} // namespace ppa

#include "sim/segment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/run.hh"

namespace ppa
{

namespace
{

/** Everything one segment's simulation produces. */
struct SegmentOutcome
{
    /** Counters of the measured window: end minus warmup snapshot. */
    sim::Counters measured;
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
    sim::Counters warm = run.counters();

    // Telemetry covers only the measured window: attach after the
    // discarded warmup prefix so stitched series line up with the
    // stitched cycle axis.
    run.attachTelemetry();

    // Segment-relative failure schedule: cycle 0 fires before the
    // first measured tick, i.e. exactly at the segment join.
    run.armFailures(seg.failAt, out.warmEndCycle, out.audit);
    run.finish(cap);
    out.endCycle = run.system().cycle();
    out.measured = run.counters() - warm;
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

    SegmentPlan plan;
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
        plan.segments.push_back(seg);
        begin = seg.end;
    }
    for (const ExperimentKnobs::SegmentFailure &f : knobs.tpFailAt) {
        if (f.segment >= plan.segments.size()) {
            fatal("tpFailAt names segment ", f.segment,
                  " but the plan has only ", plan.segments.size(),
                  " segment(s)");
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

    // Segment fan-out on the shared pool: results land in slots
    // indexed by segment, so scheduling order is invisible — the
    // time-parallel determinism contract.
    std::vector<SegmentOutcome> outcomes(plan.segments.size());
    sim::runIndexed(knobs.tpWorkers, outcomes.size(), [&](std::size_t s) {
        outcomes[s] = runSegment(profile, variant, knobs, threads,
                                 plan.segments[s], traceSet);
    });

    // ---- Stitch: sum measured windows in segment order. -------------
    rs.workload = profile.name;
    rs.variant = variant;
    rs.threads = threads;
    rs.tpSegments = static_cast<unsigned>(plan.segments.size());
    rs.tpWarmupInsts = knobs.tpWarmupInsts;

    sim::Counters measured(threads, knobs.intPrf, knobs.fpPrf);
    for (const SegmentOutcome &o : outcomes) {
        // Telemetry cycles are segment-relative; rebase them onto the
        // stitched timeline at the cycles accumulated so far.
        appendTelemetry(rs.telemetry, o.telemetry, rs.cycles);
        rs.cycles += o.endCycle - o.warmEndCycle;
        rs.tpWarmupCycles += o.warmEndCycle;
        measured += o.measured;
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
    measured.fill(rs, rs.totalCycles);
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

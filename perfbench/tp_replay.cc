/**
 * @file
 * `tp-replay`: set-up records one long single-thread gcc trace from the
 * seed; the timed body replays it through runWorkload() serially and
 * then through runWorkloadTimeParallel() (8 segments, fixed warmup,
 * the workers as tpWorkers). The only workload that runs
 * TraceReplaySource decode/seek and the segment planner/stitcher.
 */

#include <cmath>

#include "bench.hh"
#include "common/rng.hh"
#include "sim/segment.hh"
#include "trace/capture.hh"
#include "trace/reader.hh"

namespace perfbench
{
namespace
{

using namespace ppa;

class TpReplay : public Workload
{
  public:
    explicit TpReplay(const Config &c) : cfg(c) {}

    void
    setup(Tracer *tracer) override
    {
        dir = cfg.scratch + "/tp-trace";
        trace::CaptureSpec spec;
        spec.seed = cfg.seed;
        spec.threads = 1;
        spec.instsPerThread = cfg.tiny ? 40'000 : 2'000'000;
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(tracer, "trace.record");
            trace::recordWorkloadTrace(dir, profileByName("gcc"), spec);
        }
        recordS.push_back(secondsSince(t0));

        serialKnobs = ExperimentKnobs{};
        serialKnobs.threads = 1;
        serialKnobs.instsPerCore = spec.instsPerThread;
        serialKnobs.seed = cfg.seed;
        serialKnobs.traceDir = dir;
        tpKnobs = serialKnobs;
        tpKnobs.timeParallel = cfg.tiny ? 4 : 8;
        tpKnobs.tpWarmupInsts = cfg.tiny ? 2'000 : 20'000;
        tpKnobs.tpWorkers = cfg.workers;
    }

    Iteration
    iterate(Tracer *tracer) override
    {
        const WorkloadProfile &gcc = profileByName("gcc");
        ExperimentKnobs serialRun = serialKnobs;
        serialRun.telemetry = tracer != nullptr;
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(tracer, "sim.serial_replay");
            serial = runWorkload(gcc, SystemVariant::Ppa, serialRun);
        }
        std::int64_t t1 = nowNs();
        {
            ScopedSpan span(tracer, "segment.time_parallel");
            stitched = runWorkloadTimeParallel(gcc, SystemVariant::Ppa,
                                               tpKnobs);
        }
        double tpS = secondsSince(t1);
        double serialS = static_cast<double>(t1 - t0) * 1e-9;
        if (!tracer)
            speedups.push_back(serialS / tpS);

        Iteration it;
        it.kiloInsts = static_cast<double>(tpKnobs.instsPerCore) / 1e3;
        it.kipsSeconds = tpS;
        auto &s = it.sim;
        s["sim.cycles"] = static_cast<double>(serial.totalCycles +
                                              stitched.totalCycles +
                                              stitched.tpWarmupCycles);
        s["sim.insts"] = static_cast<double>(serial.committedInsts +
                                             stitched.committedInsts);
        s["mem.nvm_writes"] =
            static_cast<double>(serial.nvmWrites + stitched.nvmWrites);
        s["ppa.regions"] =
            static_cast<double>(serial.regionCount + stitched.regionCount);
        double diff = std::fabs(static_cast<double>(stitched.totalCycles) -
                                static_cast<double>(serial.totalCycles));
        s["tp_error_pct"] =
            diff / static_cast<double>(serial.totalCycles) * 100.0;
        s["segment.warmup_cycle_share"] =
            static_cast<double>(stitched.tpWarmupCycles) /
            static_cast<double>(stitched.tpWarmupCycles +
                                stitched.totalCycles);
        if (tracer)
            addStallCycles(serial.telemetry, s);
        return it;
    }

    void
    check(Results &out) override
    {
        if (!traceVerified) {
            out.check(trace::verifyTrace(dir).ok,
                      "verifyTrace passes on " + dir);
            traceVerified = true;
        }
        out.check(serial.committedInsts == serialKnobs.instsPerCore,
                  "serial replay committed " +
                      std::to_string(serial.committedInsts));
        // Known discrepancy of the segment runner (README.md): a
        // segment's warmup ends on the first cycle that reaches the
        // warmup count, so up to commitWidth - 1 measured instructions
        // per joined segment are booked as warmup and dropped from the
        // stitched count. Anything beyond that, or a surplus, fails.
        const std::uint64_t slack =
            (tpKnobs.timeParallel - 1) *
            (makeSystemConfig(SystemVariant::Ppa, tpKnobs, 1)
                 .core.commitWidth -
             1);
        out.check(stitched.committedInsts <= serial.committedInsts &&
                      serial.committedInsts - stitched.committedInsts <=
                          slack,
                  "stitched run committed " +
                      std::to_string(stitched.committedInsts) +
                      ", serial " + std::to_string(serial.committedInsts));
    }

    void
    hostMetrics(Results &out) override
    {
        out.set("tp_speedup", median(speedups));
        out.set("trace.record_s", median(recordS));
    }

    void
    probe(Tracer &tracer, Results &out) override
    {
        trace::TraceSet set = trace::TraceSet::openOrDie(dir);
        const std::uint64_t insts = set.threadInsts(0);
        DynInst d;
        {
            trace::TraceReplaySource src(set, 0);
            std::int64_t t0 = nowNs();
            {
                ScopedSpan span(&tracer, "trace.next");
                while (src.next(d)) {
                }
            }
            out.set("trace.next_ns", static_cast<double>(nowNs() - t0) /
                                         static_cast<double>(insts));
        }
        {
            // Backward and forward seeks, each followed by the first
            // read at the new position.
            trace::TraceReplaySource src(set, 0);
            Rng rng(cfg.seed);
            const unsigned seeks = 64;
            std::int64_t t0 = nowNs();
            for (unsigned i = 0; i < seeks; ++i) {
                ScopedSpan span(&tracer, "trace.seek", i);
                src.seekTo(rng.below(insts));
                src.next(d);
            }
            out.set("trace.seek_us", static_cast<double>(nowNs() - t0) *
                                         1e-3 / seeks);
        }

        ExperimentKnobs knobs = serialKnobs;
        System system(makeSystemConfig(SystemVariant::Ppa, knobs, 1));
        trace::TraceReplaySource src(set, 0);
        system.bindSource(0, &src);
        TickCost cost;
        {
            ScopedSpan span(&tracer, "sim.tick_probe");
            cost = tickProbe(system, cfg.tiny ? 5'000 : 100'000);
        }
        out.set("core.tick_ns", cost.coreNsPerCoreCycle);
        out.set("mem.tick_ns", cost.memNsPerCycle);
    }

    /** Workers plus the replay sources' decode threads. */
    unsigned hostThreads() const override { return 2 * cfg.workers; }

  private:
    Config cfg;
    std::string dir;
    std::vector<double> recordS;
    bool traceVerified = false;
    ExperimentKnobs serialKnobs, tpKnobs;
    RunStats serial, stitched;
    std::vector<double> speedups;
};

} // namespace

std::unique_ptr<Workload>
makeTpReplay(const Config &cfg)
{
    return std::make_unique<TpReplay>(cfg);
}

} // namespace perfbench

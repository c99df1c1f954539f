/**
 * @file
 * `serve-crash`: one runServeStudy() of tatp on 2 simulated cores with
 * all three serve variants, Poisson arrivals at the default gap, Zipf
 * theta 0.99 and 8 injected failure points per variant. RequestSource
 * and the baselines' durability transforms replace the generator, the
 * 2-core persist path is shared, and every failure branch re-simulates
 * its prefix from cycle 0.
 */

#include "baselines/durability.hh"
#include "bench.hh"
#include "serve/request_source.hh"
#include "serve/serve.hh"
#include "sim/experiment.hh"

namespace perfbench
{
namespace
{

using namespace ppa;
using namespace ppa::serve;

/** Forwards to another source, counting next() calls. */
class CountingSource : public DynInstSource
{
  public:
    explicit CountingSource(DynInstSource &inner_source)
        : inner(inner_source)
    {}

    bool
    next(DynInst &out) override
    {
        ++calls;
        return inner.next(out);
    }

    void seekTo(std::uint64_t index) override { inner.seekTo(index); }

    std::uint64_t calls = 0;

  private:
    DynInstSource &inner;
};

/**
 * A tatp request stream for thread @p t of the probes, laid out like
 * the serving study's (private data region, ack word per thread).
 */
RequestStreamConfig
probeStream(const ServeConfig &sc, unsigned t)
{
    RequestStreamConfig rc;
    rc.workload = sc.workload;
    rc.requests = ~std::uint64_t{0}; // unbounded: probes stop themselves
    rc.keys = sc.keys;
    rc.skew = sc.skew;
    rc.seed = sc.seed * 7919 + t;
    rc.dataBase = 0x1000'0000 + Addr{t} * 0x100'0000;
    rc.ackAddr = 0x0800'0000 + Addr{t} * 64;
    rc.scratchAddr = 0x0804'0000 + Addr{t} * 64;
    return rc;
}

DurabilityParams
probeDurability(unsigned t)
{
    DurabilityParams dp;
    dp.publishAddr = 0x0800'0000 + Addr{t} * 64;
    dp.commitAddr = 0x0808'0000 + Addr{t} * 64;
    dp.logBase = 0x0900'0000 + Addr{t} * 0x1'0000;
    return dp;
}

class ServeCrash : public Workload
{
  public:
    explicit ServeCrash(const Config &c) : cfg(c) {}

    void
    setup(Tracer *) override
    {
        study = ServeConfig{};
        study.workload = ServeWorkload::Tatp;
        study.requests = cfg.tiny ? 400 : 4'000;
        study.threads = 2;
        study.skew = 0.99;
        study.failures = cfg.tiny ? 2 : 8;
        study.seed = cfg.seed;
        study.workers = cfg.workers;
        // Warm-up: one short failure-free ppa variant.
        ServeConfig warm = study;
        warm.requests = 1'000;
        warm.failures = 0;
        runServeVariant(warm, ServeVariant::Ppa);
    }

    Iteration
    iterate(Tracer *tracer) override
    {
        ServeConfig sc = study;
        sc.telemetry = tracer != nullptr;
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(tracer, "serve.study");
            last = runServeStudy(sc, allServeVariants());
        }
        double wall = secondsSince(t0);
        if (!tracer)
            walls.push_back(wall);

        Iteration it;
        it.kipsSeconds = wall;
        for (const ServeVariantStats &v : last.variants) {
            const std::string tok = serveVariantToken(v.variant);
            it.kiloInsts += static_cast<double>(v.committedInsts) / 1e3;
            it.sim["sim.cycles"] += static_cast<double>(v.serviceCycles);
            it.sim["sim.insts"] += static_cast<double>(v.committedInsts);
            it.sim["mem.nvm_writes"] += static_cast<double>(v.nvmWrites);
            it.sim["serve.p99_cycles." + tok] =
                static_cast<double>(v.latency.percentile(0.99));
            it.sim["serve.achieved_per_kcycle." + tok] =
                v.achievedPerKcycle;
            for (const FailurePoint &fp : v.failures) {
                it.sim["branch.cycles"] += static_cast<double>(fp.cycle);
                it.sim["branch.durable"] +=
                    static_cast<double>(fp.durableRequests);
                it.sim["branch.loss_window"] +=
                    static_cast<double>(fp.lossWindow);
            }
            if (tracer)
                addStallCycles(v.telemetry, it.sim);
        }
        return it;
    }

    void
    check(Results &out) override
    {
        // The tools/serve_report.py invariants, per variant.
        out.check(last.variants.size() == 3, "serve study ran 3 variants");
        for (const ServeVariantStats &v : last.variants) {
            const std::string tag =
                std::string("serve ") + serveVariantToken(v.variant);
            out.check(v.completed == study.requests,
                      tag + ": completed " + std::to_string(v.completed) +
                          " of " + std::to_string(study.requests));
            out.check(v.latency.count() == study.requests,
                      tag + ": latency histogram holds " +
                          std::to_string(v.latency.count()) + " samples");
            out.check(v.failures.size() == study.failures,
                      tag + ": " + std::to_string(v.failures.size()) +
                          " failure points");
            for (const FailurePoint &fp : v.failures) {
                out.check(fp.durableRequests <= fp.completedRequests &&
                              fp.durableRequests + fp.lostRequests ==
                                  fp.completedRequests,
                          tag + ": durable/lost/completed disagree at "
                                "cycle " + std::to_string(fp.cycle));
            }
        }
    }

    void
    hostMetrics(Results &) override
    {}

    void
    probe(Tracer &tracer, Results &out) override
    {
        // Measurement runs alone; the rest of the study is branches.
        ServeConfig measure = study;
        measure.failures = 0;
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(&tracer, "serve.measure");
            runServeStudy(measure, allServeVariants());
        }
        double measureS = secondsSince(t0);
        out.set("serve.measure_s", measureS);
        out.set("serve.branch_s", median(walls) - measureS);

        // RequestSource::next, then each transform's own share.
        const std::uint64_t insts = cfg.tiny ? 5'000 : 100'000;
        DynInst d;
        RequestSource plain(probeStream(study, 0));
        t0 = nowNs();
        {
            ScopedSpan span(&tracer, "serve.next");
            for (std::uint64_t i = 0; i < insts && plain.next(d); ++i) {
            }
        }
        double sourceNs =
            static_cast<double>(nowNs() - t0) / static_cast<double>(insts);
        out.set("serve.next_ns", sourceNs);

        double selfNs = 0.0;
        for (ServeVariant v :
             {ServeVariant::UndoRedoLog, ServeVariant::DelayFree}) {
            RequestSource inner(probeStream(study, 0));
            CountingSource counted(inner);
            std::unique_ptr<DynInstSource> transform;
            if (v == ServeVariant::UndoRedoLog)
                transform = std::make_unique<UndoRedoLogTransform>(
                    counted, probeDurability(0));
            else
                transform = std::make_unique<DelayFreeTransform>(
                    counted, probeDurability(0));
            t0 = nowNs();
            {
                ScopedSpan span(&tracer, "baselines.next",
                                static_cast<std::uint64_t>(v));
                for (std::uint64_t i = 0; i < insts && transform->next(d);
                     ++i) {
                }
            }
            double totalNs = static_cast<double>(nowNs() - t0);
            selfNs += (totalNs - static_cast<double>(counted.calls) *
                                     sourceNs) /
                      static_cast<double>(insts);
        }
        out.set("baselines.next_ns", selfNs / 2.0);

        // Core::tick / MemHierarchy::tick on the 2-core ppa server.
        ExperimentKnobs knobs;
        knobs.threads = study.threads;
        System system(
            makeSystemConfig(SystemVariant::Ppa, knobs, study.threads));
        std::vector<std::unique_ptr<RequestSource>> sources;
        for (unsigned t = 0; t < study.threads; ++t) {
            sources.push_back(
                std::make_unique<RequestSource>(probeStream(study, t)));
            system.bindSource(t, sources.back().get());
        }
        TickCost cost;
        {
            ScopedSpan span(&tracer, "sim.tick_probe");
            cost = tickProbe(system, cfg.tiny ? 2'000 : 40'000);
        }
        out.set("core.tick_ns", cost.coreNsPerCoreCycle);
        out.set("mem.tick_ns", cost.memNsPerCycle);
    }

    unsigned hostThreads() const override { return cfg.workers; }

  private:
    Config cfg;
    ServeConfig study;
    ServeStats last;
    std::vector<double> walls;
};

} // namespace

std::unique_ptr<Workload>
makeServeCrash(const Config &cfg)
{
    return std::make_unique<ServeCrash>(cfg);
}

} // namespace perfbench

/**
 * @file
 * `sweep`: the figure-reproduction path. The 12-app sweepAppNames()
 * subset crossed with {memory-mode, ppa, capri, replaycache}, each job
 * a generator-driven runWorkload(), fanned across the ExperimentDriver
 * workers. No crash branches, request sources or model checking run
 * here.
 */

#include <algorithm>

#include "bench.hh"
#include "sim/driver.hh"
#include "sim/figures.hh"
#include "workload/generator.hh"

namespace perfbench
{
namespace
{

using namespace ppa;

const SystemVariant kModes[] = {SystemVariant::MemoryMode,
                                SystemVariant::Ppa, SystemVariant::Capri,
                                SystemVariant::ReplayCache};

unsigned
threadsOf(const WorkloadProfile &profile)
{
    return std::max(1u, profile.defaultThreads);
}

class Sweep : public Workload
{
  public:
    explicit Sweep(const Config &c) : cfg(c) {}

    void
    setup(Tracer *) override
    {
        jobs.clear();
        requestedInsts = 0;
        ExperimentKnobs knobs;
        knobs.instsPerCore = cfg.tiny ? 2'000 : 16'000;
        knobs.seed = cfg.seed;
        for (const std::string &app : sweepAppNames()) {
            const WorkloadProfile &profile = profileByName(app);
            for (SystemVariant v : kModes) {
                jobs.push_back({profile, v, knobs});
                requestedInsts += knobs.instsPerCore * threadsOf(profile);
            }
        }
        // Largest jobs first, so the two workers finish together and
        // the wall time does not hinge on which job runs last.
        std::stable_sort(jobs.begin(), jobs.end(),
                         [](const SweepJob &a, const SweepJob &b) {
                             return threadsOf(a.profile) >
                                    threadsOf(b.profile);
                         });
        // Warm the allocator and code paths on one short job per app,
        // so the first timed iteration does not pay for lazy set-up.
        ExperimentKnobs warm = knobs;
        warm.instsPerCore = 2'000;
        for (const std::string &app : sweepAppNames())
            runWorkload(profileByName(app), SystemVariant::Ppa, warm);
    }

    Iteration
    iterate(Tracer *tracer) override
    {
        std::vector<SweepJob> run = jobs;
        for (SweepJob &j : run)
            j.knobs.telemetry = tracer != nullptr;

        ExperimentDriver driver(cfg.workers);
        const int parent = Tracer::current();
        ProgressFn progress;
        if (tracer) {
            progress = [&](const JobResult &r, std::size_t done,
                           std::size_t) {
                std::int64_t end = nowNs();
                tracer->record("sweep.job", done,
                               end - static_cast<std::int64_t>(
                                         r.wallSeconds * 1e9),
                               end, parent);
            };
        }
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(tracer, "sim.driver_run");
            results = driver.run(run, progress);
        }
        double wall = secondsSince(t0);

        Iteration it;
        it.kiloInsts = static_cast<double>(requestedInsts) / 1e3;
        it.kipsSeconds = wall;
        double busy = 0.0;
        for (const JobResult &r : results) {
            busy += r.wallSeconds;
            if (!tracer)
                jobMs.push_back(r.wallSeconds * 1e3);
            const RunStats &s = r.stats;
            it.sim["sim.cycles"] += static_cast<double>(s.totalCycles);
            it.sim["sim.insts"] += static_cast<double>(s.committedInsts);
            it.sim["mem.nvm_writes"] += static_cast<double>(s.nvmWrites);
            it.sim["ppa.regions"] += static_cast<double>(s.regionCount);
            if (tracer)
                addStallCycles(s.telemetry, it.sim);
        }
        if (!tracer)
            busyShares.push_back(busy / (driver.workers() * wall));
        return it;
    }

    void
    check(Results &out) override
    {
        for (const JobResult &r : results) {
            const RunStats &s = r.stats;
            std::uint64_t budget = r.job.knobs.instsPerCore * s.threads;
            // ReplayCache's compiler transform adds instructions on top
            // of the budget; every other variant commits it exactly.
            bool ok = r.job.variant == SystemVariant::ReplayCache
                          ? s.committedInsts >= budget
                          : s.committedInsts == budget;
            out.check(ok, "sweep job " + r.job.profile.name + "/" +
                              variantToken(r.job.variant) + " committed " +
                              std::to_string(s.committedInsts) + " of " +
                              std::to_string(budget));
        }
    }

    void
    hostMetrics(Results &out) override
    {
        out.set("job_p50_ms", percentile(jobMs, 0.50));
        out.set("job_p75_ms", percentile(jobMs, 0.75));
        out.set("sim.driver_busy_share", median(busyShares));
    }

    void
    probe(Tracer &tracer, Results &out) override
    {
        const std::uint64_t insts = cfg.tiny ? 2'000 : 20'000;
        const Cycle cycles = cfg.tiny ? 500 : 3'000;
        double nextNs = 0.0, coreNs = 0.0, memNs = 0.0;
        std::uint64_t id = 0;
        for (const std::string &app : sweepAppNames()) {
            const WorkloadProfile &profile = profileByName(app);
            // StreamGenerator::next on a fixed sample of instructions.
            StreamGenerator gen(profile, 0, cfg.seed, insts);
            DynInst d;
            std::int64_t t0 = nowNs();
            {
                ScopedSpan span(&tracer, "workload.next", id);
                for (std::uint64_t i = 0; i < insts && gen.next(d); ++i) {
                }
            }
            nextNs += static_cast<double>(nowNs() - t0) /
                      static_cast<double>(insts);

            // Core::tick / MemHierarchy::tick on a ppa system.
            ExperimentKnobs knobs;
            knobs.instsPerCore = insts;
            knobs.seed = cfg.seed;
            unsigned threads = threadsOf(profile);
            System system(makeSystemConfig(SystemVariant::Ppa, knobs,
                                           threads));
            std::vector<std::unique_ptr<StreamGenerator>> sources;
            for (unsigned t = 0; t < threads; ++t) {
                sources.push_back(std::make_unique<StreamGenerator>(
                    profile, t, cfg.seed, insts));
                system.bindSource(t, sources.back().get());
            }
            TickCost cost;
            {
                ScopedSpan span(&tracer, "sim.tick_probe", id);
                cost = tickProbe(system, cycles);
            }
            coreNs += cost.coreNsPerCoreCycle;
            memNs += cost.memNsPerCycle;
            ++id;
        }
        const double apps = static_cast<double>(sweepAppNames().size());
        out.set("workload.next_ns", nextNs / apps);
        out.set("core.tick_ns", coreNs / apps);
        out.set("mem.tick_ns", memNs / apps);
    }

    unsigned hostThreads() const override { return cfg.workers; }

  private:
    Config cfg;
    std::vector<SweepJob> jobs;
    std::uint64_t requestedInsts = 0;
    std::vector<JobResult> results;
    std::vector<double> jobMs;
    std::vector<double> busyShares;
};

} // namespace

std::unique_ptr<Workload>
makeSweep(const Config &cfg)
{
    return std::make_unique<Sweep>(cfg);
}

} // namespace perfbench

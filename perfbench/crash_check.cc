/**
 * @file
 * `crash-check`: thousands of tiny runs. Three parts, handed to the
 * workers as one job list:
 *  - the litmus corpus under ppa/strict, driven step by step here:
 *    runReference(), then every exhaustive crash point through
 *    crashObserve() and PersistModel::outcomeAllowed();
 *  - a seeded ppa runCampaign() (the pass path);
 *  - a seeded memory-mode runCampaign() capped at one finding (trace
 *    record, replay-confirm, shrink).
 * System construction, power failure, recovery and model judgment
 * dominate; the core hot loop does little.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "check/litmus.hh"
#include "fuzz/campaign.hh"
#include "ppa/checkpoint_io.hh"

namespace perfbench
{
namespace
{

using namespace ppa;
using check::PersistModel;

constexpr Cycle kMaxCycles = 200'000;
constexpr Cycle kExhaustiveCap = 20'000;

/** The system litmus runs build (mirrors the engine's construction). */
std::unique_ptr<System>
buildLitmusSystem(const check::LitmusTest &test,
                  std::vector<std::unique_ptr<ProgramExecutor>> &execs)
{
    const auto n = static_cast<unsigned>(test.threads.size());
    ExperimentKnobs knobs;
    knobs.threads = n;
    auto system = std::make_unique<System>(
        makeSystemConfig(SystemVariant::Ppa, knobs, n));
    for (unsigned t = 0; t < n; ++t)
        system->seedMemory(test.threads[t].initialMemory());
    for (unsigned t = 0; t < n; ++t) {
        execs.push_back(std::make_unique<ProgramExecutor>(test.threads[t]));
        system->bindSource(t, execs.back().get());
    }
    return system;
}

/** Static judgment inputs of one corpus test, built in set-up. */
struct LitmusPlan
{
    const check::LitmusTest *test = nullptr;
    std::unique_ptr<PersistModel> model;
    /** Outcomes exhaustive exploration must witness (vacuity). */
    std::set<PersistModel::Outcome> required;
    /** Committed instructions after c cycles, c = 0..end. */
    std::vector<std::uint64_t> instsAt;
};

/** What one iteration saw for one corpus test. */
struct LitmusRun
{
    bool completed = false;
    Cycle endCycle = 0;
    std::uint64_t points = 0;
    std::uint64_t violations = 0;
    std::uint64_t vacuous = 0;
    std::uint64_t crashInsts = 0;
    std::uint64_t crashCycles = 0;
    std::vector<double> pointUs;
};

/** Run fn(0..n-1) on @p workers threads (inline for one worker). */
template <typename Fn>
void
forEachIndex(unsigned workers, std::size_t n, Fn fn)
{
    std::atomic<std::size_t> cursor{0};
    auto loop = [&] {
        for (std::size_t i; (i = cursor.fetch_add(1)) < n;)
            fn(i);
    };
    if (workers <= 1) {
        loop();
        return;
    }
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(loop);
    for (std::thread &t : pool)
        t.join();
}

class CrashCheck : public Workload
{
  public:
    explicit CrashCheck(const Config &c) : cfg(c) {}

    void
    setup(Tracer *) override
    {
        plans.clear();
        const auto &corpus = check::litmusCorpus();
        std::size_t tests = cfg.tiny ? 3 : corpus.size();
        for (std::size_t i = 0; i < tests; ++i)
            plans.push_back(plan(corpus[i]));

        // Fixed program shapes: the seed changes what the programs do,
        // not how big they are, so a campaign costs about the same on
        // every seed.
        ppaOpts = fuzz::CampaignOptions{};
        ppaOpts.variant = SystemVariant::Ppa;
        ppaOpts.programs = cfg.tiny ? 3 : 24;
        ppaOpts.schedules = 16;
        ppaOpts.seed = cfg.seed;
        ppaOpts.gen.minThreads = ppaOpts.gen.maxThreads = 2;
        ppaOpts.gen.minActions = ppaOpts.gen.maxActions = 6;

        mmOpts = fuzz::CampaignOptions{};
        mmOpts.variant = SystemVariant::MemoryMode;
        mmOpts.programs = cfg.tiny ? 3 : 12;
        mmOpts.schedules = 16;
        mmOpts.seed = cfg.seed;
        mmOpts.gen.minThreads = mmOpts.gen.maxThreads = 1;
        mmOpts.gen.minActions = mmOpts.gen.maxActions = 8;
        mmOpts.maxFindings = 1;
        mmOpts.traceDir = cfg.scratch + "/fuzz-trace";
        mmOpts.corpusDir = cfg.scratch + "/fuzz-corpus";
        std::filesystem::create_directories(mmOpts.traceDir);
        std::filesystem::create_directories(mmOpts.corpusDir);
    }

    Iteration
    iterate(Tracer *tracer) override
    {
        runs.assign(plans.size(), LitmusRun{});
        const int parent = Tracer::current();
        const std::int64_t t0 = nowNs();
        // Longest job first: the memory-mode campaign, then ppa's,
        // then the corpus tests.
        forEachIndex(cfg.workers, plans.size() + 2, [&](std::size_t j) {
            if (j == 0) {
                ScopedSpan span(tracer, "fuzz.campaign.memory-mode", j,
                                parent);
                mmRes = fuzz::runCampaign(mmOpts);
            } else if (j == 1) {
                ScopedSpan span(tracer, "fuzz.campaign.ppa", j, parent);
                ppaRes = fuzz::runCampaign(ppaOpts);
            } else {
                runLitmus(j - 2, tracer, parent);
            }
        });
        const double wall = secondsSince(t0);

        Iteration it;
        it.kipsSeconds = wall;
        std::uint64_t points = ppaRes.crashPoints + mmRes.crashPoints;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const LitmusRun &r = runs[i];
            points += r.points;
            it.kiloInsts += static_cast<double>(r.crashInsts) / 1e3;
            it.sim["sim.cycles"] +=
                static_cast<double>(r.endCycle + r.crashCycles);
            it.sim["sim.insts"] += static_cast<double>(
                r.crashInsts + plans[i].instsAt.back());
            it.sim["litmus.violations"] +=
                static_cast<double>(r.violations);
            if (!tracer)
                pointUs.insert(pointUs.end(), r.pointUs.begin(),
                               r.pointUs.end());
        }
        for (const auto *c : {&ppaRes, &mmRes}) {
            const std::string v = variantToken(c->variant);
            it.sim["fuzz.crash_points." + v] =
                static_cast<double>(c->crashPoints);
            it.sim["fuzz.strict_divergences." + v] =
                static_cast<double>(c->strictDivergences);
            for (const fuzz::CampaignFinding &f : c->findings) {
                it.sim["fuzz.shrunk_cycle." + v] +=
                    static_cast<double>(f.shrunkCycle);
                it.sim["fuzz.shrink_judged." + v] +=
                    static_cast<double>(f.shrinkJudged);
            }
        }
        if (!tracer)
            pointsPerS.push_back(static_cast<double>(points) / wall);
        return it;
    }

    void
    check(Results &out) override
    {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const LitmusRun &r = runs[i];
            out.check(r.completed && r.violations == 0 && r.vacuous == 0,
                      "litmus " + plans[i].test->name + ": " +
                          std::to_string(r.violations) + " violation(s), " +
                          std::to_string(r.vacuous) + " vacuous");
        }
        out.check(ppaRes.pass() && ppaRes.programs == ppaOpts.programs,
                  "ppa fuzz campaign passes");

        bool found = !mmRes.findings.empty();
        out.check(found, "memory-mode fuzz campaign yields a finding");
        if (!found)
            return;
        const fuzz::CampaignFinding &f = mmRes.findings.front();
        out.check(f.replayConfirmed, "finding " + f.program +
                                         " is replay-confirmed");
        fuzz::Violation v;
        std::string error;
        std::ifstream is(f.reproducerFile);
        std::stringstream text;
        text << is.rdbuf();
        bool parsed = fuzz::parseReproducerText(text.str(), v, error);
        std::uint64_t judged = 0;
        out.check(parsed && !f.shrinkBudgetExhausted &&
                      fuzz::isOneMinimal(v, mmOpts.shrink, judged),
                  "finding " + f.program + " shrinks to a 1-minimal "
                  "reproducer " + error);
    }

    void
    hostMetrics(Results &out) override
    {
        out.set("crash_points_per_s", median(pointsPerS));
        out.set("crash_p50_us", percentile(pointUs, 0.50));
        out.set("crash_p99_us", percentile(pointUs, 0.99));
    }

    void
    probe(Tracer &tracer, Results &out) override
    {
        const auto t = tracer.totals();
        out.set("check.reference_ms",
                spanSelfSeconds(t, "check.reference") * 1e3);
        out.set("check.observe_us",
                spanSelfSeconds(t, "check.observe") * 1e6);
        out.set("check.judge_us", spanSelfSeconds(t, "check.judge") * 1e6);
        out.set("fuzz.campaign_s.ppa",
                spanSelfSeconds(t, "fuzz.campaign.ppa"));
        out.set("fuzz.campaign_s.memory-mode",
                spanSelfSeconds(t, "fuzz.campaign.memory-mode"));

        probeCrashSteps(tracer, out);

        // Re-shrink each finding of the last campaign on its own.
        double shrinkS = 0.0;
        for (const fuzz::CampaignFinding &f : mmRes.findings) {
            fuzz::Violation v;
            v.spec = fuzz::generateSpec(mmOpts.gen, mmOpts.seed, f.index);
            v.variant = mmOpts.variant;
            v.flavor = f.flavor;
            v.cycle = f.cycle;
            check::CrashObservation obs = check::crashObserve(
                fuzz::lowerSpec(v.spec), v.variant, v.cycle);
            v.cut = obs.cut;
            v.outcome = obs.outcome;
            std::int64_t t0 = nowNs();
            fuzz::ShrinkResult shrunk;
            {
                ScopedSpan span(&tracer, "fuzz.shrink", f.index);
                shrunk = fuzz::shrinkViolation(v, mmOpts.shrink);
            }
            shrinkS += secondsSince(t0);
            out.check(shrunk.steps == f.shrinkSteps,
                      "re-shrinking " + f.program + " repeats the campaign");
        }
        if (!mmRes.findings.empty())
            out.set("fuzz.shrink_ms",
                    shrinkS * 1e3 /
                        static_cast<double>(mmRes.findings.size()));
    }

    unsigned hostThreads() const override { return cfg.workers; }

  private:
    static LitmusPlan
    plan(const check::LitmusTest &test)
    {
        LitmusPlan p;
        p.test = &test;
        std::vector<const Program *> progs;
        for (const Program &prog : test.threads)
            progs.push_back(&prog);
        p.model = std::make_unique<PersistModel>(progs);
        const PersistModel &m = *p.model;

        // Initial, final, every prefix state of single-thread
        // prefix-coverage tests, and the test's declared extras.
        p.required.insert(m.committedState(
            PersistModel::StoreCut(m.threadCount(), 0), test.observed));
        p.required.insert(m.committedState(m.fullCut(), test.observed));
        if (test.prefixCoverage && m.threadCount() == 1) {
            for (std::uint64_t k = 0; k <= m.storeCount(0); ++k)
                p.required.insert(m.committedState({k}, test.observed));
        }
        for (const auto &extra : test.extraRequired)
            p.required.insert(extra);

        // Committed instructions per cycle of a crash-free run: a crash
        // run at cycle c has committed exactly instsAt[c].
        std::vector<std::unique_ptr<ProgramExecutor>> execs;
        auto system = buildLitmusSystem(test, execs);
        p.instsAt.push_back(0);
        for (Cycle c = 0; c < kMaxCycles && !system->allDone(); ++c) {
            system->tick();
            p.instsAt.push_back(system->totalCommitted());
        }
        return p;
    }

    void
    runLitmus(std::size_t i, Tracer *tracer, int parent)
    {
        const LitmusPlan &p = plans[i];
        const check::LitmusTest &test = *p.test;
        LitmusRun &r = runs[i];
        ScopedSpan job(tracer, "check.litmus", i, parent);

        check::ReferenceSummary ref;
        {
            ScopedSpan span(tracer, "check.reference", i);
            ref = check::runReference(test, SystemVariant::Ppa, kMaxCycles);
        }
        r.completed = ref.completed && ref.endCycle <= kExhaustiveCap &&
                      ref.endCycle + 1 == p.instsAt.size();
        r.endCycle = ref.endCycle;
        if (!r.completed)
            return;

        std::set<PersistModel::Outcome> seen;
        r.pointUs.reserve(ref.endCycle);
        for (Cycle c = 1; c <= ref.endCycle; ++c) {
            const std::uint64_t id = (i << 32) | c;
            std::int64_t t0 = nowNs();
            check::CrashObservation obs;
            {
                ScopedSpan span(tracer, "check.observe", id);
                obs = check::crashObserve(test, SystemVariant::Ppa, c);
            }
            bool allowed = false;
            {
                ScopedSpan span(tracer, "check.judge", id);
                allowed = p.model->outcomeAllowed(
                    check::PersistFlavor::Strict, obs.cut, test.observed,
                    obs.outcome);
            }
            r.pointUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            r.violations += allowed ? 0 : 1;
            seen.insert(obs.outcome);
            r.crashInsts += p.instsAt[c];
            r.crashCycles += c;
            ++r.points;
        }
        for (const auto &o : p.required)
            r.vacuous += seen.count(o) ? 0 : 1;
    }

    /**
     * Replay a fixed sample of corpus crash points step by step, timing
     * System construction, the cycles up to the crash, powerFail(), the
     * checkpoint_io save + load round trip, and recover().
     */
    void
    probeCrashSteps(Tracer &tracer, Results &out)
    {
        const Cycle stride = cfg.tiny ? 64 : 16;
        double coreNs = 0, memNs = 0, ticked = 0;
        for (const LitmusPlan &p : plans) {
            const Cycle end = p.instsAt.size() - 1;
            for (Cycle c = 1; c <= end; c += stride) {
                std::vector<std::unique_ptr<ProgramExecutor>> execs;
                std::unique_ptr<System> system;
                {
                    ScopedSpan span(&tracer, "sim.build", c);
                    system = buildLitmusSystem(*p.test, execs);
                }
                TickCost cost = tickProbe(*system, c);
                coreNs += cost.coreNsPerCoreCycle * static_cast<double>(c);
                memNs += cost.memNsPerCycle * static_cast<double>(c);
                ticked += static_cast<double>(c);

                std::vector<CheckpointImage> images;
                {
                    ScopedSpan span(&tracer, "sim.power_fail", c);
                    images = system->powerFail();
                }
                {
                    ScopedSpan span(&tracer, "ppa.checkpoint_roundtrip", c);
                    for (CheckpointImage &img : images)
                        img = deserializeCheckpoint(serializeCheckpoint(img));
                }
                ScopedSpan span(&tracer, "sim.recover", c);
                system->recover(images);
            }
        }
        const auto t = tracer.totals();
        out.set("sim.build_us", spanSelfSeconds(t, "sim.build") * 1e6);
        out.set("sim.power_fail_us",
                spanSelfSeconds(t, "sim.power_fail") * 1e6);
        out.set("ppa.checkpoint_roundtrip_us",
                spanSelfSeconds(t, "ppa.checkpoint_roundtrip") * 1e6);
        out.set("sim.recover_us", spanSelfSeconds(t, "sim.recover") * 1e6);
        out.set("core.tick_ns", coreNs / ticked);
        out.set("mem.tick_ns", memNs / ticked);
    }

    Config cfg;
    std::vector<LitmusPlan> plans;
    fuzz::CampaignOptions ppaOpts, mmOpts;
    std::vector<LitmusRun> runs;
    fuzz::CampaignResult ppaRes, mmRes;
    std::vector<double> pointUs;
    std::vector<double> pointsPerS;
};

} // namespace

std::unique_ptr<Workload>
makeCrashCheck(const Config &cfg)
{
    return std::make_unique<CrashCheck>(cfg);
}

} // namespace perfbench

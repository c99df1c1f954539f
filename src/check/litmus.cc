#include "check/litmus.hh"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/builder.hh"
#include "obs/event_sink.hh"
#include "sim/report.hh"
#include "sim/run.hh"

namespace ppa
{
namespace check
{

namespace
{

// ---- corpus construction ------------------------------------------

// Register conventions shared by every litmus thread.
constexpr ArchReg rBase = 1;  ///< base pointer of the thread's lines
constexpr ArchReg rOne = 2;   ///< constant 1 (divisor of the chain)
constexpr ArchReg rChain = 3; ///< head of the retire-spacing chain
constexpr ArchReg rVal = 4;   ///< store data, derived from the chain
constexpr ArchReg rAmo = 5;   ///< AtomicRmw old-value destination

constexpr Addr litBase = 0x10000;
constexpr Addr line = 0x100; ///< one cache line per observed word

void
prologue(ProgramBuilder &b, Addr base = litBase)
{
    b.movi(rBase, base);
    b.movi(rOne, 1);
    b.movi(rChain, 1);
}

/**
 * Extend the value-preserving dependence chain by one unpipelined
 * 20-cycle divide (rChain stays 1). A store whose data hangs off the
 * chain cannot perform — and therefore cannot retire — until the
 * divide completes, so consecutive chained stores retire on distinct
 * cycles and exhaustive crash enumeration observes every prefix.
 */
void
delay(ProgramBuilder &b)
{
    b.div(rChain, rChain, rOne);
}

/** Store @p value (>= 1) to rBase + @p off, data fed by the chain. */
void
chainedStore(ProgramBuilder &b, Word value, Addr off)
{
    b.addi(rVal, rChain, value - 1);
    b.st(rVal, rBase, off);
}

LitmusTest
makeTest(std::string name, std::string description,
         std::vector<Program> threads, std::vector<Addr> observed,
         bool prefix_coverage,
         std::vector<std::vector<Word>> extra_required = {})
{
    LitmusTest t;
    t.name = std::move(name);
    t.description = std::move(description);
    t.threads = std::move(threads);
    t.observed = std::move(observed);
    t.prefixCoverage = prefix_coverage;
    t.extraRequired = std::move(extra_required);
    return t;
}

std::vector<LitmusTest>
buildCorpus()
{
    std::vector<LitmusTest> corpus;

    {
        // Message passing, one thread: data then flag. Strict forbids
        // flag-without-data at every cut.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 41, 0 * line);
        delay(b);
        chainedStore(b, 1, 1 * line);
        b.halt();
        corpus.push_back(makeTest(
            "mp", "message passing: flag persists only after data",
            {b.program()}, {litBase, litBase + line}, true));
    }
    {
        // Message passing across an explicit epoch boundary: even the
        // Epoch flavor forbids flag-without-data here.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 41, 0 * line);
        b.fence();
        delay(b);
        chainedStore(b, 1, 1 * line);
        b.halt();
        corpus.push_back(makeTest(
            "mp-epoch",
            "message passing with a fence between data and flag",
            {b.program()}, {litBase, litBase + line}, true));
    }
    {
        // Store buffering: two independent single-store threads. All
        // four outcomes are reachable; conformance is per-cut only.
        ProgramBuilder t0;
        prologue(t0);
        chainedStore(t0, 1, 0);
        t0.halt();
        ProgramBuilder t1;
        prologue(t1, litBase + 16 * line);
        chainedStore(t1, 1, 0);
        t1.halt();
        corpus.push_back(makeTest(
            "sb", "store buffering: one store per thread",
            {t0.program(), t1.program()},
            {litBase, litBase + 16 * line}, false));
    }
    {
        // Same-address coherence: the persisted value must be some
        // program-order prefix value, never a resurrected older one
        // at a newer cut under Strict.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 1, 0);
        delay(b);
        chainedStore(b, 2, 0);
        delay(b);
        chainedStore(b, 3, 0);
        b.halt();
        corpus.push_back(makeTest(
            "coherence", "three stores to one address", {b.program()},
            {litBase}, true));
    }
    {
        // Epoch chain: one store per epoch; later epochs persist only
        // after earlier ones.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 1, 0 * line);
        b.fence();
        delay(b);
        chainedStore(b, 2, 1 * line);
        b.fence();
        delay(b);
        chainedStore(b, 3, 2 * line);
        b.halt();
        corpus.push_back(makeTest(
            "epoch-chain", "one store per epoch across two fences",
            {b.program()},
            {litBase, litBase + line, litBase + 2 * line}, true));
    }
    {
        // Two stores inside one epoch (unordered there), one after
        // the fence.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 1, 0 * line);
        delay(b);
        chainedStore(b, 2, 1 * line);
        b.fence();
        delay(b);
        chainedStore(b, 3, 2 * line);
        b.halt();
        corpus.push_back(makeTest(
            "epoch-pair", "intra-epoch pair then a fenced store",
            {b.program()},
            {litBase, litBase + line, litBase + 2 * line}, true));
    }
    {
        // AtomicRmw is a synchronization point and a store: it ends
        // the region and persists synchronously at commit.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 1, 0 * line);
        delay(b);
        b.addi(rVal, rChain, 0);
        b.amoadd(rAmo, rVal, rBase, 1 * line);
        delay(b);
        chainedStore(b, 2, 2 * line);
        b.halt();
        corpus.push_back(makeTest(
            "atomic-sync", "store, amoadd region boundary, store",
            {b.program()},
            {litBase, litBase + line, litBase + 2 * line}, true));
    }
    {
        // Back-to-back fences form zero-length regions; the boundary
        // machinery must stay consistent through all of them.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 1, 0 * line);
        b.fence();
        b.fence();
        b.fence();
        delay(b);
        chainedStore(b, 2, 1 * line);
        b.halt();
        corpus.push_back(makeTest(
            "zero-regions", "three back-to-back zero-length regions",
            {b.program()}, {litBase, litBase + line}, true));
    }
    {
        // Two threads with disjoint write sets making independent
        // progress.
        ProgramBuilder t0;
        prologue(t0);
        chainedStore(t0, 1, 0 * line);
        delay(t0);
        chainedStore(t0, 2, 1 * line);
        delay(t0);
        chainedStore(t0, 3, 2 * line);
        t0.halt();
        ProgramBuilder t1;
        prologue(t1, litBase + 16 * line);
        chainedStore(t1, 4, 0 * line);
        delay(t1);
        chainedStore(t1, 5, 1 * line);
        delay(t1);
        chainedStore(t1, 6, 2 * line);
        t1.halt();
        corpus.push_back(makeTest(
            "2t-disjoint", "two threads, three stores each, disjoint",
            {t0.program(), t1.program()},
            {litBase + 2 * line, litBase + 16 * line + 2 * line},
            false));
    }
    {
        // Message passing on thread 0 while thread 1 generates noise
        // traffic; the MP invariant must hold regardless.
        ProgramBuilder t0;
        prologue(t0);
        chainedStore(t0, 41, 0 * line);
        delay(t0);
        chainedStore(t0, 1, 1 * line);
        t0.halt();
        ProgramBuilder t1;
        prologue(t1, litBase + 16 * line);
        t1.movi(rVal, 7);
        for (unsigned k = 0; k < 4; ++k)
            t1.st(rVal, rBase, k * line);
        t1.halt();
        corpus.push_back(makeTest(
            "mp-2t", "message passing under cross-core noise stores",
            {t0.program(), t1.program()}, {litBase, litBase + line},
            false, {{41, 0}}));
    }
    {
        // 44 stores over 6 lines: the 40-entry CSQ fills inside the
        // region and forces an implicit (CsqFull) boundary.
        ProgramBuilder b;
        prologue(b, 0x20000);
        for (unsigned k = 0; k < 44; ++k) {
            if (k == 39 || k == 40) {
                delay(b);
                chainedStore(b, k + 1, (k % 6) * line);
            } else {
                b.movi(rVal, k + 1);
                b.st(rVal, rBase, (k % 6) * line);
            }
        }
        b.halt();
        corpus.push_back(makeTest(
            "csq-overflow",
            "44 stores force a CSQ-full implicit region boundary",
            {b.program()},
            {Addr{0x20000}, Addr{0x20000} + 5 * line}, false));
    }
    {
        // A burst of distinct-line stores drained by one fence: write
        // buffer and WPQ under pressure at the barrier.
        ProgramBuilder b;
        prologue(b, 0x30000);
        for (unsigned k = 0; k < 20; ++k) {
            b.movi(rVal, k + 1);
            b.st(rVal, rBase, k * line);
        }
        b.fence();
        delay(b);
        chainedStore(b, 99, 20 * line);
        b.halt();
        corpus.push_back(makeTest(
            "wpq-pressure",
            "20-line store burst drained by a persist barrier",
            {b.program()},
            {Addr{0x30000}, Addr{0x30000} + 19 * line,
             Addr{0x30000} + 20 * line},
            false));
    }
    {
        // Three explicit regions with two, two, and one stores.
        ProgramBuilder b;
        prologue(b);
        chainedStore(b, 1, 0 * line);
        delay(b);
        chainedStore(b, 2, 1 * line);
        b.fence();
        delay(b);
        chainedStore(b, 3, 2 * line);
        delay(b);
        chainedStore(b, 4, 3 * line);
        b.fence();
        delay(b);
        chainedStore(b, 5, 4 * line);
        b.halt();
        corpus.push_back(makeTest(
            "multi-region", "three regions: 2 + 2 + 1 stores",
            {b.program()},
            {litBase + line, litBase + 3 * line, litBase + 4 * line},
            true));
    }

    return corpus;
}

// ---- engine helpers -----------------------------------------------

/**
 * Records the cycles of region boundaries; the randomized explorer
 * biases crash points toward them.
 */
class CrashBiasObserver : public obs::EventSink
{
  public:
    explicit CrashBiasObserver(std::set<Cycle> &out) : out(out) {}

    void
    onRegionBoundaryStart(Cycle cycle, RegionEndCause) override
    {
        out.insert(cycle);
    }

  private:
    std::set<Cycle> &out;
};

/** Wire one simulated instance of a litmus test: seeded memory and
 *  one program executor per thread. */
std::unique_ptr<sim::Run>
makeRun(const LitmusTest &test, SystemVariant variant)
{
    const auto n = static_cast<unsigned>(test.threads.size());
    ExperimentKnobs knobs;
    knobs.threads = n;
    auto run = std::make_unique<sim::Run>(variant, knobs, n);
    for (const Program &p : test.threads)
        run->system().seedMemory(p.initialMemory());
    for (const Program &p : test.threads)
        run->addSource(std::make_unique<ProgramExecutor>(p));
    run->wrapReplayCache();
    run->bindSources();
    return run;
}

constexpr std::size_t maxSamples = 5;

} // namespace

std::string
valuesStr(const std::vector<Word> &values)
{
    std::ostringstream os;
    os << "(";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << values[i];
    os << ")";
    return os.str();
}

std::string
cutStr(const std::vector<std::uint64_t> &cut)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < cut.size(); ++i)
        os << (i ? ", " : "") << cut[i];
    os << "]";
    return os.str();
}

std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ull;
    }
    return h;
}

ReferenceSummary
runReference(const LitmusTest &test, SystemVariant variant,
             Cycle maxCycles)
{
    ReferenceSummary ref;
    std::set<Cycle> interesting;
    auto run = makeRun(test, variant);
    for (unsigned t = 0; t < run->system().numCores(); ++t)
        run->watch<CrashBiasObserver>(t, interesting);
    run->system().runUntilCycle(maxCycles);
    ref.completed = run->system().allDone();
    ref.endCycle = run->system().cycle();
    ref.interesting.assign(interesting.begin(), interesting.end());
    return ref;
}

std::vector<Cycle>
biasedCrashSchedule(const ReferenceSummary &ref, unsigned schedules,
                    std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Cycle> crashes;
    crashes.reserve(schedules);
    const std::vector<Cycle> &hot = ref.interesting;
    for (unsigned k = 0; k < schedules; ++k) {
        Cycle c;
        if (k % 2 == 0 && !hot.empty()) {
            c = hot[rng.below(hot.size())];
            // +/-2 cycle jitter around the hot spot.
            c += rng.range(0, 4);
            c = c > 2 ? c - 2 : 1;
        } else {
            c = rng.range(1, ref.endCycle);
        }
        crashes.push_back(
            std::min<Cycle>(std::max<Cycle>(c, 1), ref.endCycle));
    }
    return crashes;
}

CrashObservation
crashObserve(const LitmusTest &test, SystemVariant variant, Cycle cycle)
{
    auto run = makeRun(test, variant);
    run->system().runUntilCycle(cycle);
    sim::Run::CrashView view = run->crashObserve(test.observed);
    return {std::move(view.cut), std::move(view.words)};
}

const std::vector<LitmusTest> &
litmusCorpus()
{
    static const std::vector<LitmusTest> corpus = buildCorpus();
    return corpus;
}

const LitmusTest *
findLitmusTest(const std::string &name)
{
    for (const LitmusTest &t : litmusCorpus())
        if (t.name == name)
            return &t;
    return nullptr;
}

PersistFlavor
flavorForVariant(SystemVariant variant)
{
    switch (variant) {
      case SystemVariant::Ppa:
        return PersistFlavor::Strict;
      case SystemVariant::ReplayCache:
        return PersistFlavor::Epoch;
      default:
        return PersistFlavor::Relaxed;
    }
}

bool
variantSupportsLitmus(SystemVariant variant, std::string *why)
{
    const char *reason = nullptr;
    switch (variant) {
      case SystemVariant::Ppa:
      case SystemVariant::MemoryMode:
      case SystemVariant::ReplayCache:
        break;
      case SystemVariant::Capri:
        reason = "capri cores have no JIT checkpoint/recovery path "
                 "to observe a post-crash state through";
        break;
      case SystemVariant::EadrBbb:
        reason = "eadr-bbb's battery-backed guarantee is priced, not "
                 "modeled, so a simulated crash would under-report it";
        break;
      case SystemVariant::DramOnly:
        reason = "dram-only has no persistent memory to observe";
        break;
    }
    if (why && reason)
        *why = reason;
    return reason == nullptr;
}

LitmusResult
runLitmusTest(const LitmusTest &test, const LitmusOptions &opts)
{
    LitmusResult res;
    res.test = test.name;
    res.variant = opts.variant;
    res.flavor = flavorForVariant(opts.variant);
    res.mode = opts.mode;
    res.coverageRequired = opts.mode == ExploreMode::Exhaustive &&
                           res.flavor == PersistFlavor::Strict;

    std::string why;
    if (!variantSupportsLitmus(opts.variant, &why)) {
        res.corpusError = true;
        res.notes.push_back("variant unsupported: " + why);
        return res;
    }

    // Static model of the program; reject anything outside the
    // analyzable (data-race-free, disjoint-writes) fragment.
    std::vector<const Program *> progs;
    progs.reserve(test.threads.size());
    for (const Program &p : test.threads)
        progs.push_back(&p);
    PersistModel model(progs);
    if (!model.racyAddresses().empty()) {
        res.corpusError = true;
        res.notes.push_back("cross-thread write/write race on " +
                            std::to_string(model.racyAddresses().size()) +
                            " address(es)");
        return res;
    }
    if (!model.crossThreadReads().empty()) {
        res.corpusError = true;
        res.notes.push_back("cross-thread read of another thread's "
                            "write set");
        return res;
    }

    // Required outcomes: initial, final, every single-thread prefix
    // state when the test guarantees one retire per cycle, plus the
    // test's own extras (validated against the Strict model).
    std::set<PersistModel::Outcome> required;
    required.insert(model.committedState(
        PersistModel::StoreCut(model.threadCount(), 0), test.observed));
    required.insert(model.committedState(model.fullCut(), test.observed));
    if (test.prefixCoverage && model.threadCount() == 1) {
        for (std::uint64_t k = 0; k <= model.storeCount(0); ++k)
            required.insert(
                model.committedState({k}, test.observed));
    }
    if (!test.extraRequired.empty()) {
        auto reachable = model.reachableOutcomes(PersistFlavor::Strict,
                                                 test.observed);
        for (const auto &extra : test.extraRequired) {
            if (std::find(reachable.begin(), reachable.end(), extra) ==
                reachable.end()) {
                res.corpusError = true;
                res.notes.push_back(
                    "declared required outcome " + valuesStr(extra) +
                    " is not Strict-reachable: corpus bug");
                return res;
            }
            required.insert(extra);
        }
    }
    res.requiredTotal = required.size();

    // Reference run: discover the completion cycle and the cycles
    // with persistency action (for crash-point biasing).
    ReferenceSummary ref = runReference(test, opts.variant,
                                        opts.maxCycles);
    if (!ref.completed) {
        res.corpusError = true;
        res.notes.push_back("reference run did not complete in " +
                            std::to_string(opts.maxCycles) + " cycles");
        return res;
    }

    // Crash-point schedule.
    std::vector<Cycle> crashes;
    if (opts.mode == ExploreMode::Exhaustive) {
        if (ref.endCycle > opts.exhaustiveCap) {
            res.corpusError = true;
            res.notes.push_back(
                "run is " + std::to_string(ref.endCycle) +
                " cycles, over the exhaustive cap of " +
                std::to_string(opts.exhaustiveCap) +
                "; use the randomized explorer");
            return res;
        }
        crashes.reserve(ref.endCycle);
        for (Cycle c = 1; c <= ref.endCycle; ++c)
            crashes.push_back(c);
    } else {
        crashes = biasedCrashSchedule(ref, opts.schedules,
                                      opts.seed ^ fnv64(test.name));
    }

    // Crash, observe, and judge.
    std::set<PersistModel::Outcome> seen;
    for (Cycle c : crashes) {
        CrashObservation obs = crashObserve(test, opts.variant, c);
        seen.insert(obs.outcome);

        bool allowed = model.outcomeAllowed(res.flavor, obs.cut,
                                            test.observed, obs.outcome);
        bool strict_allowed =
            res.flavor == PersistFlavor::Strict
                ? allowed
                : model.outcomeAllowed(PersistFlavor::Strict, obs.cut,
                                       test.observed, obs.outcome);
        if (!allowed) {
            ++res.violations;
            if (res.samples.size() < maxSamples) {
                LitmusSample s;
                s.cycle = c;
                s.cut = obs.cut;
                s.outcome = obs.outcome;
                s.detail = "outcome " + valuesStr(obs.outcome) +
                           " forbidden under " +
                           flavorName(res.flavor) + " at cut " +
                           cutStr(obs.cut);
                res.samples.push_back(std::move(s));
            }
        }
        if (!strict_allowed)
            ++res.strictDivergences;
        ++res.crashPoints;
    }

    res.distinctOutcomes = seen.size();
    for (const auto &r : required) {
        if (seen.count(r))
            continue;
        ++res.vacuous;
        if (res.notes.size() < maxSamples)
            res.notes.push_back("required outcome " + valuesStr(r) +
                                " never observed");
    }
    res.requiredSeen = res.requiredTotal - res.vacuous;
    return res;
}

std::string
litmusResultsJson(const std::vector<LitmusResult> &results,
                  const LitmusOptions &opts)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schemaVersion\": 1,\n";
    os << "  \"variant\": \"" << variantToken(opts.variant) << "\",\n";
    os << "  \"flavor\": \""
       << flavorName(flavorForVariant(opts.variant)) << "\",\n";
    os << "  \"mode\": \""
       << (opts.mode == ExploreMode::Exhaustive ? "exhaustive"
                                                : "randomized")
       << "\",\n";
    os << "  \"seed\": " << opts.seed << ",\n";
    os << "  \"tests\": [\n";
    std::uint64_t violations = 0;
    std::uint64_t divergences = 0;
    std::uint64_t vacuous = 0;
    bool pass = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const LitmusResult &r = results[i];
        violations += r.violations;
        divergences += r.strictDivergences;
        vacuous += r.vacuous;
        pass = pass && r.pass();
        os << "    {\"name\": \"" << metrics::jsonEscape(r.test) << "\","
           << " \"crashPoints\": " << r.crashPoints << ","
           << " \"violations\": " << r.violations << ","
           << " \"strictDivergences\": " << r.strictDivergences << ","
           << " \"vacuous\": " << r.vacuous << ","
           << " \"requiredTotal\": " << r.requiredTotal << ","
           << " \"requiredSeen\": " << r.requiredSeen << ","
           << " \"distinctOutcomes\": " << r.distinctOutcomes << ","
           << " \"corpusError\": "
           << (r.corpusError ? "true" : "false") << ","
           << " \"pass\": " << (r.pass() ? "true" : "false") << ","
           << " \"notes\": [";
        for (std::size_t n = 0; n < r.notes.size(); ++n)
            os << (n ? ", " : "") << "\""
               << metrics::jsonEscape(r.notes[n]) << "\"";
        os << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"totals\": {\"violations\": " << violations
       << ", \"strictDivergences\": " << divergences
       << ", \"vacuous\": " << vacuous
       << ", \"pass\": " << (pass ? "true" : "false") << "}\n";
    os << "}\n";
    return os.str();
}

} // namespace check
} // namespace ppa

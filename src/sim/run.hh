/**
 * @file
 * sim::Run, the one place that wires a simulated machine.
 *
 * A Run owns the System, each core's source stack (a base source, then
 * any transforms, the top one bound to the core), the auditors and
 * their shared StoreOracle, optional telemetry, the event sinks that
 * drivers add with watch(), and an opened trace. Every sink ends in
 * the one Core::attach. It holds the single copy of the steps the
 * drivers share; the drivers (the classic and segment runners, the
 * serving study, the litmus explorer, the fuzz campaign) keep only
 * their own schedule and result shaping.
 */

#ifndef PPA_SIM_RUN_HH
#define PPA_SIM_RUN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/event_sink.hh"
#include "sim/experiment.hh"
#include "trace/reader.hh"
#include "workload/profile.hh"

namespace ppa
{

namespace check
{
class Auditor;
} // namespace check

namespace sim
{

/** @p requested, or the hardware concurrency (at least 1) for 0. */
unsigned hostWorkers(unsigned requested);

/**
 * The one host worker pool: run @p fn(0..jobs-1) on hostWorkers(@p
 * workers) threads, never more than @p jobs; one worker runs inline in
 * index order. Results go to per-index slots, so any worker count
 * gives identical results.
 */
void runIndexed(unsigned workers, std::size_t jobs,
                const std::function<void(std::size_t)> &fn);

/** Open knobs.traceDir; fatal unless its manifest records @p threads
 *  threads of knobs.instsPerCore instructions. */
trace::TraceSet openTrace(const ExperimentKnobs &knobs, unsigned threads);

/** Record @p traces' provenance over @p threads into @p rs. */
void noteTrace(const trace::TraceSet &traces, unsigned threads,
               RunStats &rs);

/** Core @p t's stream: a replay of @p traces when given, else a
 *  StreamGenerator of @p profile seeded from the knobs. */
std::unique_ptr<DynInstSource> makeStream(const WorkloadProfile &profile,
                                          unsigned t,
                                          const ExperimentKnobs &knobs,
                                          const trace::TraceSet *traces);

/**
 * Snapshot of the machine's counters. Every field is monotonic or a
 * merged histogram of monotonic bins, so two snapshots of one run
 * subtract exactly, and the windows of several runs add up.
 */
struct Counters
{
    Counters() = default;
    /** All-zero counters of @p cores cores and the PRF sizes. */
    Counters(unsigned cores, std::size_t int_prf, std::size_t fp_prf);

    std::uint64_t committedInsts = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t regionCount = 0;
    std::uint64_t boundaryStall = 0;
    std::uint64_t renameStall = 0;

    // Per-core region counts and the exact sums of their stores and
    // other instructions (integer-valued, so they add and subtract
    // without rounding).
    std::vector<std::uint64_t> coreRegionCount;
    std::vector<double> coreRegionStoreSum;
    std::vector<double> coreRegionOtherSum;

    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmReads = 0;
    std::uint64_t nvmBytes = 0;
    std::uint64_t wpqStall = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t persist = 0;

    stats::Histogram freeInt;
    stats::Histogram freeFp;

    Counters &operator+=(const Counters &other);
    /** What happened from snapshot @p earlier to snapshot @p later. */
    friend Counters operator-(Counters later, const Counters &earlier);

    /**
     * Fill every counter-derived field of @p rs: instruction, store
     * and region counts, per-core stalls, region averages, memory
     * counts, the free-register histograms, and ipc over
     * @p total_cycles.
     */
    void fill(RunStats &rs, Cycle total_cycles) const;
};

class Run
{
  public:
    Run(SystemVariant variant, const ExperimentKnobs &knobs,
        unsigned threads);
    ~Run();

    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    System &system() { return *sys; }

    // ---- Source stacks: add one base per core in core order, stack
    // any transforms, then bindSources(). ------------------------------
    DynInstSource &addSource(std::unique_ptr<DynInstSource> source);

    /** Push a Transform(top(@p core), @p args...) as the new top. */
    template <class Transform, class... Args>
    Transform &
    stack(unsigned core, Args &&...args)
    {
        auto layer = std::make_unique<Transform>(
            top(core), std::forward<Args>(args)...);
        Transform &ref = *layer;
        stacks[core].top = &ref;
        stacks[core].owned.push_back(std::move(layer));
        return ref;
    }

    DynInstSource &top(unsigned core) { return *stacks[core].top; }

    /** Every core's stream from the knobs: a replay of knobs.traceDir
     *  (openTrace) or a StreamGenerator of @p profile. */
    void addStreams(const WorkloadProfile &profile);
    /** Every core replays @p traces, which the run keeps open. */
    void replayTrace(trace::TraceSet traces);
    /** ReplayCache variant only: stack its compiler transform. */
    void wrapReplayCache();
    void bindSources();

    // ---- Instrumentation ----------------------------------------------
    /** knobs.audit on a PPA machine: one Auditor per core. */
    void attachAuditors();
    /** knobs.telemetry: collect from this cycle on. */
    void attachTelemetry();

    /** Add a run-owned Sink(@p args...) to @p core's sink list. */
    template <class Sink, class... Args>
    Sink &
    watch(unsigned core, Args &&...args)
    {
        auto sink = std::make_unique<Sink>(std::forward<Args>(args)...);
        Sink &ref = *sink;
        sys->core(core).attach(&ref);
        watched.push_back(std::move(sink));
        return ref;
    }

    // ---- Schedule -----------------------------------------------------
    /** Arm auditedCrash(@p sink) at cycles @p base + @p at (any order);
     *  at most one fires per cycle. */
    void armFailures(std::vector<Cycle> at, Cycle base, RunStats &sink);

    /**
     * Tick (firing armed failures) until @p insts instructions have
     * committed, all cores are done, or the cycle reaches @p cap,
     * checking the target every @p check_every cycles. Returns the
     * cycle warmup ended on.
     */
    Cycle warmup(std::uint64_t insts, Cycle cap, unsigned check_every);

    /** Tick through the armed failures, then System::run(@p cap). */
    void finish(Cycle cap);

    // ---- Crashes ------------------------------------------------------
    /** Power-fail; recover from the images when the mode is PPA. */
    std::vector<CheckpointImage> crash();

    /** Power-fail, round-trip the checkpoints through checkpoint_io
     *  (what recovery reads from media), recover, and replay-audit
     *  into @p rs. */
    void auditedCrash(RunStats &rs);

    /** What a power failure now leaves durable. */
    struct CrashView
    {
        std::vector<std::uint64_t> cut; ///< committed stores per core
        std::vector<Word> words;        ///< observed NVM, post-crash
        std::vector<std::size_t> csq;   ///< checkpointed CSQ entries
    };

    /**
     * What crashObserve(@p observed) would return, without crashing:
     * the NVM image overlaid by the writes recovery would replay (PPA
     * mode). Changes no state and sends no callbacks.
     */
    CrashView crashView(const std::vector<Addr> &observed) const;

    /** Take crashView(@p observed), crash(), then read @p observed
     *  back from NVM; fatal unless the view saw the same words. */
    CrashView crashObserve(const std::vector<Addr> &observed);

    // ---- Results ------------------------------------------------------
    Counters counters();
    /** Fill @p rs from the finished machine, measuring from
     *  @p warm_cycle: counters, telemetry, provenance, audit. */
    void fillStats(RunStats &rs, Cycle warm_cycle);
    /** Diff each auditor's replayed NVM against the oracle. */
    void verifyReplay(RunStats &rs) const;
    /** Add the auditors' event/violation counts and messages. */
    void collectAudit(RunStats &rs) const;
    obs::TelemetryResult harvestTelemetry();

  private:
    /** Fire the armed failure that is due, if any, then tick at least
     *  once and on to @p until or the next armed failure. */
    void step(Cycle until);

    struct Stack
    {
        std::vector<std::unique_ptr<DynInstSource>> owned;
        DynInstSource *top = nullptr;
    };

    SystemVariant variantId;
    ExperimentKnobs knobs;
    unsigned threads;
    SystemConfig sc;
    std::unique_ptr<System> sys;
    trace::TraceSet traces;
    std::vector<Stack> stacks;
    std::vector<std::unique_ptr<obs::EventSink>> watched;
    /** The knobs.audit auditors, owned in watched. */
    std::vector<check::Auditor *> auditors;
    std::unique_ptr<obs::Telemetry> telemetry;

    std::vector<Cycle> failAt;
    std::size_t nextFail = 0;
    Cycle failBase = 0;
    RunStats *failSink = nullptr;
};

} // namespace sim
} // namespace ppa

#endif // PPA_SIM_RUN_HH

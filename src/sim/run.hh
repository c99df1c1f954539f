/**
 * @file
 * sim::Run, the one place that wires a simulated machine.
 *
 * A Run owns the System, each core's source stack (a base source, then
 * any transforms, the top one bound to the core), the auditors and
 * their shared StoreOracle, optional telemetry, run-owned observers
 * and an opened trace. It holds the single copy of the steps the
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

#include "check/observer.hh"
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
 * merged histogram of monotonic bins, so the segment runner subtracts
 * two snapshots exactly.
 */
struct Counters
{
    std::uint64_t committedInsts = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t regionCount = 0;
    std::uint64_t boundaryStall = 0;
    std::uint64_t renameStall = 0;

    // Per-core region sums (Average only exposes mean/count, so the
    // additive sum is reconstructed as mean * count; both snapshots
    // reconstruct identically, keeping the delta deterministic).
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

    /** Attach a run-owned Observer(@p args...) to @p core's audit slot. */
    template <class Observer, class... Args>
    Observer &
    watch(unsigned core, Args &&...args)
    {
        auto obs = std::make_unique<Observer>(std::forward<Args>(args)...);
        Observer &ref = *obs;
        sys->core(core).attachAuditObserver(&ref);
        observers.push_back(std::move(obs));
        return ref;
    }

    // ---- Schedule -----------------------------------------------------
    /** Arm auditedCrash(@p sink) at cycles @p base + @p at (any order);
     *  at most one fires per cycle. */
    void armFailures(std::vector<Cycle> at, Cycle base, RunStats &sink);

    /**
     * Tick (firing armed failures) until @p insts instructions have
     * committed, all cores are done, or the cycle reaches @p cap,
     * checking the target every @p check_every ticks. Returns the
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

    struct CrashView
    {
        std::vector<std::uint64_t> cut; ///< committed stores per core
        std::vector<Word> words;        ///< observed NVM, post-crash
        std::vector<CheckpointImage> images;
    };

    /** Read the store cut, crash(), then read @p observed from NVM. */
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
    void step();

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
    std::vector<std::unique_ptr<check::PipelineObserver>> observers;
    std::vector<std::unique_ptr<check::Auditor>> auditors;
    std::unique_ptr<obs::Telemetry> telemetry;

    std::vector<Cycle> failAt;
    std::size_t nextFail = 0;
    Cycle failBase = 0;
    RunStats *failSink = nullptr;
};

} // namespace sim
} // namespace ppa

#endif // PPA_SIM_RUN_HH

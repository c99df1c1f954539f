/**
 * @file
 * Experiment runner: builds a system variant, attaches workload
 * streams, runs for a fixed committed-instruction budget, and reports
 * the statistics the paper's figures plot.
 */

#ifndef PPA_SIM_EXPERIMENT_HH
#define PPA_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/telemetry.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

namespace ppa
{

/** The systems compared throughout the evaluation. */
enum class SystemVariant : std::uint8_t
{
    /** PMEM memory mode without persistence: the paper's baseline. */
    MemoryMode,
    /** The paper's design. */
    Ppa,
    /** Capri-style WSP (Figure 8). */
    Capri,
    /** ReplayCache-style WSP (Figure 1). */
    ReplayCache,
    /** Ideal PSP (eADR/BBB): app-direct, no DRAM cache (Figure 10). */
    EadrBbb,
    /** Volatile DRAM-only system (Figure 9 reference). */
    DramOnly,
};

/** Human-readable variant name. */
const char *variantName(SystemVariant variant);

/** CLI/serialization token for a variant ("memory-mode", "ppa", ...). */
const char *variantToken(SystemVariant variant);

/**
 * Parse a variant from its CLI/serialization token.
 * @return true and set @p out on success; false for unknown tokens.
 */
bool variantFromToken(const std::string &token, SystemVariant &out);

/**
 * Tweakable knobs for the sensitivity studies (Sections 7.6-7.11).
 *
 * These doc comments are the single source of truth for knob units
 * and semantics; docs/METRICS.md references them rather than
 * restating them.
 */
struct ExperimentKnobs
{
    unsigned threads = 0;     ///< Core/stream count; 0 = profile default
    unsigned wpqEntries = 16; ///< WPQ entries per NVM controller (Figure 15)
    unsigned intPrf = 180;    ///< Integer PRF entries (Figure 16)
    unsigned fpPrf = 168;     ///< FP PRF entries (Figure 16)
    unsigned csqEntries = 40; ///< Committed store queue entries (Figure 17)
    /**
     * Aggregate sustained NVM write bandwidth in GB/s (10^9 bytes per
     * second), shared evenly across the device's memory controllers
     * (Figure 18). The default is the paper's empirical Optane number.
     */
    double nvmWriteGbps = 2.3;
    bool l3Cache = false;     ///< Add a shared L3 above the DRAM cache (Figure 14)
    /** WB write-combining window in cycles; 0 = no persist coalescing
     *  (ablation of the Section 4.3 design choice). */
    unsigned wbCoalesceWindow = 1024;
    /** Committed-instruction budget per core for the whole run,
     *  warmup included. */
    std::uint64_t instsPerCore = 200'000;
    /** Root seed for the workload streams; stream t on core t draws
     *  from (seed, t), so runs are reproducible per (seed, config). */
    std::uint64_t seed = 42;
    /**
     * Warmup semantics (defined here, once): the first
     * warmupFraction * instsPerCore * threads committed instructions
     * warm the caches; measurement-window stats (RunStats::cycles)
     * start after that point, while RunStats::totalCycles spans the
     * whole run. This mirrors the paper's methodology of
     * fast-forwarding 5B instructions before its 1B-instruction
     * measured window, so the window is not cold-cache dominated.
     */
    double warmupFraction = 0.4;
    /**
     * Attach a ppa::check::Auditor to every core (PPA variant only;
     * ignored otherwise): every commit/persist event is validated
     * against the paper's crash-consistency invariants and violations
     * are reported in RunStats. Read-only instrumentation — cycle
     * counts are unchanged.
     */
    bool audit = false;
    /**
     * Inject a whole-system power failure at each of these absolute
     * cycles (PPA variant only): JIT-checkpoint every core, round-trip
     * the images through the checkpoint_io NVM serialization, recover,
     * and — when audit is on — diff the replayed NVM image against the
     * committed-store oracle (RunStats::replayMismatches).
     */
    std::vector<Cycle> failAtCycles;
    /**
     * When nonempty, drive every core from this recorded trace
     * directory (see docs/TRACING.md) instead of in-process
     * StreamGenerators. The run must agree with the trace manifest
     * about threads and instsPerCore — the stream is a pure function
     * of the trace, so a mismatch is a configuration error, not a
     * different experiment. RunStats then carries trace provenance.
     */
    std::string traceDir;

    // --- Time-parallel single-run simulation (docs/PERF.md) -------------
    /**
     * Split this one run into this many instruction segments and
     * simulate them concurrently (0 or 1 = the classic serial path).
     * Segmented runs use drain-boundary semantics: each segment starts
     * from a cold machine, re-converges microarchitectural state over
     * a discarded warmup prefix of tpWarmupInsts, and its measured
     * window is stitched into whole-run stats. The stitched result is
     * a pure function of (profile, variant, knobs) — host worker count
     * never changes it (tests/sim/test_time_parallel.cc) — and tracks
     * the unsegmented serial run up to a warmup-truncation error that
     * `ppa_cli --error-bound` quantifies.
     */
    unsigned timeParallel = 0;
    /** Per-segment re-convergence warmup prefix in instructions per
     *  core (stats discarded; clamped at stream start). */
    std::uint64_t tpWarmupInsts = 2'000;
    /** SimPoint-style sampling: simulate only segments 0, N, 2N, ...
     *  and extrapolate the rest (1 = simulate every segment). */
    unsigned tpSampleStride = 1;
    /** Host threads for segment execution; 0 = min(segments,
     *  hardware). Scheduling metadata only: results are identical for
     *  any value (the time-parallel determinism contract). */
    unsigned tpWorkers = 0;
    /**
     * Power failures for segmented runs: injected in segment
     * `segment` once the segment's measured window has run `cycle`
     * cycles (cycle 0 = exactly at the segment join). The classic
     * failAtCycles knob is a configuration error when timeParallel is
     * active, because absolute cycles of the stitched timeline are not
     * known until after the run.
     */
    struct SegmentFailure
    {
        unsigned segment = 0;
        Cycle cycle = 0;
    };
    std::vector<SegmentFailure> tpFailAt;

    // --- In-run telemetry (docs/TELEMETRY.md) ---------------------------
    /**
     * Attach the obs::Telemetry collector: sampled counter series,
     * region/power timelines, and per-cycle stall attribution land in
     * RunStats::telemetry (serialized as `stats.telemetry`). Off by
     * default; the off path costs one null-pointer test per hook site.
     * The enabled collector must cost under 5% of wall time; CI's
     * perfbench-smoke job gates that (docs/TELEMETRY.md). Read-only
     * instrumentation — simulated behaviour and every other stat are
     * bitwise unchanged.
     */
    bool telemetry = false;
    /** Counter-series sampling period in cycles (telemetry only). */
    std::uint64_t telemetrySampleCycles = 256;
    /** Bucket capacity per counter series; a full series merges
     *  adjacent buckets (stride doubles) so memory stays bounded on
     *  arbitrarily long runs (telemetry only; rounded down to even). */
    std::uint64_t telemetrySeriesCap = 1024;
};

/** Everything a figure could want from one run. */
struct RunStats
{
    std::string workload;
    SystemVariant variant = SystemVariant::MemoryMode;
    unsigned threads = 1;

    /** Measured-window cycles (post-warmup; use for slowdowns). */
    Cycle cycles = 0;
    /** Whole-run cycles including warmup (use for stall ratios). */
    Cycle totalCycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t committedStores = 0;
    double ipc = 0.0;

    // Region characteristics (PPA/Capri), aggregated over cores.
    double avgRegionStores = 0.0;
    double avgRegionOthers = 0.0;
    std::uint64_t regionCount = 0;
    std::uint64_t boundaryStallCycles = 0;
    std::uint64_t renameStallNoRegCycles = 0;

    // Memory-system behaviour.
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmReads = 0;
    std::uint64_t nvmBytesWritten = 0;
    std::uint64_t wpqStallCycles = 0;
    double l2MissRatio = 0.0;
    std::uint64_t coalescedStores = 0;
    std::uint64_t persistOps = 0;

    // Free-register CDFs (merged across cores; Figure 5).
    stats::Histogram freeIntHist;
    stats::Histogram freeFpHist;

    // Invariant-audit results (populated when knobs.audit is set).
    std::uint64_t auditEvents = 0;       ///< Observed pipeline events
    std::uint64_t auditViolations = 0;   ///< Invariant violations
    std::uint64_t powerFailures = 0;     ///< Injected power failures
    std::uint64_t replayAudits = 0;      ///< Per-core replay diffs run
    std::uint64_t replayMismatches = 0;  ///< Replayed-NVM diff failures
    std::uint64_t replayAddrsChecked = 0;///< Addresses diffed in total
    /** Capped sample of violation reports (context + description). */
    std::vector<std::string> auditMessages;

    // Trace provenance (populated when knobs.traceDir is set): where
    // the committed stream came from and how to recognize it.
    std::string traceDir;            ///< Trace directory path
    unsigned traceShards = 0;        ///< Shard files in the trace
    std::uint64_t traceInsts = 0;    ///< Total recorded instructions
    std::uint32_t traceCrc = 0;      ///< Combined shard-CRC fingerprint

    // Time-parallel provenance (populated when knobs.timeParallel >= 2;
    // see docs/PERF.md for the accuracy contract).
    unsigned tpSegments = 0;          ///< Segments in the plan
    unsigned tpSimulatedSegments = 0; ///< Segments actually simulated
    std::uint64_t tpWarmupInsts = 0;  ///< Warmup prefix per segment
    unsigned tpSampleStride = 1;      ///< Sampling stride (1 = exact)
    /** Cycles spent in discarded per-segment warmup prefixes (overlap
     *  work; not part of cycles/totalCycles). */
    std::uint64_t tpWarmupCycles = 0;
    /** Sampled mode only: relative standard error of per-segment CPI
     *  across the simulated segments (0 when every segment ran). */
    double tpCpiRelStderr = 0.0;

    /** In-run telemetry (populated when knobs.telemetry is set;
     *  serialized additively as `stats.telemetry`). */
    obs::TelemetryResult telemetry;

    /** Boundary-stall cycles as a fraction of all cycles (Fig. 11). */
    double
    boundaryStallRatio() const
    {
        return totalCycles
                   ? static_cast<double>(boundaryStallCycles) /
                         static_cast<double>(totalCycles)
                   : 0.0;
    }

    /** Rename no-free-reg stalls as a fraction of cycles (Fig. 12). */
    double
    renameStallRatio() const
    {
        return totalCycles
                   ? static_cast<double>(renameStallNoRegCycles) /
                         static_cast<double>(totalCycles)
                   : 0.0;
    }
};

/** Build the SystemConfig for a (variant, knobs, threads) triple. */
SystemConfig makeSystemConfig(SystemVariant variant,
                              const ExperimentKnobs &knobs,
                              unsigned threads);

/**
 * Run @p profile on @p variant and return its statistics.
 * Multithreaded profiles run one stream per thread/core.
 */
RunStats runWorkload(const WorkloadProfile &profile,
                     SystemVariant variant,
                     const ExperimentKnobs &knobs = {});

/** Cycle-count ratio of @p test to @p baseline ("slowdown"). */
double slowdown(const RunStats &test, const RunStats &baseline);

/** Geometric mean of a series of slowdowns. */
double geomean(const std::vector<double> &values);

} // namespace ppa

#endif // PPA_SIM_EXPERIMENT_HH

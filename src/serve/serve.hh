/**
 * @file
 * Open-loop transaction-serving study (docs/SERVING.md).
 *
 * runServeVariant() drives one system variant with per-core request
 * streams (serve/request_source.hh) and measures:
 *
 *  - per-request latency on the open-loop timeline: arrival times
 *    come from the stream's ArrivalProcess, service times from the
 *    simulated commit cycles of consecutive ack stores, and the two
 *    are combined with the Lindley recursion (start_i = max(arrival_i,
 *    finish_{i-1}), finish_i = start_i + service_i), which is exact
 *    for a FIFO single-server queue per core;
 *  - offered vs achieved throughput (requests per kilocycle);
 *  - under injected whole-system power failures at many deterministic
 *    points of the service timeline: the data-loss window (crash
 *    cycle minus completion cycle of the last *durable* request, read
 *    from the post-crash NVM image), lost-but-completed request
 *    counts, and a modeled software/hardware recovery time. The
 *    measuring run reads each crash's durable state as it passes
 *    (sim::Run::crashView), so a variant is simulated once.
 *
 * Every run is a pure function of (config, variant); variants execute
 * on a host worker pool whose size never changes any result (results
 * are stored by variant index — the serial==parallel bitwise contract
 * the serve tests pin).
 */

#ifndef PPA_SERVE_SERVE_HH
#define PPA_SERVE_SERVE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "serve/arrival.hh"
#include "serve/latency.hh"
#include "serve/request_source.hh"
#include "sim/run.hh"

namespace ppa
{
namespace serve
{

/** The durability schemes the serving study compares. */
enum class ServeVariant : std::uint8_t
{
    /** Whole-system persistence in hardware (the paper's design). */
    Ppa,
    /** Software undo/redo-logging transactions
     *  (baselines/durability.hh, UndoRedoLogTransform). */
    UndoRedoLog,
    /** Software flush-on-publish durable structures
     *  (baselines/durability.hh, DelayFreeTransform). */
    DelayFree,
};

/** CLI/serialization token ("ppa", "undo-redo-log", "delay-free"). */
const char *serveVariantToken(ServeVariant v);

/** Parse a serve-variant token; false for unknown tokens. */
bool serveVariantFromToken(const std::string &token, ServeVariant &out);

/** All serve variants, in comparison order. */
std::vector<ServeVariant> allServeVariants();

/** Configuration of one serving study (shared by all variants). */
struct ServeConfig
{
    ServeWorkload workload = ServeWorkload::Tatp;
    /** Total requests across all threads. */
    std::uint64_t requests = 1'000'000;
    unsigned threads = 2;
    /** Key-space size per thread; power of two. */
    std::uint64_t keys = 4096;
    /** Zipfian skew theta (0 = uniform). */
    double skew = 0.99;
    /** kv GET percentage, 0..100. */
    unsigned readPct = 50;
    ArrivalParams arrival;
    /** Injected power-failure points per variant (0 = skip). */
    unsigned failures = 8;
    std::uint64_t seed = 42;
    /** Host threads across variants; 0 = hardware. Scheduling
     *  metadata only — results are identical for any value. */
    unsigned workers = 0;
    /** Collect obs::Telemetry (and request spans) on the
     *  measurement run. */
    bool telemetry = false;
    std::uint64_t telemetrySampleCycles = 256;
    std::uint64_t telemetrySeriesCap = 1024;
};

/** One injected power failure and what it cost. */
struct FailurePoint
{
    /** Crash cycle: an evenly spaced point of the service timeline,
     *  rounded down to the variant's view grid. */
    Cycle cycle = 0;
    Cycle recoveryCycles = 0; ///< modeled recovery time
    /** Span from the first lost request's completion to the crash —
     *  how far back acknowledged work can disappear; 0 when every
     *  completed request survived. Max over threads. */
    Cycle lossWindow = 0;
    std::uint64_t completedRequests = 0; ///< acked by the crash
    std::uint64_t durableRequests = 0;   ///< survive the crash
    std::uint64_t lostRequests = 0;      ///< completed - durable
};

/** Results for one variant of the study. */
struct ServeVariantStats
{
    ServeVariant variant = ServeVariant::Ppa;
    std::uint64_t requests = 0;  ///< configured
    std::uint64_t completed = 0; ///< acks committed
    /** Last ack commit cycle (the service timeline's length). */
    Cycle serviceCycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t committedStores = 0;
    /** Configured arrival rate, requests per 1000 cycles. */
    double offeredPerKcycle = 0.0;
    /** Completed / open-loop makespan, requests per 1000 cycles. */
    double achievedPerKcycle = 0.0;
    /** Open-loop request latency, cycles (all threads merged). */
    LogHistogram latency;
    /** Instructions the durability transform injected (0 for ppa). */
    std::uint64_t injectedClwbs = 0;
    std::uint64_t injectedFences = 0;
    std::uint64_t injectedLogStores = 0;
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmBytesWritten = 0;
    std::vector<FailurePoint> failures;
    /** Cycles between the crash views the failure points are rounded
     *  to: a power of two, 1 for short runs; 0 without failures. */
    Cycle failureGrid = 0;
    /** Populated when ServeConfig::telemetry is set. */
    obs::TelemetryResult telemetry;
};

/** A whole study: the shared config plus one entry per variant. */
struct ServeStats
{
    ServeConfig config;
    std::vector<ServeVariantStats> variants;
};

/** One simulation of a variant, wired as the study wires it. */
struct ServeRun
{
    /** Per-core request streams under the variant's durability
     *  transform, sources bound. */
    std::unique_ptr<sim::Run> run;
    /** Per core: the commit cycle of each request's ack so far. */
    std::vector<const std::vector<Cycle> *> acks;
    /** Per core: the NVM word holding its durable frontier, the last
     *  acked (ppa, delay-free) or committed (undo/redo logging)
     *  sequence number. */
    std::vector<Addr> frontier;
};

ServeRun makeServeRun(const ServeConfig &config, ServeVariant variant);

/** Modeled recovery time (docs/SERVING.md) from each core's
 *  checkpointed CSQ entries and the requests the crash lost. */
Cycle modelRecovery(const ServeConfig &config, ServeVariant variant,
                    const std::vector<std::size_t> &csq_entries,
                    std::uint64_t lost_requests);

/** Run one variant of the study. */
ServeVariantStats runServeVariant(const ServeConfig &config,
                                  ServeVariant variant);

/** Run the study for @p variants (in order). */
ServeStats runServeStudy(const ServeConfig &config,
                         const std::vector<ServeVariant> &variants);

/** Serialize a study as a schema-v1 JSON document (kind "serve");
 *  per-variant metrics live under each variant's `stats.serve`. */
std::string serveToJson(const ServeStats &stats);

} // namespace serve
} // namespace ppa

#endif // PPA_SERVE_SERVE_HH

/**
 * @file
 * Shared pieces of the repository benchmark: host clock, span tracer,
 * result collection, and the interface every workload implements.
 *
 * Every timing here is host time (std::chrono::steady_clock). Simulated
 * quantities (cycles, committed instructions, NVM writes, ...) are
 * collected separately as SimCounts and must repeat bit for bit.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "sim/system.hh"

namespace perfbench
{

/** Host nanoseconds on the monotonic clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since @p start_ns. */
inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile of @p v for @p frac in [0, 1]. */
double percentile(std::vector<double> v, double frac);

/**
 * In-memory span recorder for the traced run. A span is a named host
 * interval with a parent span and an id shared by the spans of one
 * job, variant or crash point. Spans are kept in memory and written
 * out once, at exit. Thread-safe: worker threads record into the same
 * tracer, naming their parent explicitly.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        unsigned thread = 0;
    };

    /** Aggregate of every span with one name. */
    struct Totals
    {
        std::uint64_t count = 0;
        double selfSeconds = 0.0; ///< durations minus child spans
    };

    /** Open a span; returns its handle for end(). */
    int begin(const std::string &name, std::uint64_t id, int parent);
    void end(int handle);

    /** Record a span measured elsewhere (e.g. a driver job's wall). */
    int record(const std::string &name, std::uint64_t id,
               std::int64_t start_ns, std::int64_t end_ns, int parent);

    /** The innermost span open on the calling thread, or -1. */
    static int current();

    /** Totals per span name; self time subtracts direct children. */
    std::map<std::string, Totals> totals() const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<Span> spans; // guarded by mu
};

/**
 * RAII span. With a null tracer it records nothing, so untraced
 * iterations pay one branch per call site.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name,
               std::uint64_t id = 0, int parent = Tracer::current());
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tr;
    int spanHandle = -1;
};

/**
 * Simulated, exactly repeatable quantities of one iteration. Keys that
 * start with "telemetry:" come from traced iterations only.
 */
using SimCounts = std::map<std::string, double>;

/** Add the obs stall partition's persist-path classes to @p sim. */
void addStallCycles(const ppa::obs::TelemetryResult &t, SimCounts &sim);

/** Correctness checks and metric values of one benchmark run. */
class Results
{
  public:
    /** Count one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);

    /** Set a metric; its unit comes from the table in main.cc. */
    void set(const std::string &name, double value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure messages
    std::map<std::string, double> metrics;

  private:
    std::mutex mu;
};

/** What one timed iteration of a workload produced. */
struct Iteration
{
    /** Simulated kilo-instructions that sim_kips counts... */
    double kiloInsts = 0.0;
    /** ...and the host seconds they took. */
    double kipsSeconds = 0.0;
    /** Simulated counts; every iteration must repeat the first's. */
    SimCounts sim;
};

/** Run-wide settings handed to every workload. */
struct Config
{
    std::uint64_t seed = 1;
    /** Host worker threads a workload may fan out to. */
    unsigned workers = 1;
    /** Self-test scale: same code paths, much smaller inputs. */
    bool tiny = false;
    /** Scratch directory for traces and reproducers. */
    std::string scratch;
};

/**
 * One benchmark workload. The driver (main.cc) calls setup() a few
 * times (their median is setup_s), then iterate() repeatedly for the
 * measured interval, checking every iteration's outputs; a traced run
 * alternates untraced and traced iterations and finishes with probe().
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs; repeatable (each call starts from scratch). */
    virtual void setup(Tracer *tracer) = 0;

    /** One timed body. @p tracer is null in untraced iterations. */
    virtual Iteration iterate(Tracer *tracer) = 0;

    /** Check the outputs of the iteration that just ran. */
    virtual void check(Results &out) = 0;

    /** Host-time workload metrics gathered over untraced iterations. */
    virtual void hostMetrics(Results &out) = 0;

    /** Traced run only: time layer calls on fixed samples. */
    virtual void probe(Tracer &tracer, Results &out) = 0;

    /** Host threads the workload runs its simulations on. */
    virtual unsigned hostThreads() const = 0;
};

std::unique_ptr<Workload> makeSweep(const Config &cfg);
std::unique_ptr<Workload> makeServeCrash(const Config &cfg);
std::unique_ptr<Workload> makeCrashCheck(const Config &cfg);
std::unique_ptr<Workload> makeTpReplay(const Config &cfg);

/** Host cost of one cycle, split as System::tick() splits it. */
struct TickCost
{
    double coreNsPerCoreCycle = 0.0;
    double memNsPerCycle = 0.0;
};

/**
 * Step @p system for at most @p cycles cycles the way System::tick()
 * does (hierarchy first, then every core), timing every
 * kTickSampleStride-th cycle. Only for probe systems: the System's own
 * cycle counter does not advance.
 */
TickCost tickProbe(ppa::System &system, ppa::Cycle cycles);

inline constexpr ppa::Cycle kTickSampleStride = 4;

/**
 * Host seconds of one fixed reference job on the calling thread: random
 * reads with data-dependent branches over a 4 MiB table, then over a
 * 256 KiB one. The job is this directory's code alone, so no change to
 * the simulator moves it; only the host's current speed does. The
 * driver runs it between iterations and divides host times by it.
 */
double hostProbeSeconds();

/** Self seconds per span of the spans named @p name (0 if none). */
double spanSelfSeconds(const std::map<std::string, Tracer::Totals> &t,
                       const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

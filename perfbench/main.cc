/**
 * @file
 * ppa_perfbench: the repository benchmark's driver binary.
 *
 *   ppa_perfbench --workload W --seed N --seconds S --trace 0|1
 *                 [--workers N] [--tiny] [--scratch DIR] [--spans FILE]
 *
 * Runs set-up several times, then the workload's timed body
 * repeatedly for --seconds, checking the outputs of every iteration,
 * and prints one JSON document on stdout. A fixed host probe runs
 * between iterations, and end-to-end host times are scaled by it. An
 * untraced run reports the end-to-end metrics; a traced run alternates
 * untraced and traced iterations, adds layer probes, and reports the
 * per-layer metrics.
 * perfbench/run.py builds this binary and wraps its output.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"

namespace perfbench
{
namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

/** Every metric the benchmark prints; BENCHMARK.json lists the same. */
const MetricDef kMetrics[] = {
    // End to end: printed by every untraced run, host time.
    {"setup_s", "s", true},
    {"wall_s", "s", true},
    {"peak_rss_mb", "MiB", true},
    {"sim_kips", "kinst/s", true},
    // Per layer: printed by every traced run (0 = not exercised).
    {"error_rate", "ratio", false},
    {"job_p50_ms", "ms", false},
    {"job_p75_ms", "ms", false},
    {"crash_points_per_s", "1/s", false},
    {"crash_p50_us", "us", false},
    {"crash_p99_us", "us", false},
    {"tp_speedup", "ratio", false},
    {"tp_error_pct", "%", false},
    {"workload.next_ns", "ns", false},
    {"core.tick_ns", "ns", false},
    {"mem.tick_ns", "ns", false},
    {"sim.build_us", "us", false},
    {"sim.power_fail_us", "us", false},
    {"sim.recover_us", "us", false},
    {"ppa.checkpoint_roundtrip_us", "us", false},
    {"sim.driver_busy_share", "ratio", false},
    {"serve.next_ns", "ns", false},
    {"baselines.next_ns", "ns", false},
    {"serve.measure_s", "s", false},
    {"serve.branch_s", "s", false},
    {"trace.next_ns", "ns", false},
    {"trace.seek_us", "us", false},
    {"trace.record_s", "s", false},
    {"segment.warmup_cycle_share", "ratio", false},
    {"check.reference_ms", "ms", false},
    {"check.observe_us", "us", false},
    {"check.judge_us", "us", false},
    {"fuzz.campaign_s.ppa", "s", false},
    {"fuzz.campaign_s.memory-mode", "s", false},
    {"fuzz.shrink_ms", "ms", false},
    {"sim.cycles", "cycles", false},
    {"sim.insts", "insts", false},
    {"mem.nvm_writes", "count", false},
    {"ppa.regions", "count", false},
    {"mem.wpq_full_cycles", "cycles", false},
    {"mem.nvm_bw_cycles", "cycles", false},
    {"ppa.csq_full_cycles", "cycles", false},
    {"serve.p99_cycles.ppa", "cycles", false},
    {"serve.p99_cycles.undo-redo-log", "cycles", false},
    {"serve.p99_cycles.delay-free", "cycles", false},
    {"serve.achieved_per_kcycle.ppa", "req/kcycle", false},
    {"serve.achieved_per_kcycle.undo-redo-log", "req/kcycle", false},
    {"serve.achieved_per_kcycle.delay-free", "req/kcycle", false},
    {"trace_overhead_pct", "%", false},
};

const MetricDef *
findMetric(const std::string &name)
{
    for (const MetricDef &d : kMetrics)
        if (name == d.name)
            return &d;
    return nullptr;
}

constexpr std::size_t kMinUntracedIters = 3;
constexpr std::size_t kMinTracedIters = 2;
constexpr unsigned kMinSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
constexpr unsigned kMaxSetupReps = 200;

/**
 * hostProbeSeconds() on the 4-vCPU reference host in a quiet period.
 * Host times are scaled by this over the probe times measured around
 * them, so they read as seconds on that host at that speed.
 */
constexpr double kReferenceProbeSeconds = 0.022;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    unsigned workers = 1;
    bool tiny = false;
    std::string scratch = ".bench_build/perfbench-scratch";
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ppa_perfbench: " << why << "\n"
              << "usage: ppa_perfbench --workload "
                 "sweep|serve-crash|crash-check|tp-replay --seed N "
                 "--seconds S --trace 0|1 [--workers N] [--tiny] "
                 "[--scratch DIR] [--spans FILE]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUnsigned(flag, v);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseUnsigned(flag, v));
        else if (flag == "--trace")
            a.traced = parseUnsigned(flag, v) != 0;
        else if (flag == "--workers")
            a.workers = static_cast<unsigned>(parseUnsigned(flag, v));
        else if (flag == "--scratch")
            a.scratch = v;
        else if (flag == "--spans")
            a.spans = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.workers < 1 || a.workers > 2)
        usage("--workers must be 1 or 2");
    return a;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c == '\n' ? ' ' : c);
    }
    return out + "\"";
}

/** Mean of the middle half of @p v (the whole of it below 4 values). */
double
interquartileMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return v.empty() ? 0.0
                     : sum / static_cast<double>(v.size() - 2 * cut);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);

    const std::string buildType = PERFBENCH_BUILD_TYPE;
    const std::string sanitize = PERFBENCH_SANITIZE;
    if (buildType != "Release" || !sanitize.empty()) {
        std::cerr << "ppa_perfbench: refusing to measure a '" << buildType
                  << "' build" << (sanitize.empty() ? "" : " with sanitizers")
                  << "; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }

    Config cfg;
    cfg.seed = args.seed;
    cfg.workers = args.workers;
    cfg.tiny = args.tiny;
    cfg.scratch = args.scratch;

    std::unique_ptr<Workload> wl;
    if (args.workload == "sweep")
        wl = makeSweep(cfg);
    else if (args.workload == "serve-crash")
        wl = makeServeCrash(cfg);
    else if (args.workload == "crash-check")
        wl = makeCrashCheck(cfg);
    else if (args.workload == "tp-replay")
        wl = makeTpReplay(cfg);
    else
        usage("unknown workload '" + args.workload + "'");

    Results res;
    Tracer tracer;
    Tracer *tr = args.traced ? &tracer : nullptr;

    // One untimed set-up lets the host CPU leave its idle clock and
    // faults in code and heap; then at least kMinSetupReps timed ones,
    // and cheap ones repeat until a second of samples. The host
    // probe runs before and after them.
    wl->setup(nullptr);
    std::vector<double> setupSeconds;
    const double setupProbeBefore = hostProbeSeconds();
    const std::int64_t setupStart = nowNs();
    for (unsigned r = 0; r < kMinSetupReps ||
                         (secondsSince(setupStart) < kSetupSeconds &&
                          r < kMaxSetupReps);
         ++r) {
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(tr, "setup", r);
            wl->setup(tr);
        }
        setupSeconds.push_back(secondsSince(t0));
    }
    const double setupProbe = 0.5 * (setupProbeBefore + hostProbeSeconds());

    // Timed body. A traced run alternates untraced and traced
    // iterations so both see the same host conditions. The host probe
    // runs before every iteration and once after the last;
    // probeAt[k] is the probe before untraced iteration k.
    std::vector<double> walls, tracedWalls, kips, probes;
    std::vector<std::size_t> probeAt;
    std::optional<SimCounts> firstSim;
    SimCounts tracedSim;
    const std::int64_t start = nowNs();
    for (std::size_t n = 0;; ++n) {
        const bool tracedIter = args.traced && n % 2 == 1;
        Tracer *itTracer = tracedIter ? tr : nullptr;
        probes.push_back(hostProbeSeconds());
        std::int64_t t0 = nowNs();
        Iteration it;
        {
            ScopedSpan span(itTracer, "iteration", n);
            it = wl->iterate(itTracer);
        }
        double wall = secondsSince(t0);
        if (tracedIter) {
            tracedWalls.push_back(wall);
            tracedSim = it.sim;
        } else {
            probeAt.push_back(probes.size() - 1);
            walls.push_back(wall);
            kips.push_back(it.kipsSeconds > 0.0
                               ? it.kiloInsts / it.kipsSeconds
                               : 0.0);
        }
        wl->check(res);

        // Telemetry-only keys exist in traced iterations alone.
        SimCounts core;
        for (const auto &[k, v] : it.sim)
            if (k.rfind("telemetry:", 0) != 0)
                core[k] = v;
        if (!firstSim)
            firstSim = core;
        else
            res.check(core == *firstSim,
                      "iteration " + std::to_string(n) +
                          " repeats the simulated counts of iteration 0");

        bool enough = walls.size() >= kMinUntracedIters &&
                      (!args.traced || tracedWalls.size() >= kMinTracedIters);
        if (enough && secondsSince(start) >= args.seconds)
            break;
    }

    probes.push_back(hostProbeSeconds());

    // Co-tenants on a shared host slow everything on it, by 20-40% for
    // seconds to minutes at a time. Each iteration's host time is
    // scaled by the reference probe time over the mean of the probes
    // just before and after it, and the run reports the mean of the
    // middle half of the scaled iterations.
    std::vector<double> scaledWalls, scaledKips;
    for (std::size_t k = 0; k < walls.size(); ++k) {
        const std::size_t p = probeAt[k];
        const double scale = kReferenceProbeSeconds /
                             (0.5 * (probes[p] + probes[p + 1]));
        scaledWalls.push_back(walls[k] * scale);
        scaledKips.push_back(kips[k] / scale);
    }
    res.set("setup_s",
            median(setupSeconds) * kReferenceProbeSeconds / setupProbe);
    res.set("wall_s", interquartileMean(scaledWalls));
    res.set("peak_rss_mb", peakRssMiB());
    res.set("sim_kips", interquartileMean(scaledKips));

    wl->hostMetrics(res);
    if (args.traced) {
        wl->probe(tracer, res);
        // Simulated counts beyond the table only feed the repeat check.
        for (const auto &[k, v] : *firstSim)
            if (findMetric(k))
                res.set(k, v);
        for (const auto &[k, v] : tracedSim)
            if (k.rfind("telemetry:", 0) == 0)
                res.set(k.substr(10), v);
        res.set("trace_overhead_pct",
                (median(tracedWalls) / median(walls) - 1.0) * 100.0);
        res.set("error_rate", res.attempted
                                  ? static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted)
                                  : 1.0);
        if (!args.spans.empty() && !tracer.writeChromeTrace(args.spans))
            res.check(false, "write spans to " + args.spans);
    }

    // Exactly the mode's metrics, in table order; end-to-end values
    // must exist, per-layer ones default to 0 (layer not exercised).
    std::ostringstream metrics, detail;
    bool firstM = true, firstD = true;
    for (const MetricDef &d : kMetrics) {
        auto it = res.metrics.find(d.name);
        bool have = it != res.metrics.end();
        if (d.endToEnd == !args.traced) {
            if (d.endToEnd)
                res.check(have && it->second > 0.0,
                          std::string("end-to-end metric ") + d.name +
                              " measured");
            double v = have ? it->second : 0.0;
            metrics << (firstM ? "" : ", ") << quoted(d.name)
                    << ": {\"value\": " << num(v)
                    << ", \"unit\": " << quoted(d.unit) << "}";
            firstM = false;
        } else if (have) {
            detail << (firstD ? "" : ", ") << quoted(d.name) << ": "
                   << num(it->second);
            firstD = false;
        }
    }
    for (const auto &[k, v] : res.metrics)
        if (!findMetric(k))
            res.check(false, "metric '" + k + "' is not in the table");

    std::cout << "{\"workload\": " << quoted(args.workload)
              << ", \"seed\": " << args.seed
              << ", \"trace\": " << (args.traced ? 1 : 0)
              << ", \"attempted\": " << res.attempted
              << ", \"failed\": " << res.failed << ", \"failures\": [";
    for (std::size_t i = 0; i < res.failures.size(); ++i)
        std::cout << (i ? ", " : "") << quoted(res.failures[i]);
    std::cout << "], \"metrics\": {" << metrics.str() << "}"
              << ", \"detail\": {" << detail.str() << "}"
              << ", \"provenance\": {\"build_type\": " << quoted(buildType)
              << ", \"lto\": " << PERFBENCH_LTO
              << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"host_threads\": " << wl->hostThreads()
              << ", \"workers\": " << args.workers
              << ", \"tiny\": " << (args.tiny ? "true" : "false")
              << ", \"setup_reps\": " << setupSeconds.size()
              << ", \"unscaled_setup_s\": " << num(median(setupSeconds))
              << ", \"unscaled_wall_s\": " << num(interquartileMean(walls))
              << ", \"unscaled_sim_kips\": " << num(interquartileMean(kips))
              << ", \"host_probe_s\": " << num(median(probes))
              << ", \"iteration_walls\": [";
    for (std::size_t i = 0; i < walls.size(); ++i)
        std::cout << (i ? ", " : "") << num(walls[i]);
    std::cout << "], \"traced_iterations\": " << tracedWalls.size()
              << "}}" << std::endl;
    return 0;
}

/**
 * @file
 * ppa_cli — command-line driver for the simulator.
 *
 * Run any of the 41 modeled applications on any system variant and
 * print a full statistics report, optionally side by side with the
 * memory-mode baseline:
 *
 *   ppa_cli --list
 *   ppa_cli --app gcc --variant ppa --insts 50000 --compare
 *   ppa_cli --app rb --variant ppa --wpq 8 --bw 1.0
 *   ppa_cli --app water-sp --variant capri --threads 16
 *
 * The sweep subcommand runs a whole figure's simulation grid across
 * hardware threads, prints the figure's table, and writes the
 * schema-versioned JSON document (docs/METRICS.md) that figure
 * plotting consumes:
 *
 *   ppa_cli sweep --list
 *   ppa_cli sweep fig11
 *   ppa_cli sweep fig18 --jobs 8 --insts 30000 --out /tmp/res --csv
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "check/litmus.hh"
#include "common/table.hh"
#include "fuzz/campaign.hh"
#include "fuzz/shrink.hh"
#include "obs/telemetry.hh"
#include "obs/trace_export.hh"
#include "serve/serve.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/segment.hh"
#include "sim/figures.hh"
#include "sim/report.hh"
#include "trace/capture.hh"
#include "trace/reader.hh"

using namespace ppa;

namespace
{

void
usageRun()
{
    std::printf(
        "subcommand: run — simulate one application (the default "
        "when no\n"
        "subcommand is named)\n"
        "  ppa_cli [run] --app NAME [options]\n"
        "  --list              list the modeled applications\n"
        "  --app NAME          application to run (required unless "
        "--list)\n"
        "  --variant V         memory-mode | ppa | capri | "
        "replaycache | eadr-bbb | dram-only (default: ppa)\n"
        "  --insts N           committed instructions per core "
        "(default 50000)\n"
        "  --threads N         thread/core count (default: profile)\n"
        "  --csq N             CSQ entries (default 40)\n"
        "  --int-prf N         integer PRF entries (default 180)\n"
        "  --fp-prf N          FP PRF entries (default 168)\n"
        "  --wpq N             WPQ entries per controller (default "
        "16)\n"
        "  --bw G              NVM write bandwidth GB/s (default "
        "2.3)\n"
        "  --l3                add an L3 between L2 and DRAM cache\n"
        "  --seed N            workload seed (default 42)\n"
        "  --compare           also run the memory-mode baseline and "
        "report the slowdown\n"
        "  --audit             attach the persistence-invariant "
        "auditors (ppa variant)\n"
        "  --fail-at-cycle N   inject a power failure at cycle N and "
        "recover through the\n"
        "                      serialized checkpoint (repeatable; ppa "
        "variant)\n"
        "  --trace DIR         replay a recorded trace instead of the "
        "generator; threads,\n"
        "                      insts, seed and app come from the "
        "manifest\n"
        "  --time-parallel K   split this one run into K instruction "
        "segments and simulate\n"
        "                      them concurrently (docs/PERF.md; not "
        "replaycache)\n"
        "  --warmup-insts N    per-segment warmup prefix in "
        "instructions, discarded while\n"
        "                      microarchitectural state re-converges "
        "(default 2000)\n"
        "  --sampled N         SimPoint-style sampling: simulate only "
        "every Nth segment and\n"
        "                      extrapolate, reporting a confidence "
        "estimate (default 1)\n"
        "  --tp-workers N      host threads for segment execution "
        "(0 = hardware); results\n"
        "                      are identical for any value\n"
        "  --tp-fail S:C       inject a power failure in segment S "
        "once its measured window\n"
        "                      has run C cycles (C=0 = exactly at the "
        "segment join;\n"
        "                      repeatable; ppa variant)\n"
        "  --error-bound       also run the unsegmented serial "
        "reference and report the\n"
        "                      per-stat warmup-truncation delta "
        "(requires --time-parallel)\n"
        "  --json FILE         also write the run's RunStats JSON to "
        "FILE\n"
        "  --telemetry         attach the in-run telemetry collector "
        "(docs/TELEMETRY.md):\n"
        "                      sampled counter series, region/power "
        "timelines, and\n"
        "                      stall attribution land in "
        "stats.telemetry\n"
        "  --telemetry-sample N  counter-series sampling period in "
        "cycles (default 256;\n"
        "                      implies --telemetry)\n"
        "  --telemetry-trace FILE  write a Chrome trace-event JSON of "
        "the run, loadable\n"
        "                      in Perfetto / chrome://tracing (implies "
        "--telemetry)\n");
}

void
usageProfile()
{
    std::printf(
        "subcommand: profile — run with telemetry and print where the "
        "cycles went\n"
        "  ppa_cli profile APP [options]\n"
        "  --variant V         system variant (default: ppa)\n"
        "  --insts N           committed instructions per core "
        "(default 50000)\n"
        "  --threads N         thread/core count (default: profile)\n"
        "  --seed N            workload seed (default 42)\n"
        "  --telemetry-sample N  counter-series sampling period in "
        "cycles (default 256)\n"
        "  --telemetry-trace FILE  also write the Chrome trace-event "
        "JSON\n"
        "  --json FILE         also write the run's RunStats JSON "
        "(with stats.telemetry)\n");
}

void
usageTrace()
{
    std::printf(
        "subcommand: trace — record/inspect committed-stream traces\n"
        "  ppa_cli trace record --app NAME --out DIR [--insts N] "
        "[--seed N] [--threads N]\n"
        "                       [--shard-insts N] [--block-insts N]\n"
        "  ppa_cli trace info DIR      print the manifest and shard "
        "table\n"
        "  ppa_cli trace cat DIR [--thread T] [--limit N] [--start I]  "
        "dump records as text\n"
        "  ppa_cli trace verify DIR    check manifest, CRCs, and "
        "decode every block\n");
}

void
usageSweep()
{
    std::printf(
        "subcommand: sweep — run one figure's full grid in parallel and "
        "print its table\n"
        "  ppa_cli sweep FIGURE [options]\n"
        "  ppa_cli sweep --list    list the available figure sweeps\n"
        "  --jobs N            driver worker threads (default: "
        "hardware)\n"
        "  --insts N           committed instructions per core "
        "(default: figure's own)\n"
        "  --seed N            workload seed (default 42)\n"
        "  --out DIR           output directory (default: "
        "$PPA_RESULTS_DIR or results)\n"
        "  --csv               also write FIGURE.csv next to the "
        "JSON\n"
        "  --audit             run every ppa-variant job with the "
        "invariant auditors attached\n"
        "  --telemetry         run every job with telemetry attached "
        "and write one Chrome\n"
        "                      trace per job under "
        "FIGURE_telemetry/\n");
}

void
usageLitmus()
{
    std::printf(
        "subcommand: litmus — persistency-model conformance checks "
        "(docs/CHECKING.md)\n"
        "  ppa_cli litmus list                    show the litmus "
        "corpus\n"
        "  ppa_cli litmus run [TEST...] [options]     exhaustive "
        "crash-point enumeration\n"
        "  ppa_cli litmus explore [TEST...] [options] auditor-biased "
        "randomized crashes\n"
        "  --all               run the whole corpus\n"
        "  --variant V         system variant to crash-observe "
        "(default: ppa; memory-mode\n"
        "                      and replaycache are judged against "
        "their own model flavors)\n"
        "  --schedules N       explore: crash points to sample per "
        "test (default 64)\n"
        "  --seed N            explore: crash-schedule RNG seed "
        "(default 1)\n"
        "  --json FILE         write the conformance verdicts as JSON "
        "(tools/litmus_report.py\n"
        "                      aggregates results/litmus_*.json)\n"
        "  --expect-divergence fail unless at least one observed "
        "outcome diverges from the\n"
        "                      strict PPA model (baseline "
        "discrimination proof)\n");
}

void
usageFuzz()
{
    std::printf(
        "subcommand: fuzz — crash-consistency fuzzing campaign "
        "(docs/FUZZING.md)\n"
        "  ppa_cli fuzz run [options]   generate programs, crash them, "
        "judge, shrink\n"
        "  ppa_cli fuzz repro FILE      re-judge a minimal reproducer "
        "file\n"
        "  --variant V         variant to crash-observe (default: "
        "ppa)\n"
        "  --programs N        generated programs per campaign "
        "(default 200)\n"
        "  --schedules N       biased crash points per program "
        "(default 16)\n"
        "  --seed N            campaign seed; results are bitwise "
        "reproducible from it (default 1)\n"
        "  --max-findings N    offending programs to record, replay, "
        "and shrink (default 4)\n"
        "  --corpus-out DIR    write minimal reproducers here as "
        ".litmus files\n"
        "  --trace-out DIR     record findings as traces here and "
        "confirm them by replay\n"
        "  --json FILE         write the campaign verdict as JSON "
        "(tools/fuzz_report.py aggregates)\n"
        "  --expect-divergence fail unless the campaign found at "
        "least one strict-forbidden state\n"
        "  --check-minimal     repro: also verify the reproducer is "
        "1-minimal\n");
}

void
usageServe()
{
    std::printf(
        "subcommand: serve — open-loop transaction-serving study "
        "(docs/SERVING.md)\n"
        "  ppa_cli serve [options]    drive Zipfian request streams "
        "against each\n"
        "                             durability variant and compare "
        "tail latency,\n"
        "                             throughput, recovery time, and "
        "data loss\n"
        "  --workload W        tatp | tpcc | kv (default tatp)\n"
        "  --variant V         serve variant: ppa, undo-redo-log, "
        "delay-free;\n"
        "                      repeatable (default: all three)\n"
        "  --ops N             total requests across all threads "
        "(default 1000000)\n"
        "  --threads N         server cores / request streams "
        "(default 2)\n"
        "  --keys N            per-thread key-space size; a power of "
        "two <= 65536\n"
        "                      (default 4096)\n"
        "  --skew S            Zipfian theta, non-negative; 0 = "
        "uniform (default 0.99)\n"
        "  --read-pct N        kv workload GET percentage, 0..100 "
        "(default 50)\n"
        "  --arrival A         arrival process: poisson | bursty "
        "(default poisson)\n"
        "  --mean-gap N        mean inter-arrival gap per stream in "
        "cycles (default 256)\n"
        "  --burst-factor F    bursty: on-phase rate multiplier "
        "(default 4)\n"
        "  --burst-period N    bursty: square-wave period in cycles "
        "(default 65536)\n"
        "  --on-fraction F     bursty: fraction of each period in the "
        "on phase,\n"
        "                      in (0, 1) (default 0.25)\n"
        "  --failures N        injected power-failure points per "
        "variant (default 8)\n"
        "  --seed N            root seed; the whole study is bitwise "
        "reproducible\n"
        "                      from it (default 42)\n"
        "  --workers N         host threads for failure branches; any "
        "value yields\n"
        "                      identical output (default: hardware "
        "parallelism)\n"
        "  --json FILE         write the study as JSON "
        "(tools/serve_report.py renders it)\n"
        "  --telemetry         collect in-run telemetry and request "
        "spans per variant\n"
        "  --telemetry-trace FILE  write the first variant's Chrome "
        "trace (needs --telemetry)\n");
}

void
usage()
{
    std::printf(
        "usage: ppa_cli [SUBCOMMAND] [options]\n"
        "subcommands: run (default), sweep, trace, profile, "
        "litmus, fuzz, serve\n"
        "flags are grouped by the subcommand they belong to:\n"
        "\n");
    usageRun();
    std::printf("\n");
    usageProfile();
    std::printf("\n");
    usageTrace();
    std::printf("\n");
    usageSweep();
    std::printf("\n");
    usageLitmus();
    std::printf("\n");
    usageFuzz();
    std::printf("\n");
    usageServe();
}

SystemVariant
parseVariant(const std::string &name)
{
    SystemVariant v;
    if (!variantFromToken(name, v)) {
        std::fprintf(stderr, "unknown variant '%s'\n", name.c_str());
        std::exit(1);
    }
    return v;
}

/**
 * Strict decimal parse for flag values: the whole token must be
 * digits and fit 64 bits. strtoull's permissiveness (empty strings,
 * trailing garbage, silent wraparound) would turn a typo into a
 * quietly misconfigured run.
 */
std::uint64_t
parseCount(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *end != '\0' || errno == ERANGE ||
        *text == '-' || *text == '+') {
        std::fprintf(stderr,
                     "%s wants an unsigned integer, got '%s' (see "
                     "ppa_cli --help)\n",
                     flag, text);
        std::exit(1);
    }
    return v;
}

/** Strict parse of a non-negative real flag value; same philosophy as
 *  parseCount (reject empty, trailing garbage, range errors, and
 *  negative or NaN values). */
double
parseNonNegDouble(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (*text == '\0' || *end != '\0' || errno == ERANGE ||
        !(v >= 0.0)) {
        std::fprintf(stderr,
                     "%s wants a non-negative number, got '%s' (see "
                     "ppa_cli --help)\n",
                     flag, text);
        std::exit(1);
    }
    return v;
}

/** Like parseCount, but zero is rejected too (a vacuous campaign or
 *  schedule count silently tests nothing). */
std::uint64_t
parsePositiveCount(const char *flag, const char *text)
{
    std::uint64_t v = parseCount(flag, text);
    if (v == 0) {
        std::fprintf(stderr,
                     "%s must be positive, got '%s' (see ppa_cli "
                     "--help)\n",
                     flag, text);
        std::exit(1);
    }
    return v;
}

/** Narrow a parsed count to the unsigned a flag is stored in; a value
 *  above UINT_MAX is an error rather than silently truncated (so
 *  4294967296 cannot wrap to 0 past the positivity check). */
unsigned
toUnsigned(const char *flag, const char *text, std::uint64_t v)
{
    if (v > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr,
                     "%s is out of range, got '%s' (at most %u; see "
                     "ppa_cli --help)\n",
                     flag, text, std::numeric_limits<unsigned>::max());
        std::exit(1);
    }
    return static_cast<unsigned>(v);
}

/** parseCount for a flag stored in an unsigned. */
unsigned
parseUnsigned(const char *flag, const char *text)
{
    return toUnsigned(flag, text, parseCount(flag, text));
}

/** parsePositiveCount for a flag stored in an unsigned. */
unsigned
parsePositiveUnsigned(const char *flag, const char *text)
{
    return toUnsigned(flag, text, parsePositiveCount(flag, text));
}

/** Like parseNonNegDouble, but zero is rejected too (a zero rate,
 *  such as NVM write bandwidth, makes every service time infinite). */
double
parsePositiveDouble(const char *flag, const char *text)
{
    double v = parseNonNegDouble(flag, text);
    if (v == 0.0) {
        std::fprintf(stderr,
                     "%s must be positive, got '%s' (see ppa_cli "
                     "--help)\n",
                     flag, text);
        std::exit(1);
    }
    return v;
}

int
sweepMain(int argc, char **argv)
{
    std::string figure;
    unsigned jobs = 0;
    std::uint64_t insts = 0;
    std::uint64_t seed = 42;
    std::string outDir = metrics::resultsDir();
    bool csv = false;
    bool audit = false;
    bool telemetry = false;

    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--list") {
            TextTable t({"figure", "jobs", "description"});
            for (const auto &name : figureNames()) {
                FigureSweep fs = figureSweep(name);
                t.addRow({fs.name, std::to_string(fs.jobs.size()),
                          fs.description});
            }
            std::printf("%s", t.render().c_str());
            return 0;
        } else if (arg == "--jobs") {
            jobs = parseUnsigned("--jobs", next());
        } else if (arg == "--insts") {
            insts = parseCount("--insts", next());
        } else if (arg == "--seed") {
            seed = parseCount("--seed", next());
        } else if (arg == "--out") {
            outDir = next();
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--audit") {
            audit = true;
        } else if (arg == "--telemetry") {
            telemetry = true;
        } else if (arg == "--help" || arg == "-h") {
            usageSweep();
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && figure.empty()) {
            figure = arg;
        } else {
            std::fprintf(stderr, "unknown sweep option '%s'\n",
                         arg.c_str());
            usageSweep();
            return 1;
        }
    }

    if (figure.empty()) {
        std::fprintf(stderr,
                     "sweep: figure name required (see sweep --list)\n");
        return 1;
    }
    if (!figureExists(figure)) {
        std::fprintf(stderr,
                     "sweep: unknown figure '%s' (see sweep --list)\n",
                     figure.c_str());
        return 1;
    }

    const FigureSweep fs = figureSweep(figure, insts, seed);
    // Run-level flags go on a copy: the figure's table reads the
    // grid's own points.
    std::vector<SweepJob> runJobs = fs.jobs;
    for (SweepJob &job : runJobs) {
        job.knobs.audit |= audit;
        job.knobs.telemetry |= telemetry;
    }
    ExperimentDriver driver(jobs);
    std::fprintf(stderr, "sweep %s: %zu jobs on %u threads — %s\n",
                 fs.name.c_str(), fs.jobs.size(), driver.workers(),
                 fs.description.c_str());
    auto results = driver.run(
        runJobs,
        [](const JobResult &r, std::size_t done, std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] %s/%s (%.2fs)\n", done,
                         total, r.job.profile.name.c_str(),
                         variantToken(r.job.variant), r.wallSeconds);
        });

    if (audit) {
        std::uint64_t events = 0;
        std::uint64_t violations = 0;
        for (const JobResult &r : results) {
            events += r.stats.auditEvents;
            violations += r.stats.auditViolations;
            for (const std::string &m : r.stats.auditMessages)
                std::fprintf(stderr, "  audit: %s\n", m.c_str());
        }
        std::printf("audit: %llu events, %llu violations\n",
                    static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(violations));
        if (violations)
            return 1;
    }

    if (telemetry) {
        // One Chrome trace per job. Figures re-run the same
        // (workload, variant) pair under different knobs, so the job
        // index keeps the filenames unique.
        std::string traceDir = outDir + "/" + fs.name + "_telemetry";
        std::error_code ec;
        std::filesystem::create_directories(traceDir, ec);
        for (std::size_t j = 0; j < results.size(); ++j) {
            const JobResult &r = results[j];
            std::string path = traceDir + "/" + std::to_string(j) +
                               "_" + r.job.profile.name + "_" +
                               variantToken(r.job.variant) +
                               ".trace.json";
            if (!obs::writeChromeTrace(r.stats.telemetry, path)) {
                std::fprintf(stderr, "sweep: cannot write %s\n",
                             path.c_str());
                return 1;
            }
        }
        std::printf("wrote %zu telemetry trace(s) under %s\n",
                    results.size(), traceDir.c_str());
    }

    const FigureTable table = figureTable(fs, results);
    std::string jsonPath = outDir + "/" + fs.name + ".json";
    if (!metrics::writeFile(
            jsonPath, metrics::sweepToJson(fs.name, results, table.extras)))
        return 1;
    std::printf("wrote %s (%zu jobs)\n", jsonPath.c_str(),
                results.size());
    if (csv) {
        std::string csvPath = outDir + "/" + fs.name + ".csv";
        if (!metrics::writeFile(csvPath, metrics::sweepToCsv(results)))
            return 1;
        std::printf("wrote %s\n", csvPath.c_str());
    }
    std::printf("\n%s", table.render().c_str());
    return 0;
}

int
traceRecordMain(int argc, char **argv)
{
    std::string app;
    std::string out;
    trace::CaptureSpec spec;
    spec.instsPerThread = 50'000;

    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--app") {
            app = next();
        } else if (arg == "--out") {
            out = next();
        } else if (arg == "--insts") {
            spec.instsPerThread = parsePositiveCount("--insts", next());
        } else if (arg == "--seed") {
            spec.seed = parseCount("--seed", next());
        } else if (arg == "--threads") {
            spec.threads = parseUnsigned("--threads", next());
        } else if (arg == "--shard-insts") {
            spec.shardInsts = parsePositiveCount("--shard-insts", next());
        } else if (arg == "--block-insts") {
            spec.blockInsts = parsePositiveUnsigned("--block-insts", next());
        } else {
            std::fprintf(stderr, "unknown trace record option '%s'\n",
                         arg.c_str());
            return 1;
        }
    }
    if (app.empty() || out.empty()) {
        std::fprintf(stderr,
                     "trace record: --app and --out are required\n");
        return 1;
    }

    const WorkloadProfile &profile = profileByName(app);
    trace::TraceSummary s = trace::recordWorkloadTrace(out, profile, spec);
    std::printf("recorded %s: %llu insts in %u shard(s), crc %08x\n",
                out.c_str(),
                static_cast<unsigned long long>(s.totalInsts),
                s.shardCount, s.combinedCrc);
    return 0;
}

int
traceInfoMain(const std::string &dir)
{
    trace::TraceSet set = trace::TraceSet::openOrDie(dir);
    const trace::TraceMeta &meta = set.metadata();
    TextTable t({"field", "value"});
    t.addRow({"app", meta.app});
    t.addRow({"seed", std::to_string(meta.seed)});
    t.addRow({"threads", std::to_string(meta.threads)});
    t.addRow({"insts / thread", std::to_string(meta.instsPerThread)});
    t.addRow({"shard insts", std::to_string(meta.shardInsts)});
    t.addRow({"block insts", std::to_string(meta.blockInsts)});
    t.addRow({"shards", std::to_string(set.allShards().size())});
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", set.combinedCrc());
    t.addRow({"combined crc32", crc});
    std::printf("%s", t.render().c_str());

    TextTable shards({"file", "thread", "first index", "insts", "crc32"});
    for (const trace::ShardInfo &s : set.allShards()) {
        std::snprintf(crc, sizeof(crc), "%08x", s.crc32);
        shards.addRow({s.file, std::to_string(s.thread),
                       std::to_string(s.firstIndex),
                       std::to_string(s.count), crc});
    }
    std::printf("%s", shards.render().c_str());
    return 0;
}

int
traceCatMain(const std::string &dir, int argc, char **argv)
{
    unsigned thread = 0;
    std::uint64_t limit = 32;
    std::uint64_t start = 0;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--thread") {
            thread = parseUnsigned("--thread", next());
        } else if (arg == "--limit") {
            limit = parseCount("--limit", next());
        } else if (arg == "--start") {
            start = parseCount("--start", next());
        } else {
            std::fprintf(stderr, "unknown trace cat option '%s'\n",
                         arg.c_str());
            return 1;
        }
    }

    trace::TraceSet set = trace::TraceSet::openOrDie(dir);
    if (thread >= set.metadata().threads) {
        std::fprintf(stderr, "trace cat: thread %u out of range (%u)\n",
                     thread, set.metadata().threads);
        return 1;
    }
    trace::TraceReplaySource src(set, thread);
    if (start > 0)
        src.seekTo(start);
    TextTable t({"index", "pc", "op", "dst", "srcs", "imm", "memAddr",
                 "taken"});
    DynInst inst;
    for (std::uint64_t n = 0; n < limit && src.next(inst); ++n) {
        char pc[24], mem[24];
        std::snprintf(pc, sizeof(pc), "0x%llx",
                      static_cast<unsigned long long>(inst.pc));
        std::snprintf(mem, sizeof(mem), "0x%llx",
                      static_cast<unsigned long long>(inst.memAddr));
        std::string dst = "-";
        if (inst.dst.valid()) {
            dst = (inst.dst.cls == RegClass::Fp ? "f" : "r") +
                  std::to_string(inst.dst.idx);
        }
        std::string srcs;
        for (int s = 0; s < inst.numSrcs(); ++s) {
            srcs += (s ? "," : "");
            srcs += (inst.srcs[s].cls == RegClass::Fp ? "f" : "r") +
                    std::to_string(inst.srcs[s].idx);
        }
        t.addRow({std::to_string(inst.index), pc,
                  std::string(opName(inst.op)), dst,
                  srcs.empty() ? std::string("-") : srcs,
                  std::to_string(inst.imm),
                  inst.memAddr ? std::string(mem) : std::string("-"),
                  inst.taken ? std::string("T") : std::string("-")});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

int
traceVerifyMain(const std::string &dir)
{
    trace::VerifyResult r = trace::verifyTrace(dir);
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "trace verify: %s: %s\n", dir.c_str(),
                     e.c_str());
    if (!r.ok) {
        std::fprintf(stderr, "trace verify: %s: FAILED (%zu error(s))\n",
                     dir.c_str(), r.errors.size());
        return 1;
    }
    std::printf("trace verify: %s: OK — %llu insts, %u shard(s), "
                "crc %08x\n",
                dir.c_str(),
                static_cast<unsigned long long>(r.totalInsts),
                r.shardCount, r.combinedCrc);
    return 0;
}

int
traceMain(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr,
                     "trace: subcommand required "
                     "(record | info | cat | verify)\n");
        return 1;
    }
    std::string cmd = argv[0];
    if (cmd == "record")
        return traceRecordMain(argc - 1, argv + 1);
    if (cmd == "--help" || cmd == "-h") {
        usageTrace();
        return 0;
    }
    // The remaining subcommands all take the trace directory first.
    if (argc < 2) {
        std::fprintf(stderr, "trace %s: trace directory required\n",
                     cmd.c_str());
        return 1;
    }
    std::string dir = argv[1];
    if (cmd == "info")
        return traceInfoMain(dir);
    if (cmd == "cat")
        return traceCatMain(dir, argc - 2, argv + 2);
    if (cmd == "verify")
        return traceVerifyMain(dir);
    std::fprintf(stderr, "unknown trace subcommand '%s'\n", cmd.c_str());
    return 1;
}

void
printStats(const RunStats &rs)
{
    TextTable t({"metric", "value"});
    t.addRow({"workload", rs.workload});
    t.addRow({"variant", variantName(rs.variant)});
    t.addRow({"threads", std::to_string(rs.threads)});
    t.addRow({"measured cycles", std::to_string(rs.cycles)});
    t.addRow({"total cycles (with warmup)",
              std::to_string(rs.totalCycles)});
    t.addRow({"committed instructions",
              std::to_string(rs.committedInsts)});
    t.addRow({"committed stores", std::to_string(rs.committedStores)});
    t.addRow({"system IPC", TextTable::num(rs.ipc, 2)});
    t.addRow({"L2 miss ratio", TextTable::percent(rs.l2MissRatio)});
    t.addRow({"NVM reads", std::to_string(rs.nvmReads)});
    t.addRow({"NVM writes", std::to_string(rs.nvmWrites)});
    t.addRow({"NVM bytes written", std::to_string(rs.nvmBytesWritten)});
    if (rs.regionCount) {
        t.addRow({"regions", std::to_string(rs.regionCount)});
        t.addRow({"stores / region",
                  TextTable::num(rs.avgRegionStores, 1)});
        t.addRow({"others / region",
                  TextTable::num(rs.avgRegionOthers, 1)});
        t.addRow({"boundary stall cycles",
                  std::to_string(rs.boundaryStallCycles)});
        t.addRow({"boundary stall ratio",
                  TextTable::percent(rs.boundaryStallRatio(), 2)});
        t.addRow({"persist ops", std::to_string(rs.persistOps)});
        t.addRow({"coalesced stores",
                  std::to_string(rs.coalescedStores)});
    }
    t.addRow({"rename no-free-reg stall",
              TextTable::percent(rs.renameStallRatio(), 2)});
    if (rs.auditEvents) {
        t.addRow({"audit events", std::to_string(rs.auditEvents)});
        t.addRow({"audit violations",
                  std::to_string(rs.auditViolations)});
    }
    if (!rs.traceDir.empty()) {
        char crc[16];
        std::snprintf(crc, sizeof(crc), "%08x", rs.traceCrc);
        t.addRow({"trace dir", rs.traceDir});
        t.addRow({"trace shards", std::to_string(rs.traceShards)});
        t.addRow({"trace insts", std::to_string(rs.traceInsts)});
        t.addRow({"trace crc32", crc});
    }
    if (rs.tpSegments) {
        t.addRow({"tp segments (simulated/total)",
                  std::to_string(rs.tpSimulatedSegments) + "/" +
                      std::to_string(rs.tpSegments)});
        t.addRow({"tp warmup insts / segment",
                  std::to_string(rs.tpWarmupInsts)});
        t.addRow({"tp warmup cycles (overlap work)",
                  std::to_string(rs.tpWarmupCycles)});
        if (rs.tpSampleStride > 1) {
            t.addRow({"tp sample stride",
                      std::to_string(rs.tpSampleStride)});
            t.addRow({"tp CPI rel stderr",
                      TextTable::percent(rs.tpCpiRelStderr, 2)});
        }
    }
    if (rs.powerFailures) {
        t.addRow({"power failures injected",
                  std::to_string(rs.powerFailures)});
        t.addRow({"replay audits", std::to_string(rs.replayAudits)});
        t.addRow({"replay addrs checked",
                  std::to_string(rs.replayAddrsChecked)});
        t.addRow({"replay mismatches",
                  std::to_string(rs.replayMismatches)});
    }
    if (rs.telemetry.enabled) {
        t.addRow({"telemetry covered cycles / core",
                  std::to_string(rs.telemetry.coveredCycles)});
        t.addRow({"telemetry series",
                  std::to_string(rs.telemetry.series.size())});
        t.addRow({"telemetry region events",
                  std::to_string(rs.telemetry.regionEvents.size())});
    }
    std::printf("%s", t.render().c_str());
    for (const std::string &m : rs.auditMessages)
        std::fprintf(stderr, "audit: %s\n", m.c_str());
}

/**
 * Print the stall-attribution and counter-series tables for a
 * telemetry-enabled run — the body of `ppa_cli profile`. Returns
 * false when the attribution partition does not cover the run's
 * cycles (a contract violation the CI smoke job would catch).
 */
bool
printTelemetryProfile(const RunStats &rs)
{
    const obs::TelemetryResult &t = rs.telemetry;

    TextTable stall({"cycle class", "cycles", "share"});
    std::uint64_t attributed = 0;
    for (unsigned c = 0; c < obs::kCycleClassCount; ++c)
        attributed += t.classCycles(static_cast<obs::CycleClass>(c));
    for (unsigned c = 0; c < obs::kCycleClassCount; ++c) {
        auto cls = static_cast<obs::CycleClass>(c);
        std::uint64_t cyc = t.classCycles(cls);
        stall.addRow({obs::cycleClassLabel(cls), std::to_string(cyc),
                      TextTable::percent(
                          attributed ? static_cast<double>(cyc) /
                                           static_cast<double>(attributed)
                                     : 0.0,
                          2)});
    }
    stall.addRow({"total", std::to_string(attributed), "100.00%"});
    std::printf("\nstall attribution (%zu core(s), %llu covered "
                "cycles each):\n%s",
                t.stallCycles.size(),
                static_cast<unsigned long long>(t.coveredCycles),
                stall.render().c_str());

    TextTable series({"series", "core", "samples", "mean", "p95",
                      "max bucket", "total"});
    for (const obs::TelemetrySeries &s : t.series) {
        series.addRow({s.name,
                       s.core < 0 ? std::string("sys")
                                  : std::to_string(s.core),
                       std::to_string(s.samples()),
                       TextTable::num(s.mean(), 2),
                       TextTable::num(s.percentile(0.95), 2),
                       TextTable::num(s.maxBucketMean(), 2),
                       std::to_string(s.total())});
    }
    std::printf("\ncounter series (sample period %llu cycles):\n%s",
                static_cast<unsigned long long>(t.sampleCycles),
                series.render().c_str());

    if (!t.regionEvents.empty() || t.droppedRegionEvents) {
        std::uint64_t drainCycles = 0;
        for (const obs::TelemetryRegionEvent &e : t.regionEvents)
            drainCycles += e.end - e.drainStart;
        std::printf("\nregions: %zu recorded (%llu dropped past cap), "
                    "%llu drain cycles in recorded spans\n",
                    t.regionEvents.size(),
                    static_cast<unsigned long long>(
                        t.droppedRegionEvents),
                    static_cast<unsigned long long>(drainCycles));
    }
    if (!t.powerEvents.empty())
        std::printf("power events: %zu span(s)\n",
                    t.powerEvents.size());

    // The acceptance check: every core's attribution rows partition
    // its covered cycles, and the covered window is the whole run.
    bool ok = true;
    for (std::size_t core = 0; core < t.stallCycles.size(); ++core) {
        std::uint64_t sum = 0;
        for (std::uint64_t v : t.stallCycles[core])
            sum += v;
        if (sum != t.coveredCycles)
            ok = false;
    }
    std::printf("attribution check: %llu cycles/core attributed, "
                "%llu covered, run total %llu — %s\n",
                static_cast<unsigned long long>(
                    t.stallCycles.empty()
                        ? 0
                        : attributed / t.stallCycles.size()),
                static_cast<unsigned long long>(t.coveredCycles),
                static_cast<unsigned long long>(rs.totalCycles),
                ok ? "OK" : "MISMATCH");
    return ok;
}

int
profileMain(int argc, char **argv)
{
    std::string app;
    std::string variant_name = "ppa";
    std::string tracePath;
    std::string jsonPath;
    ExperimentKnobs knobs;
    knobs.instsPerCore = 50'000;
    knobs.telemetry = true;

    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--variant") {
            variant_name = next();
        } else if (arg == "--insts") {
            knobs.instsPerCore = parsePositiveCount("--insts", next());
        } else if (arg == "--threads") {
            knobs.threads = parseUnsigned("--threads", next());
        } else if (arg == "--seed") {
            knobs.seed = parseCount("--seed", next());
        } else if (arg == "--telemetry-sample") {
            knobs.telemetrySampleCycles =
                parsePositiveCount("--telemetry-sample", next());
        } else if (arg == "--telemetry-trace") {
            tracePath = next();
        } else if (arg == "--json") {
            jsonPath = next();
        } else if (arg == "--help" || arg == "-h") {
            usageProfile();
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && app.empty()) {
            app = arg;
        } else {
            std::fprintf(stderr, "unknown profile option '%s'\n",
                         arg.c_str());
            usageProfile();
            return 1;
        }
    }
    if (app.empty()) {
        std::fprintf(stderr, "profile: application name required\n");
        usageProfile();
        return 1;
    }

    const WorkloadProfile &profile = profileByName(app);
    SystemVariant variant = parseVariant(variant_name);
    RunStats rs = runWorkload(profile, variant, knobs);

    TextTable head({"metric", "value"});
    head.addRow({"workload", rs.workload});
    head.addRow({"variant", variantName(rs.variant)});
    head.addRow({"threads", std::to_string(rs.threads)});
    head.addRow({"total cycles", std::to_string(rs.totalCycles)});
    head.addRow({"committed instructions",
                 std::to_string(rs.committedInsts)});
    head.addRow({"system IPC", TextTable::num(rs.ipc, 2)});
    std::printf("%s", head.render().c_str());

    bool ok = printTelemetryProfile(rs);

    if (!tracePath.empty()) {
        if (!obs::writeChromeTrace(rs.telemetry, tracePath)) {
            std::fprintf(stderr, "profile: cannot write %s\n",
                         tracePath.c_str());
            return 1;
        }
        std::printf("wrote %s (load in https://ui.perfetto.dev or "
                    "chrome://tracing)\n",
                    tracePath.c_str());
    }
    if (!jsonPath.empty()) {
        if (!metrics::writeFile(jsonPath,
                                metrics::runStatsToJson(rs) + "\n"))
            return 1;
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return ok ? 0 : 1;
}

int
litmusMain(int argc, char **argv)
{
    using check::ExploreMode;
    using check::LitmusOptions;
    using check::LitmusResult;
    using check::LitmusTest;

    if (argc < 1) {
        usageLitmus();
        return 1;
    }
    std::string verb = argv[0];
    if (verb == "--help" || verb == "-h") {
        usageLitmus();
        return 0;
    }

    if (verb == "list") {
        TextTable t({"test", "threads", "stores", "observed", "prefix",
                     "description"});
        for (const LitmusTest &test : check::litmusCorpus()) {
            std::vector<const Program *> progs;
            for (const Program &p : test.threads)
                progs.push_back(&p);
            check::PersistModel model(progs);
            t.addRow({test.name,
                      std::to_string(test.threads.size()),
                      std::to_string(model.totalStores()),
                      std::to_string(test.observed.size()),
                      test.prefixCoverage ? "yes" : "no",
                      test.description});
        }
        std::printf("%s", t.render().c_str());
        return 0;
    }
    if (verb != "run" && verb != "explore") {
        std::fprintf(stderr, "unknown litmus subcommand '%s'\n",
                     verb.c_str());
        usageLitmus();
        return 1;
    }

    LitmusOptions opts;
    opts.mode = verb == "run" ? ExploreMode::Exhaustive
                              : ExploreMode::Randomized;
    bool all = false;
    bool expectDivergence = false;
    std::string jsonPath;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--all") {
            all = true;
        } else if (arg == "--variant") {
            opts.variant = parseVariant(next());
        } else if (arg == "--schedules") {
            opts.schedules = parsePositiveUnsigned("--schedules", next());
        } else if (arg == "--seed") {
            opts.seed = parseCount("--seed", next());
        } else if (arg == "--json") {
            jsonPath = next();
        } else if (arg == "--expect-divergence") {
            expectDivergence = true;
        } else if (arg == "--help" || arg == "-h") {
            usageLitmus();
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            names.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown litmus option '%s'\n",
                         arg.c_str());
            usageLitmus();
            return 1;
        }
    }

    std::vector<const LitmusTest *> tests;
    if (all) {
        for (const LitmusTest &t : check::litmusCorpus())
            tests.push_back(&t);
    } else {
        for (const std::string &name : names) {
            const LitmusTest *t = check::findLitmusTest(name);
            if (!t) {
                std::fprintf(stderr,
                             "unknown litmus test '%s' (see "
                             "ppa_cli litmus list)\n",
                             name.c_str());
                return 1;
            }
            tests.push_back(t);
        }
    }
    if (tests.empty()) {
        std::fprintf(stderr,
                     "litmus %s: name tests or pass --all\n",
                     verb.c_str());
        return 1;
    }

    std::string why;
    if (!check::variantSupportsLitmus(opts.variant, &why)) {
        std::fprintf(stderr, "litmus: variant '%s' unsupported: %s\n",
                     variantToken(opts.variant), why.c_str());
        return 1;
    }

    std::printf("litmus %s: %zu test(s), variant %s (flavor %s)%s\n",
                verb.c_str(), tests.size(),
                variantToken(opts.variant),
                check::flavorName(
                    check::flavorForVariant(opts.variant)),
                opts.mode == ExploreMode::Randomized
                    ? (", " + std::to_string(opts.schedules) +
                       " crash points/test, seed " +
                       std::to_string(opts.seed))
                          .c_str()
                    : "");

    std::vector<LitmusResult> results;
    std::uint64_t divergences = 0;
    bool allPass = true;
    for (const LitmusTest *t : tests) {
        results.push_back(check::runLitmusTest(*t, opts));
        divergences += results.back().strictDivergences;
        allPass = allPass && results.back().pass();
    }

    TextTable t({"test", "crashes", "violations", "strict-div",
                 "vacuous", "required", "distinct", "verdict"});
    for (const LitmusResult &r : results) {
        t.addRow({r.test, std::to_string(r.crashPoints),
                  std::to_string(r.violations),
                  std::to_string(r.strictDivergences),
                  std::to_string(r.vacuous),
                  std::to_string(r.requiredSeen) + "/" +
                      std::to_string(r.requiredTotal),
                  std::to_string(r.distinctOutcomes),
                  r.corpusError ? "CORPUS-ERROR"
                                : (r.pass() ? "pass" : "FAIL")});
    }
    std::printf("%s", t.render().c_str());
    for (const LitmusResult &r : results) {
        for (const auto &s : r.samples)
            std::printf("%s: cycle %llu: %s\n", r.test.c_str(),
                        static_cast<unsigned long long>(s.cycle),
                        s.detail.c_str());
        for (const auto &n : r.notes)
            std::printf("%s: %s\n", r.test.c_str(), n.c_str());
    }

    if (!jsonPath.empty()) {
        if (!metrics::writeFile(jsonPath,
                                check::litmusResultsJson(results, opts)))
            return 1;
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    if (expectDivergence && divergences == 0) {
        std::printf("FAIL: expected at least one strict-model "
                    "divergence, observed none\n");
        return 1;
    }
    std::printf("%s\n", allPass ? "litmus: all conformance checks pass"
                                : "litmus: FAILURES above");
    return allPass ? 0 : 1;
}

int
fuzzReproMain(int argc, char **argv)
{
    std::string file;
    bool checkMinimal = false;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--check-minimal")
            checkMinimal = true;
        else if (arg == "--help" || arg == "-h") {
            usageFuzz();
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && file.empty())
            file = arg;
        else {
            std::fprintf(stderr, "unknown fuzz repro option '%s'\n",
                         arg.c_str());
            usageFuzz();
            return 1;
        }
    }
    if (file.empty()) {
        std::fprintf(stderr, "fuzz repro: name a reproducer file\n");
        usageFuzz();
        return 1;
    }

    std::string text;
    if (!metrics::readFile(file, text))
        return 1;
    fuzz::Violation v;
    std::string error;
    if (!fuzz::parseReproducerText(text, v, error)) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(), error.c_str());
        return 1;
    }

    fuzz::ShrinkLimits limits;
    std::uint64_t judged = 0;
    fuzz::Violation found;
    if (!fuzz::findEarliestViolation(v.spec, v.variant, v.flavor,
                                     limits, judged, found)) {
        std::printf("%s: FAIL — no crash cycle violates %s on %s "
                    "anymore (%llu crash sims)\n",
                    file.c_str(), check::flavorName(v.flavor),
                    variantToken(v.variant),
                    static_cast<unsigned long long>(judged));
        return 1;
    }
    std::printf("%s: violation confirmed on %s under %s at cycle %llu"
                " (recorded %llu)\n",
                file.c_str(), variantToken(v.variant),
                check::flavorName(v.flavor),
                static_cast<unsigned long long>(found.cycle),
                static_cast<unsigned long long>(v.cycle));
    if (checkMinimal) {
        if (!fuzz::isOneMinimal(found, limits, judged)) {
            std::printf("%s: FAIL — a 1-step reduction still "
                        "violates; reproducer is not minimal\n",
                        file.c_str());
            return 1;
        }
        std::printf("%s: 1-minimal (every further reduction passes; "
                    "%llu crash sims)\n",
                    file.c_str(),
                    static_cast<unsigned long long>(judged));
    }
    return 0;
}

int
fuzzMain(int argc, char **argv)
{
    if (argc < 1) {
        usageFuzz();
        return 1;
    }
    std::string verb = argv[0];
    if (verb == "--help" || verb == "-h") {
        usageFuzz();
        return 0;
    }
    if (verb == "repro")
        return fuzzReproMain(argc - 1, argv + 1);
    if (verb != "run") {
        std::fprintf(stderr, "unknown fuzz subcommand '%s'\n",
                     verb.c_str());
        usageFuzz();
        return 1;
    }

    fuzz::CampaignOptions opts;
    opts.programs = 200;
    opts.schedules = 16;
    opts.seed = 1;
    bool expectDivergence = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--variant") {
            opts.variant = parseVariant(next());
        } else if (arg == "--programs") {
            opts.programs = parsePositiveCount("--programs", next());
        } else if (arg == "--schedules") {
            opts.schedules = parsePositiveUnsigned("--schedules", next());
        } else if (arg == "--seed") {
            opts.seed = parseCount("--seed", next());
        } else if (arg == "--max-findings") {
            opts.maxFindings = parseUnsigned("--max-findings", next());
        } else if (arg == "--corpus-out") {
            opts.corpusDir = next();
        } else if (arg == "--trace-out") {
            opts.traceDir = next();
        } else if (arg == "--json") {
            jsonPath = next();
        } else if (arg == "--expect-divergence") {
            expectDivergence = true;
        } else if (arg == "--help" || arg == "-h") {
            usageFuzz();
            return 0;
        } else {
            std::fprintf(stderr, "unknown fuzz option '%s'\n",
                         arg.c_str());
            usageFuzz();
            return 1;
        }
    }

    std::string why;
    if (!check::variantSupportsLitmus(opts.variant, &why)) {
        std::fprintf(stderr, "fuzz: variant '%s' unsupported: %s\n",
                     variantToken(opts.variant), why.c_str());
        return 1;
    }

    std::printf("fuzz run: %llu program(s) x %u crash point(s), "
                "variant %s (flavor %s), seed %llu\n",
                static_cast<unsigned long long>(opts.programs),
                opts.schedules, variantToken(opts.variant),
                check::flavorName(check::flavorForVariant(opts.variant)),
                static_cast<unsigned long long>(opts.seed));

    fuzz::CampaignResult res = fuzz::runCampaign(opts);

    TextTable t({"programs", "crashes", "violations", "strict-div",
                 "skipped", "findings", "verdict"});
    t.addRow({std::to_string(res.programs),
              std::to_string(res.crashPoints),
              std::to_string(res.violations),
              std::to_string(res.strictDivergences),
              std::to_string(res.skipped),
              std::to_string(res.findings.size()),
              res.pass() ? "pass" : "FAIL"});
    std::printf("%s", t.render().c_str());
    for (const fuzz::CampaignFinding &f : res.findings) {
        std::printf("%s: %s; shrunk %u->%u threads, %llu->%llu "
                    "actions, cycle %llu (%u steps)%s%s\n",
                    f.program.c_str(), f.detail.c_str(),
                    f.threadsBefore, f.threadsAfter,
                    static_cast<unsigned long long>(f.actionsBefore),
                    static_cast<unsigned long long>(f.actionsAfter),
                    static_cast<unsigned long long>(f.shrunkCycle),
                    f.shrinkSteps,
                    f.replayAttempted
                        ? (f.replayConfirmed ? "; replay confirmed"
                                             : "; REPLAY DIVERGED")
                        : "",
                    f.reproducerFile.empty()
                        ? ""
                        : ("; wrote " + f.reproducerFile).c_str());
    }
    for (const std::string &n : res.notes)
        std::printf("note: %s\n", n.c_str());

    if (!jsonPath.empty()) {
        if (!metrics::writeFile(jsonPath, fuzz::campaignJson(res, opts)))
            return 1;
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    bool ok = res.pass();
    for (const fuzz::CampaignFinding &f : res.findings)
        if (f.replayAttempted && !f.replayConfirmed)
            ok = false;
    if (expectDivergence && res.strictDivergences == 0) {
        std::printf("FAIL: expected at least one strict-forbidden "
                    "state, observed none\n");
        ok = false;
    }
    std::printf("%s\n", ok ? "fuzz: campaign verdict pass"
                           : "fuzz: FAILURES above");
    return ok ? 0 : 1;
}

int
serveMain(int argc, char **argv)
{
    serve::ServeConfig cfg;
    std::vector<serve::ServeVariant> variants;
    std::string jsonPath;
    std::string tracePath;

    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            const char *tok = next();
            if (!serve::serveWorkloadFromToken(tok, cfg.workload)) {
                std::fprintf(stderr,
                             "unknown serve workload '%s' (tatp, "
                             "tpcc, kv)\n",
                             tok);
                return 1;
            }
        } else if (arg == "--variant") {
            const char *tok = next();
            serve::ServeVariant v;
            if (!serve::serveVariantFromToken(tok, v)) {
                std::fprintf(stderr,
                             "unknown serve variant '%s' (ppa, "
                             "undo-redo-log, delay-free)\n",
                             tok);
                return 1;
            }
            variants.push_back(v);
        } else if (arg == "--ops") {
            cfg.requests = parsePositiveCount("--ops", next());
        } else if (arg == "--threads") {
            cfg.threads = parsePositiveUnsigned("--threads", next());
        } else if (arg == "--keys") {
            cfg.keys = parsePositiveCount("--keys", next());
        } else if (arg == "--skew") {
            cfg.skew = parseNonNegDouble("--skew", next());
        } else if (arg == "--read-pct") {
            cfg.readPct = parseUnsigned("--read-pct", next());
        } else if (arg == "--arrival") {
            const char *tok = next();
            if (!serve::arrivalFromToken(tok, cfg.arrival.kind)) {
                std::fprintf(stderr,
                             "unknown arrival process '%s' (poisson, "
                             "bursty)\n",
                             tok);
                return 1;
            }
        } else if (arg == "--mean-gap") {
            cfg.arrival.meanGap = static_cast<double>(
                parsePositiveCount("--mean-gap", next()));
        } else if (arg == "--burst-factor") {
            cfg.arrival.burstFactor =
                parseNonNegDouble("--burst-factor", next());
        } else if (arg == "--burst-period") {
            cfg.arrival.period = static_cast<double>(
                parsePositiveCount("--burst-period", next()));
        } else if (arg == "--on-fraction") {
            cfg.arrival.onFraction =
                parseNonNegDouble("--on-fraction", next());
        } else if (arg == "--failures") {
            cfg.failures = parseUnsigned("--failures", next());
        } else if (arg == "--seed") {
            cfg.seed = parseCount("--seed", next());
        } else if (arg == "--workers") {
            cfg.workers = parseUnsigned("--workers", next());
        } else if (arg == "--json") {
            jsonPath = next();
        } else if (arg == "--telemetry") {
            cfg.telemetry = true;
        } else if (arg == "--telemetry-trace") {
            tracePath = next();
        } else if (arg == "--help" || arg == "-h") {
            usageServe();
            return 0;
        } else {
            std::fprintf(stderr, "unknown serve option '%s'\n",
                         arg.c_str());
            usageServe();
            return 1;
        }
    }

    if (cfg.keys == 0 || (cfg.keys & (cfg.keys - 1)) != 0) {
        std::fprintf(stderr,
                     "--keys must be a power of two, got %llu (see "
                     "ppa_cli --help)\n",
                     static_cast<unsigned long long>(cfg.keys));
        return 1;
    }
    if (cfg.keys > 65536) {
        std::fprintf(stderr,
                     "--keys must be at most 65536, got %llu (the "
                     "per-thread data regions are 16 MiB)\n",
                     static_cast<unsigned long long>(cfg.keys));
        return 1;
    }
    if (cfg.readPct > 100) {
        std::fprintf(stderr, "--read-pct must be at most 100, got %u\n",
                     cfg.readPct);
        return 1;
    }
    if (cfg.arrival.kind == serve::ArrivalKind::Bursty) {
        if (cfg.arrival.onFraction <= 0.0 ||
            cfg.arrival.onFraction >= 1.0) {
            std::fprintf(stderr,
                         "--on-fraction wants a fraction in (0, 1), "
                         "got %g\n",
                         cfg.arrival.onFraction);
            return 1;
        }
        if (cfg.arrival.burstFactor <= 0.0) {
            std::fprintf(stderr,
                         "--burst-factor must be positive, got %g\n",
                         cfg.arrival.burstFactor);
            return 1;
        }
        if (cfg.arrival.burstFactor * cfg.arrival.onFraction > 1.0) {
            std::fprintf(stderr,
                         "--burst-factor times --on-fraction must be "
                         "at most 1 (the off-phase rate would be "
                         "negative)\n");
            return 1;
        }
    }
    if (!tracePath.empty() && !cfg.telemetry) {
        std::fprintf(stderr,
                     "--telemetry-trace requires --telemetry\n");
        return 1;
    }
    if (variants.empty())
        variants = serve::allServeVariants();

    std::printf("serve: %llu %s request(s) on %u thread(s), %s "
                "arrivals (mean gap %g), zipf theta %g, %u failure "
                "point(s), seed %llu\n",
                static_cast<unsigned long long>(cfg.requests),
                serve::serveWorkloadToken(cfg.workload), cfg.threads,
                serve::arrivalToken(cfg.arrival.kind),
                cfg.arrival.meanGap, cfg.skew, cfg.failures,
                static_cast<unsigned long long>(cfg.seed));

    serve::ServeStats stats = serve::runServeStudy(cfg, variants);

    auto median = [](std::vector<std::uint64_t> v) -> std::uint64_t {
        if (v.empty())
            return 0;
        std::sort(v.begin(), v.end());
        return v[(v.size() + 1) / 2 - 1];
    };

    TextTable t({"variant", "completed", "req/kcyc", "p50", "p95",
                 "p99", "p99.9", "recovery~", "loss~", "lost~"});
    for (const serve::ServeVariantStats &vs : stats.variants) {
        std::vector<std::uint64_t> recovery, loss, lost;
        for (const serve::FailurePoint &fp : vs.failures) {
            recovery.push_back(fp.recoveryCycles);
            loss.push_back(fp.lossWindow);
            lost.push_back(fp.lostRequests);
        }
        t.addRow({serve::serveVariantToken(vs.variant),
                  std::to_string(vs.completed),
                  TextTable::num(vs.achievedPerKcycle, 2),
                  std::to_string(vs.latency.percentile(0.50)),
                  std::to_string(vs.latency.percentile(0.95)),
                  std::to_string(vs.latency.percentile(0.99)),
                  std::to_string(vs.latency.percentile(0.999)),
                  std::to_string(median(recovery)),
                  std::to_string(median(loss)),
                  std::to_string(median(lost))});
    }
    std::printf("%s", t.render().c_str());
    std::printf("(~ columns are medians over the %u injected failure "
                "points; latency columns are cycles)\n",
                cfg.failures);

    bool ok = true;
    for (const serve::ServeVariantStats &vs : stats.variants) {
        if (vs.completed != vs.requests) {
            std::printf("WARN: %s completed %llu of %llu requests "
                        "before the cycle cap\n",
                        serve::serveVariantToken(vs.variant),
                        static_cast<unsigned long long>(vs.completed),
                        static_cast<unsigned long long>(vs.requests));
            ok = false;
        }
    }

    if (!tracePath.empty()) {
        if (!obs::writeChromeTrace(stats.variants.front().telemetry,
                                   tracePath))
            return 1;
        std::printf("wrote %s\n", tracePath.c_str());
    }
    if (!jsonPath.empty()) {
        if (!metrics::writeFile(jsonPath,
                                serve::serveToJson(stats) + "\n"))
            return 1;
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
        return sweepMain(argc - 2, argv + 2);
    if (argc > 1 && std::strcmp(argv[1], "trace") == 0)
        return traceMain(argc - 2, argv + 2);
    if (argc > 1 && std::strcmp(argv[1], "profile") == 0)
        return profileMain(argc - 2, argv + 2);
    if (argc > 1 && std::strcmp(argv[1], "litmus") == 0)
        return litmusMain(argc - 2, argv + 2);
    if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0)
        return fuzzMain(argc - 2, argv + 2);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return serveMain(argc - 2, argv + 2);
    // An explicit "run" selects the default mode.
    int shift = argc > 1 && std::strcmp(argv[1], "run") == 0 ? 1 : 0;
    argc -= shift;
    argv += shift;

    std::string app;
    std::string variant_name = "ppa";
    std::string jsonPath;
    std::string telemetryTracePath;
    ExperimentKnobs knobs;
    knobs.instsPerCore = 50'000;
    bool compare = false;
    bool instsGiven = false;
    bool errorBound = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--list") {
            TextTable t({"app", "suite", "threads", "store frac",
                         "working set (MiB)"});
            for (const auto &p : allProfiles()) {
                t.addRow({p.name, suiteName(p.suite),
                          std::to_string(p.defaultThreads),
                          TextTable::percent(p.fracStore),
                          TextTable::num(
                              static_cast<double>(p.workingSetBytes) /
                                  (1024.0 * 1024.0),
                              1)});
            }
            std::printf("%s", t.render().c_str());
            return 0;
        } else if (arg == "--app") {
            app = next();
        } else if (arg == "--variant") {
            variant_name = next();
        } else if (arg == "--insts") {
            knobs.instsPerCore = parsePositiveCount("--insts", next());
            instsGiven = true;
        } else if (arg == "--threads") {
            knobs.threads = parseUnsigned("--threads", next());
        } else if (arg == "--csq") {
            knobs.csqEntries = parsePositiveUnsigned("--csq", next());
        } else if (arg == "--int-prf") {
            knobs.intPrf = parsePositiveUnsigned("--int-prf", next());
        } else if (arg == "--fp-prf") {
            knobs.fpPrf = parsePositiveUnsigned("--fp-prf", next());
        } else if (arg == "--wpq") {
            knobs.wpqEntries = parsePositiveUnsigned("--wpq", next());
        } else if (arg == "--bw") {
            knobs.nvmWriteGbps = parsePositiveDouble("--bw", next());
        } else if (arg == "--l3") {
            knobs.l3Cache = true;
        } else if (arg == "--seed") {
            knobs.seed = parseCount("--seed", next());
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--audit") {
            knobs.audit = true;
        } else if (arg == "--fail-at-cycle") {
            knobs.failAtCycles.push_back(
                parsePositiveCount("--fail-at-cycle", next()));
        } else if (arg == "--trace") {
            knobs.traceDir = next();
        } else if (arg == "--time-parallel") {
            knobs.timeParallel = parseUnsigned("--time-parallel", next());
        } else if (arg == "--warmup-insts") {
            knobs.tpWarmupInsts = parseCount("--warmup-insts", next());
        } else if (arg == "--sampled") {
            knobs.tpSampleStride = parsePositiveUnsigned("--sampled", next());
        } else if (arg == "--tp-workers") {
            knobs.tpWorkers = parseUnsigned("--tp-workers", next());
        } else if (arg == "--tp-fail") {
            const std::string spec = next();
            auto colon = spec.find(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr,
                             "--tp-fail wants SEGMENT:CYCLE, got "
                             "'%s'\n",
                             spec.c_str());
                return 1;
            }
            ExperimentKnobs::SegmentFailure f;
            f.segment = parseUnsigned(
                "--tp-fail segment", spec.substr(0, colon).c_str());
            f.cycle = parseCount("--tp-fail cycle",
                                 spec.substr(colon + 1).c_str());
            knobs.tpFailAt.push_back(f);
        } else if (arg == "--telemetry") {
            knobs.telemetry = true;
        } else if (arg == "--telemetry-sample") {
            knobs.telemetrySampleCycles =
                parsePositiveCount("--telemetry-sample", next());
            knobs.telemetry = true;
        } else if (arg == "--telemetry-trace") {
            telemetryTracePath = next();
            knobs.telemetry = true;
        } else if (arg == "--error-bound") {
            errorBound = true;
        } else if (arg == "--json") {
            jsonPath = next();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 1;
        }
    }

    if (!knobs.traceDir.empty()) {
        // The trace manifest is authoritative for what was recorded:
        // app, thread count, stream length, and seed all come from it.
        trace::TraceSet set = trace::TraceSet::openOrDie(knobs.traceDir);
        const trace::TraceMeta &meta = set.metadata();
        if (!app.empty() && app != meta.app) {
            std::fprintf(stderr,
                         "--app %s conflicts with trace '%s' (recorded "
                         "from %s)\n",
                         app.c_str(), knobs.traceDir.c_str(),
                         meta.app.c_str());
            return 1;
        }
        if (instsGiven && knobs.instsPerCore != meta.instsPerThread) {
            std::fprintf(stderr,
                         "--insts %llu conflicts with trace '%s' (%llu "
                         "insts per thread)\n",
                         static_cast<unsigned long long>(
                             knobs.instsPerCore),
                         knobs.traceDir.c_str(),
                         static_cast<unsigned long long>(
                             meta.instsPerThread));
            return 1;
        }
        app = meta.app;
        knobs.threads = meta.threads;
        knobs.instsPerCore = meta.instsPerThread;
        knobs.seed = meta.seed;
    }
    if (app.empty()) {
        usage();
        return 1;
    }

    const WorkloadProfile &profile = profileByName(app);
    SystemVariant variant = parseVariant(variant_name);
    if (errorBound && knobs.timeParallel < 2) {
        std::fprintf(stderr,
                     "--error-bound requires --time-parallel K "
                     "(K >= 2)\n");
        return 1;
    }
    if (errorBound && !knobs.tpFailAt.empty()) {
        std::fprintf(stderr,
                     "note: --error-bound compares against a "
                     "failure-free serial run; --tp-fail effects are "
                     "part of the reported delta\n");
    }

    RunStats rs = runWorkload(profile, variant, knobs);
    printStats(rs);
    if (!telemetryTracePath.empty()) {
        if (!obs::writeChromeTrace(rs.telemetry, telemetryTracePath))
            return 1;
        std::printf("wrote %s\n", telemetryTracePath.c_str());
    }
    if (!jsonPath.empty()) {
        if (!metrics::writeFile(jsonPath,
                                metrics::runStatsToJson(rs) + "\n"))
            return 1;
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    if (errorBound) {
        // The accuracy contract's empirical side (docs/PERF.md): how
        // far does the segmented run drift from the unsegmented
        // serial reference with this warmup length?
        ExperimentKnobs serialKnobs = knobs;
        serialKnobs.timeParallel = 0;
        serialKnobs.tpFailAt.clear();
        RunStats ref = runWorkload(profile, variant, serialKnobs);
        TextTable t({"stat", "serial", "time-parallel", "rel delta"});
        double worst = 0.0;
        for (const StatDelta &d : statDeltas(ref, rs)) {
            worst = std::max(worst, std::fabs(d.relative()));
            t.addRow({d.name, TextTable::num(d.serial, 3),
                      TextTable::num(d.segmented, 3),
                      TextTable::percent(d.relative(), 2)});
        }
        std::printf("\nerror bound vs unsegmented serial run "
                    "(warmup %llu insts/segment):\n%s"
                    "worst-case relative delta: %s\n",
                    static_cast<unsigned long long>(
                        knobs.tpWarmupInsts),
                    t.render().c_str(),
                    TextTable::percent(worst, 2).c_str());
    }

    if (compare && variant != SystemVariant::MemoryMode) {
        ExperimentKnobs base_knobs = knobs;
        base_knobs.failAtCycles.clear(); // PPA-only mechanism
        RunStats base =
            runWorkload(profile, SystemVariant::MemoryMode, base_knobs);
        std::printf("\nslowdown vs memory-mode baseline: %s\n",
                    TextTable::factor(slowdown(rs, base)).c_str());
    }
    return 0;
}

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
 *
 * Every subcommand, its positional arguments and its flags are one
 * entry of commandTable(). That table is the single source of
 * `--help`: parseCommandLine() checks argv against the same entries
 * that print the help text, so no flag can be accepted without being
 * documented, or documented without being accepted.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

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

/** Parse a token through its fromToken lookup; an unknown token is
 *  fatal, naming @p choices after it when they are given. */
template <typename T>
T
parseChoice(const char *what, const char *choices, const std::string &tok,
            bool (*fromToken)(const std::string &, T &))
{
    T v{};
    if (!fromToken(tok, v)) {
        std::fprintf(stderr, "unknown %s '%s'%s\n", what, tok.c_str(),
                     choices);
        std::exit(1);
    }
    return v;
}

/** `--tp-fail SEGMENT:CYCLE`; each half is a strict count. */
ExperimentKnobs::SegmentFailure
parseSegmentFailure(const char *text)
{
    const std::string spec = text;
    auto colon = spec.find(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "--tp-fail wants SEGMENT:CYCLE, got '%s'\n",
                     text);
        std::exit(1);
    }
    ExperimentKnobs::SegmentFailure f;
    f.segment = parseUnsigned("--tp-fail segment",
                              spec.substr(0, colon).c_str());
    f.cycle = parseCount("--tp-fail cycle", spec.substr(colon + 1).c_str());
    return f;
}

/**
 * Every command's settings, starting at the defaults the help text
 * states. The flag table's setters write here and the command bodies
 * read it; commands that take the same flag share its field.
 */
struct Options
{
    Options()
    {
        knobs.instsPerCore = 50'000;
        capture.instsPerThread = 50'000;
    }

    std::vector<std::string> args; ///< the command's positionals
    std::string app;               ///< run, trace record
    SystemVariant variant = SystemVariant::Ppa;
    /** run and profile; sweep reads seed, audit and telemetry. */
    ExperimentKnobs knobs;
    bool list = false; ///< run, sweep
    bool compare = false;
    bool instsGiven = false;
    bool errorBound = false;
    std::string jsonPath;  ///< run, profile, litmus, fuzz, serve
    std::string tracePath; ///< --telemetry-trace: run, profile, serve

    std::string traceOut;
    trace::CaptureSpec capture;
    unsigned catThread = 0;
    std::uint64_t catLimit = 32;
    std::uint64_t catStart = 0;

    unsigned jobs = 0;
    std::uint64_t sweepInsts = 0; ///< 0 = the figure's own
    std::string sweepOut = metrics::resultsDir();
    bool csv = false;

    check::LitmusOptions litmusOpts;
    fuzz::CampaignOptions campaign;
    bool all = false;
    bool expectDivergence = false; ///< litmus, fuzz run
    bool checkMinimal = false;

    serve::ServeConfig serveCfg;
    std::vector<serve::ServeVariant> serveVariants;
    /** The first bursty-only serve flag given, if any. */
    std::string burstFlag;
};

/** One flag: its help line and the setter that parses its value. */
struct Flag
{
    const char *name;
    const char *metavar; ///< nullptr for a switch
    const char *help;    ///< a '\n' continues the text on a new line
    std::function<void(const char *value)> set;
};

Flag
toggle(const char *name, const char *help, bool &dst)
{
    return {name, nullptr, help, [&dst](const char *) { dst = true; }};
}

Flag
text(const char *name, const char *metavar, const char *help,
     std::string &dst)
{
    return {name, metavar, help, [&dst](const char *v) { dst = v; }};
}

template <typename T>
Flag
number(const char *name, const char *metavar, const char *help, T &dst,
       T (*parse)(const char *, const char *))
{
    return {name, metavar, help,
            [name, &dst, parse](const char *v) { dst = parse(name, v); }};
}

Flag
variantFlag(const char *help, SystemVariant &dst)
{
    return {"--variant", "V", help, [&dst](const char *v) {
                dst = parseChoice("variant", "", v, variantFromToken);
            }};
}

/**
 * One entry of the command table: a subcommand, or one verb of a
 * subcommand group such as `trace record`. Entries of a group are
 * adjacent and share one help block.
 */
struct Command
{
    const char *group;             ///< argv[1]: run, profile, trace, ...
    const char *verb = nullptr;    ///< argv[2] within a group
    const char *title = nullptr;   ///< group header, on its first entry
    const char *usage = "";        ///< synopsis after "ppa_cli "
    const char *summary = "";      ///< what the synopsis line does
    const char *positional = nullptr; ///< metavar of the positionals
    unsigned minArgs = 0;          ///< positional arity
    unsigned maxArgs = 0;
    std::vector<Flag> flags = {};
    int (*body)(Options &) = nullptr;
};

constexpr unsigned kAnyArgs = std::numeric_limits<unsigned>::max();

/** Print "  LEFT  TEXT" with TEXT from column width + 2; a '\n' in
 *  TEXT continues at that column. */
void
printRow(const std::string &left, const char *text, std::size_t width)
{
    std::printf("  %s", left.c_str());
    if (*text)
        std::printf("%*s", static_cast<int>(left.size() + 2 > width
                                                 ? 2
                                                 : width - left.size()),
                    "");
    for (; *text; ++text) {
        std::putchar(*text);
        if (*text == '\n')
            std::printf("%*s", static_cast<int>(width + 2), "");
    }
    std::putchar('\n');
}

/** @p group's help block: its header, one synopsis line per entry,
 *  then each flag once (litmus run and explore share theirs). */
void
printGroup(const std::vector<Command> &table, const std::string &group)
{
    std::size_t width = 0;
    for (const Command &c : table)
        if (group == c.group)
            width = std::max(width, std::strlen(c.usage));
    for (const Command &c : table) {
        if (group != c.group)
            continue;
        if (c.title)
            std::printf("subcommand: %s — %s\n", c.group, c.title);
        printRow(std::string("ppa_cli ") + c.usage, c.summary, width + 10);
    }
    std::vector<std::string> shown;
    for (const Command &c : table) {
        if (group != c.group)
            continue;
        for (const Flag &f : c.flags) {
            if (std::find(shown.begin(), shown.end(), f.name) != shown.end())
                continue;
            shown.push_back(f.name);
            printRow(f.metavar ? std::string(f.name) + " " + f.metavar
                               : std::string(f.name),
                     f.help, 20);
        }
    }
}

/** `ppa_cli --help`: every group's block. */
void
printAll(const std::vector<Command> &table)
{
    std::printf("usage: ppa_cli [SUBCOMMAND] [options]\nsubcommands:");
    const char *sep = " ";
    for (const Command &c : table) {
        if (c.title) {
            std::printf("%s%s", sep, c.group);
            sep = ", ";
        }
    }
    std::printf(" (run is the default)\n"
                "flags are grouped by the subcommand they belong to:\n");
    for (const Command &c : table) {
        if (c.title) {
            std::printf("\n");
            printGroup(table, c.group);
        }
    }
}

[[noreturn]] void
usageError(const std::vector<Command> &table, const std::string &group,
           const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    printGroup(table, group);
    std::exit(1);
}

bool
isHelp(const std::string &arg)
{
    return arg == "--help" || arg == "-h";
}

/**
 * The one argv walk. argv[1] names the group (anything else means the
 * whole command line is run's), a grouped command names its verb
 * next, and every remaining argument is a flag fed to its setter or a
 * positional. --help prints the group's block and exits 0; an unknown
 * verb or option, a flag without its value, or the wrong number of
 * positionals prints the error and the block and exits 1.
 */
const Command &
parseCommandLine(const std::vector<Command> &table, int argc, char **argv,
                 Options &o)
{
    int i = 1;
    std::string group = "run";
    for (const Command &c : table) {
        if (argv[1] == std::string(c.group)) {
            group = argv[i++];
            break;
        }
    }

    const Command *cmd = nullptr;
    std::string verbs;
    for (const Command &c : table) {
        if (group != c.group)
            continue;
        if (!c.verb || (i < argc && argv[i] == std::string(c.verb))) {
            cmd = &c;
            break;
        }
        verbs += (verbs.empty() ? "" : " | ") + std::string(c.verb);
    }
    if (!cmd && i < argc && isHelp(argv[i])) {
        printGroup(table, group);
        std::exit(0);
    }
    if (!cmd && i >= argc)
        usageError(table, group,
                   group + ": subcommand required (" + verbs + ")");
    if (!cmd)
        usageError(table, group,
                   "unknown " + group + " subcommand '" + argv[i] + "'");
    std::string name = group;
    if (cmd->verb) {
        name += std::string(" ") + cmd->verb;
        ++i;
    }

    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (isHelp(arg)) {
            printGroup(table, group);
            std::exit(0);
        }
        if (arg.empty() || arg[0] != '-') {
            o.args.push_back(arg);
            continue;
        }
        auto f = std::find_if(cmd->flags.begin(), cmd->flags.end(),
                              [&](const Flag &f) { return arg == f.name; });
        if (f == cmd->flags.end())
            usageError(table, group,
                       "unknown " + name + " option '" + arg + "'");
        if (!f->metavar)
            f->set(nullptr);
        else if (i + 1 < argc)
            f->set(argv[++i]);
        else
            usageError(table, group, "missing value for " + arg);
    }
    if (o.args.size() < cmd->minArgs)
        usageError(table, group, name + ": missing " + cmd->positional);
    if (o.args.size() > cmd->maxArgs)
        usageError(table, group,
                   name + ": unexpected argument '" +
                       o.args[cmd->maxArgs] + "'");
    return *cmd;
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
        t.addRow({"tp segments", std::to_string(rs.tpSegments)});
        t.addRow({"tp warmup insts / segment",
                  std::to_string(rs.tpWarmupInsts)});
        t.addRow({"tp warmup cycles (overlap work)",
                  std::to_string(rs.tpWarmupCycles)});
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
runMain(Options &o)
{
    ExperimentKnobs &knobs = o.knobs;
    if (o.list) {
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
    }

    if (!knobs.traceDir.empty()) {
        // The trace manifest is authoritative for what was recorded:
        // app, thread count, stream length, and seed all come from it.
        trace::TraceSet set = trace::TraceSet::openOrDie(knobs.traceDir);
        const trace::TraceMeta &meta = set.metadata();
        if (!o.app.empty() && o.app != meta.app) {
            std::fprintf(stderr,
                         "--app %s conflicts with trace '%s' (recorded "
                         "from %s)\n",
                         o.app.c_str(), knobs.traceDir.c_str(),
                         meta.app.c_str());
            return 1;
        }
        if (o.instsGiven && knobs.instsPerCore != meta.instsPerThread) {
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
        o.app = meta.app;
        knobs.threads = meta.threads;
        knobs.instsPerCore = meta.instsPerThread;
        knobs.seed = meta.seed;
    }
    if (o.app.empty()) {
        std::fprintf(stderr,
                     "run: --app NAME is required (see ppa_cli --list)\n");
        return 1;
    }

    const WorkloadProfile &profile = profileByName(o.app);
    if (o.errorBound && knobs.timeParallel < 2) {
        std::fprintf(stderr,
                     "--error-bound requires --time-parallel K "
                     "(K >= 2)\n");
        return 1;
    }
    if (o.errorBound && !knobs.tpFailAt.empty()) {
        std::fprintf(stderr,
                     "note: --error-bound compares against a "
                     "failure-free serial run; --tp-fail effects are "
                     "part of the reported delta\n");
    }

    RunStats rs = runWorkload(profile, o.variant, knobs);
    printStats(rs);
    if (!o.tracePath.empty()) {
        if (!obs::writeChromeTrace(rs.telemetry, o.tracePath))
            return 1;
        std::printf("wrote %s\n", o.tracePath.c_str());
    }
    if (!o.jsonPath.empty()) {
        if (!metrics::writeFile(o.jsonPath,
                                metrics::runStatsToJson(rs) + "\n"))
            return 1;
        std::printf("wrote %s\n", o.jsonPath.c_str());
    }

    if (o.errorBound) {
        // The accuracy contract's empirical side (docs/PERF.md): how
        // far does the segmented run drift from the unsegmented
        // serial reference with this warmup length?
        ExperimentKnobs serialKnobs = knobs;
        serialKnobs.timeParallel = 0;
        serialKnobs.tpFailAt.clear();
        RunStats ref = runWorkload(profile, o.variant, serialKnobs);
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

    if (o.compare && o.variant != SystemVariant::MemoryMode) {
        ExperimentKnobs base_knobs = knobs;
        base_knobs.failAtCycles.clear(); // PPA-only mechanism
        RunStats base =
            runWorkload(profile, SystemVariant::MemoryMode, base_knobs);
        std::printf("\nslowdown vs memory-mode baseline: %s\n",
                    TextTable::factor(slowdown(rs, base)).c_str());
    }
    return 0;
}

int
profileMain(Options &o)
{
    o.knobs.telemetry = true;
    RunStats rs = runWorkload(profileByName(o.args[0]), o.variant, o.knobs);

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

    if (!o.tracePath.empty()) {
        if (!obs::writeChromeTrace(rs.telemetry, o.tracePath)) {
            std::fprintf(stderr, "profile: cannot write %s\n",
                         o.tracePath.c_str());
            return 1;
        }
        std::printf("wrote %s (load in https://ui.perfetto.dev or "
                    "chrome://tracing)\n",
                    o.tracePath.c_str());
    }
    if (!o.jsonPath.empty()) {
        if (!metrics::writeFile(o.jsonPath,
                                metrics::runStatsToJson(rs) + "\n"))
            return 1;
        std::printf("wrote %s\n", o.jsonPath.c_str());
    }
    return ok ? 0 : 1;
}

int
traceRecordMain(Options &o)
{
    if (o.app.empty() || o.traceOut.empty()) {
        std::fprintf(stderr,
                     "trace record: --app and --out are required\n");
        return 1;
    }
    trace::TraceSummary s = trace::recordWorkloadTrace(
        o.traceOut, profileByName(o.app), o.capture);
    std::printf("recorded %s: %llu insts in %u shard(s), crc %08x\n",
                o.traceOut.c_str(),
                static_cast<unsigned long long>(s.totalInsts),
                s.shardCount, s.combinedCrc);
    return 0;
}

int
traceInfoMain(Options &o)
{
    trace::TraceSet set = trace::TraceSet::openOrDie(o.args[0]);
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
traceCatMain(Options &o)
{
    trace::TraceSet set = trace::TraceSet::openOrDie(o.args[0]);
    if (o.catThread >= set.metadata().threads) {
        std::fprintf(stderr, "trace cat: thread %u out of range (%u)\n",
                     o.catThread, set.metadata().threads);
        return 1;
    }
    trace::TraceReplaySource src(set, o.catThread);
    if (o.catStart > 0)
        src.seekTo(o.catStart);
    TextTable t({"index", "pc", "op", "dst", "srcs", "imm", "memAddr",
                 "taken"});
    DynInst inst;
    for (std::uint64_t n = 0; n < o.catLimit && src.next(inst); ++n) {
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
traceVerifyMain(Options &o)
{
    const std::string &dir = o.args[0];
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
sweepMain(Options &o)
{
    if (o.list) {
        TextTable t({"figure", "jobs", "description"});
        for (const auto &name : figureNames()) {
            FigureSweep fs = figureSweep(name);
            t.addRow({fs.name, std::to_string(fs.jobs.size()),
                      fs.description});
        }
        std::printf("%s", t.render().c_str());
        return 0;
    }
    if (o.args.empty()) {
        std::fprintf(stderr,
                     "sweep: figure name required (see sweep --list)\n");
        return 1;
    }
    const std::string &figure = o.args[0];
    if (!figureExists(figure)) {
        std::fprintf(stderr,
                     "sweep: unknown figure '%s' (see sweep --list)\n",
                     figure.c_str());
        return 1;
    }

    const FigureSweep fs = figureSweep(figure, o.sweepInsts, o.knobs.seed);
    // Run-level flags go on a copy: the figure's table reads the
    // grid's own points.
    std::vector<SweepJob> runJobs = fs.jobs;
    for (SweepJob &job : runJobs) {
        job.knobs.audit |= o.knobs.audit;
        job.knobs.telemetry |= o.knobs.telemetry;
    }
    ExperimentDriver driver(o.jobs);
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

    if (o.knobs.audit) {
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

    if (o.knobs.telemetry) {
        // One Chrome trace per job. Figures re-run the same
        // (workload, variant) pair under different knobs, so the job
        // index keeps the filenames unique.
        std::string traceDir = o.sweepOut + "/" + fs.name + "_telemetry";
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
    std::string jsonPath = o.sweepOut + "/" + fs.name + ".json";
    if (!metrics::writeFile(
            jsonPath, metrics::sweepToJson(fs.name, results, table.extras)))
        return 1;
    std::printf("wrote %s (%zu jobs)\n", jsonPath.c_str(),
                results.size());
    if (o.csv) {
        std::string csvPath = o.sweepOut + "/" + fs.name + ".csv";
        if (!metrics::writeFile(csvPath, metrics::sweepToCsv(results)))
            return 1;
        std::printf("wrote %s\n", csvPath.c_str());
    }
    std::printf("\n%s", table.render().c_str());
    return 0;
}

int
litmusListMain(Options &)
{
    TextTable t({"test", "threads", "stores", "observed", "prefix",
                 "description"});
    for (const check::LitmusTest &test : check::litmusCorpus()) {
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

/** `litmus run` and `litmus explore`; the mode picks which. */
int
litmusCheckMain(Options &o)
{
    using check::ExploreMode;
    using check::LitmusResult;
    using check::LitmusTest;

    const check::LitmusOptions &opts = o.litmusOpts;
    const char *verb =
        opts.mode == ExploreMode::Exhaustive ? "run" : "explore";
    std::vector<const LitmusTest *> tests;
    if (o.all && !o.args.empty()) {
        std::fprintf(stderr,
                     "litmus %s: --all runs the whole corpus; name tests "
                     "or pass --all, not both\n",
                     verb);
        return 1;
    }
    if (o.all) {
        for (const LitmusTest &t : check::litmusCorpus())
            tests.push_back(&t);
    } else {
        for (const std::string &name : o.args) {
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
        std::fprintf(stderr, "litmus %s: name tests or pass --all\n",
                     verb);
        return 1;
    }

    std::string why;
    if (!check::variantSupportsLitmus(opts.variant, &why)) {
        std::fprintf(stderr, "litmus: variant '%s' unsupported: %s\n",
                     variantToken(opts.variant), why.c_str());
        return 1;
    }

    std::printf("litmus %s: %zu test(s), variant %s (flavor %s)%s\n",
                verb, tests.size(), variantToken(opts.variant),
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

    if (!o.jsonPath.empty()) {
        if (!metrics::writeFile(o.jsonPath,
                                check::litmusResultsJson(results, opts)))
            return 1;
        std::printf("wrote %s\n", o.jsonPath.c_str());
    }

    if (o.expectDivergence && divergences == 0) {
        std::printf("FAIL: expected at least one strict-model "
                    "divergence, observed none\n");
        return 1;
    }
    std::printf("%s\n", allPass ? "litmus: all conformance checks pass"
                                : "litmus: FAILURES above");
    return allPass ? 0 : 1;
}

int
fuzzReproMain(Options &o)
{
    const std::string &file = o.args[0];
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
    if (o.checkMinimal) {
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
fuzzRunMain(Options &o)
{
    const fuzz::CampaignOptions &opts = o.campaign;
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

    if (!o.jsonPath.empty()) {
        if (!metrics::writeFile(o.jsonPath, fuzz::campaignJson(res, opts)))
            return 1;
        std::printf("wrote %s\n", o.jsonPath.c_str());
    }

    bool ok = res.pass();
    for (const fuzz::CampaignFinding &f : res.findings)
        if (f.replayAttempted && !f.replayConfirmed)
            ok = false;
    if (o.expectDivergence && res.strictDivergences == 0) {
        std::printf("FAIL: expected at least one strict-forbidden "
                    "state, observed none\n");
        ok = false;
    }
    std::printf("%s\n", ok ? "fuzz: campaign verdict pass"
                           : "fuzz: FAILURES above");
    return ok ? 0 : 1;
}

int
serveMain(Options &o)
{
    const serve::ServeConfig &cfg = o.serveCfg;
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
    if (cfg.arrival.kind != serve::ArrivalKind::Bursty &&
        !o.burstFlag.empty()) {
        std::fprintf(stderr, "%s applies only to --arrival bursty\n",
                     o.burstFlag.c_str());
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
    if (!o.tracePath.empty() && !cfg.telemetry) {
        std::fprintf(stderr,
                     "--telemetry-trace requires --telemetry\n");
        return 1;
    }
    if (o.serveVariants.empty())
        o.serveVariants = serve::allServeVariants();

    std::printf("serve: %llu %s request(s) on %u thread(s), %s "
                "arrivals (mean gap %g), zipf theta %g, %u failure "
                "point(s), seed %llu\n",
                static_cast<unsigned long long>(cfg.requests),
                serve::serveWorkloadToken(cfg.workload), cfg.threads,
                serve::arrivalToken(cfg.arrival.kind),
                cfg.arrival.meanGap, cfg.skew, cfg.failures,
                static_cast<unsigned long long>(cfg.seed));

    serve::ServeStats stats = serve::runServeStudy(cfg, o.serveVariants);

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

    if (!o.tracePath.empty()) {
        if (!obs::writeChromeTrace(stats.variants.front().telemetry,
                                   o.tracePath))
            return 1;
        std::printf("wrote %s\n", o.tracePath.c_str());
    }
    if (!o.jsonPath.empty()) {
        if (!metrics::writeFile(o.jsonPath,
                                serve::serveToJson(stats) + "\n"))
            return 1;
        std::printf("wrote %s\n", o.jsonPath.c_str());
    }
    return ok ? 0 : 1;
}

/**
 * The command table: every subcommand with its synopsis, positional
 * arity and flags, whose setters write into @p o. Its order is the
 * order of `ppa_cli --help`.
 */
std::vector<Command>
commandTable(Options &o)
{
    ExperimentKnobs &k = o.knobs;
    serve::ServeConfig &s = o.serveCfg;
    const Flag insts{"--insts", "N",
                     "committed instructions per core (default 50000)",
                     [&o](const char *v) {
                         o.knobs.instsPerCore =
                             parsePositiveCount("--insts", v);
                         o.instsGiven = true;
                     }};
    const Flag threads = number("--threads", "N",
                                "thread/core count (default: profile)",
                                k.threads, parseUnsigned);
    const Flag seed = number("--seed", "N", "workload seed (default 42)",
                             k.seed, parseCount);
    const std::vector<Flag> litmusFlags = {
        toggle("--all", "run the whole corpus", o.all),
        variantFlag("system variant to crash-observe (default: ppa; "
                    "memory-mode\nand replaycache are judged against "
                    "their own model flavors)",
                    o.litmusOpts.variant),
        text("--json", "FILE",
             "write the conformance verdicts as JSON "
             "(tools/litmus_report.py\naggregates results/litmus_*.json)",
             o.jsonPath),
        toggle("--expect-divergence",
               "fail unless at least one observed outcome diverges from "
               "the\nstrict PPA model (baseline discrimination proof)",
               o.expectDivergence),
    };
    std::vector<Flag> exploreFlags = litmusFlags;
    exploreFlags.push_back(
        number("--schedules", "N",
               "explore: crash points to sample per test (default 64)",
               o.litmusOpts.schedules, parsePositiveUnsigned));
    exploreFlags.push_back(
        number("--seed", "N", "explore: crash-schedule RNG seed (default 1)",
               o.litmusOpts.seed, parseCount));
    // A bursty-only serve flag notes its name, so serveMain can reject
    // it under Poisson arrivals instead of ignoring it.
    auto burstyOnly = [&o](Flag f) {
        f.set = [&o, name = f.name, set = std::move(f.set)](const char *v) {
            set(v);
            if (o.burstFlag.empty())
                o.burstFlag = name;
        };
        return f;
    };

    return {
        {.group = "run",
         .title = "simulate one application (the default subcommand)",
         .usage = "[run] --app NAME [options]",
         .flags = {
             toggle("--list", "list the modeled applications", o.list),
             text("--app", "NAME",
                  "application to run (required unless --list)", o.app),
             variantFlag("memory-mode | ppa | capri | replaycache |\n"
                         "eadr-bbb | dram-only (default: ppa)",
                         o.variant),
             insts,
             threads,
             number("--csq", "N", "CSQ entries (default 40)", k.csqEntries,
                    parsePositiveUnsigned),
             number("--int-prf", "N", "integer PRF entries (default 180)",
                    k.intPrf, parsePositiveUnsigned),
             number("--fp-prf", "N", "FP PRF entries (default 168)",
                    k.fpPrf, parsePositiveUnsigned),
             number("--wpq", "N", "WPQ entries per controller (default 16)",
                    k.wpqEntries, parsePositiveUnsigned),
             number("--bw", "G", "NVM write bandwidth GB/s (default 2.3)",
                    k.nvmWriteGbps, parsePositiveDouble),
             toggle("--l3", "add an L3 between L2 and DRAM cache",
                    k.l3Cache),
             seed,
             toggle("--compare",
                    "also run the memory-mode baseline and report the "
                    "slowdown",
                    o.compare),
             toggle("--audit",
                    "attach the persistence-invariant auditors (ppa "
                    "variant)",
                    k.audit),
             {"--fail-at-cycle", "N",
              "inject a power failure at cycle N and recover through the\n"
              "serialized checkpoint (repeatable; ppa variant)",
              [&k](const char *v) {
                  k.failAtCycles.push_back(
                      parsePositiveCount("--fail-at-cycle", v));
              }},
             text("--trace", "DIR",
                  "replay a recorded trace instead of the generator; "
                  "threads,\ninsts, seed and app come from the manifest",
                  k.traceDir),
             number("--time-parallel", "K",
                    "split this one run into K instruction segments and "
                    "simulate\nthem concurrently (docs/PERF.md; not "
                    "replaycache)",
                    k.timeParallel, parseUnsigned),
             number("--warmup-insts", "N",
                    "per-segment warmup prefix in instructions, discarded "
                    "while\nmicroarchitectural state re-converges (default "
                    "2000)",
                    k.tpWarmupInsts, parseCount),
             number("--tp-workers", "N",
                    "host threads for segment execution (0 = hardware); "
                    "results\nare identical for any value",
                    k.tpWorkers, parseUnsigned),
             {"--tp-fail", "S:C",
              "inject a power failure in segment S once its measured "
              "window\nhas run C cycles (C=0 = exactly at the segment "
              "join;\nrepeatable; ppa variant)",
              [&k](const char *v) {
                  k.tpFailAt.push_back(parseSegmentFailure(v));
              }},
             toggle("--error-bound",
                    "also run the unsegmented serial reference and report "
                    "the\nper-stat warmup-truncation delta (requires "
                    "--time-parallel)",
                    o.errorBound),
             text("--json", "FILE",
                  "also write the run's RunStats JSON to FILE", o.jsonPath),
             toggle("--telemetry",
                    "attach the in-run telemetry collector "
                    "(docs/TELEMETRY.md):\nsampled counter series, "
                    "region/power timelines, and\nstall attribution land "
                    "in stats.telemetry",
                    k.telemetry),
             {"--telemetry-sample", "N",
              "counter-series sampling period in cycles (default 256;\n"
              "implies --telemetry)",
              [&k](const char *v) {
                  k.telemetrySampleCycles =
                      parsePositiveCount("--telemetry-sample", v);
                  k.telemetry = true;
              }},
             {"--telemetry-trace", "FILE",
              "write a Chrome trace-event JSON of the run, loadable\n"
              "in Perfetto / chrome://tracing (implies --telemetry)",
              [&o](const char *v) {
                  o.tracePath = v;
                  o.knobs.telemetry = true;
              }},
         },
         .body = runMain},

        {.group = "profile",
         .title = "run with telemetry and print where the cycles went",
         .usage = "profile APP [options]",
         .positional = "APP", .minArgs = 1, .maxArgs = 1,
         .flags = {
             variantFlag("system variant (default: ppa)", o.variant),
             insts,
             threads,
             seed,
             number("--telemetry-sample", "N",
                    "counter-series sampling period in cycles (default 256)",
                    k.telemetrySampleCycles, parsePositiveCount),
             text("--telemetry-trace", "FILE",
                  "also write the Chrome trace-event JSON", o.tracePath),
             text("--json", "FILE",
                  "also write the run's RunStats JSON (with "
                  "stats.telemetry)",
                  o.jsonPath),
         },
         .body = profileMain},

        {.group = "trace", .verb = "record",
         .title = "record/inspect committed-stream traces",
         .usage = "trace record [options]",
         .summary = "record a workload's committed stream",
         .flags = {
             text("--app", "NAME", "record: application to record (required)",
                  o.app),
             text("--out", "DIR",
                  "record: trace directory to write (required)", o.traceOut),
             number("--insts", "N",
                    "record: committed instructions per thread (default "
                    "50000)",
                    o.capture.instsPerThread, parsePositiveCount),
             number("--seed", "N", "record: workload seed (default 42)",
                    o.capture.seed, parseCount),
             number("--threads", "N",
                    "record: thread count (default: profile)",
                    o.capture.threads, parseUnsigned),
             number("--shard-insts", "N",
                    "record: instructions per shard file (default 262144)",
                    o.capture.shardInsts, parsePositiveCount),
             number("--block-insts", "N",
                    "record: instructions per seekable block (default 4096)",
                    o.capture.blockInsts, parsePositiveUnsigned),
         },
         .body = traceRecordMain},
        {.group = "trace", .verb = "info", .usage = "trace info DIR",
         .summary = "print the manifest and shard table",
         .positional = "DIR", .minArgs = 1, .maxArgs = 1,
         .body = traceInfoMain},
        {.group = "trace", .verb = "cat", .usage = "trace cat DIR [options]",
         .summary = "dump records as text",
         .positional = "DIR", .minArgs = 1, .maxArgs = 1,
         .flags = {
             number("--thread", "T", "cat: thread to dump (default 0)",
                    o.catThread, parseUnsigned),
             number("--limit", "N", "cat: records to print (default 32)",
                    o.catLimit, parseCount),
             number("--start", "I", "cat: first instruction index (default 0)",
                    o.catStart, parseCount),
         },
         .body = traceCatMain},
        {.group = "trace", .verb = "verify", .usage = "trace verify DIR",
         .summary = "check manifest, CRCs, and decode every block",
         .positional = "DIR", .minArgs = 1, .maxArgs = 1,
         .body = traceVerifyMain},

        {.group = "sweep",
         .title = "run one figure's full grid in parallel and print its "
                  "table",
         .usage = "sweep FIGURE [options]",
         .positional = "FIGURE", .maxArgs = 1,
         .flags = {
             toggle("--list", "list the available figure sweeps", o.list),
             number("--jobs", "N", "driver worker threads (default: hardware)",
                    o.jobs, parseUnsigned),
             number("--insts", "N",
                    "committed instructions per core (default: figure's "
                    "own)",
                    o.sweepInsts, parseCount),
             seed,
             text("--out", "DIR",
                  "output directory (default: $PPA_RESULTS_DIR or results)",
                  o.sweepOut),
             toggle("--csv", "also write FIGURE.csv next to the JSON", o.csv),
             toggle("--audit",
                    "run every ppa-variant job with the invariant auditors "
                    "attached",
                    k.audit),
             toggle("--telemetry",
                    "run every job with telemetry attached and write one "
                    "Chrome\ntrace per job under FIGURE_telemetry/",
                    k.telemetry),
         },
         .body = sweepMain},

        {.group = "litmus", .verb = "list",
         .title = "persistency-model conformance checks (docs/CHECKING.md)",
         .usage = "litmus list", .summary = "show the litmus corpus",
         .body = litmusListMain},
        {.group = "litmus", .verb = "run",
         .usage = "litmus run [TEST...] [options]",
         .summary = "exhaustive crash-point enumeration",
         .positional = "TEST", .maxArgs = kAnyArgs, .flags = litmusFlags,
         .body = litmusCheckMain},
        {.group = "litmus", .verb = "explore",
         .usage = "litmus explore [TEST...] [options]",
         .summary = "auditor-biased randomized crashes",
         .positional = "TEST", .maxArgs = kAnyArgs, .flags = exploreFlags,
         .body = [](Options &opts) {
             opts.litmusOpts.mode = check::ExploreMode::Randomized;
             return litmusCheckMain(opts);
         }},

        {.group = "fuzz", .verb = "run",
         .title = "crash-consistency fuzzing campaign (docs/FUZZING.md)",
         .usage = "fuzz run [options]",
         .summary = "generate programs, crash them, judge, shrink",
         .flags = {
             variantFlag("variant to crash-observe (default: ppa)",
                         o.campaign.variant),
             number("--programs", "N",
                    "generated programs per campaign (default 200)",
                    o.campaign.programs, parsePositiveCount),
             number("--schedules", "N",
                    "biased crash points per program (default 16)",
                    o.campaign.schedules, parsePositiveUnsigned),
             number("--seed", "N",
                    "campaign seed; results are bitwise reproducible from "
                    "it\n(default 1)",
                    o.campaign.seed, parseCount),
             number("--max-findings", "N",
                    "offending programs to record, replay, and shrink "
                    "(default 4)",
                    o.campaign.maxFindings, parseUnsigned),
             text("--corpus-out", "DIR",
                  "write minimal reproducers here as .litmus files",
                  o.campaign.corpusDir),
             text("--trace-out", "DIR",
                  "record findings as traces here and confirm them by "
                  "replay",
                  o.campaign.traceDir),
             text("--json", "FILE",
                  "write the campaign verdict as JSON "
                  "(tools/fuzz_report.py\naggregates)",
                  o.jsonPath),
             toggle("--expect-divergence",
                    "fail unless the campaign found at least one\n"
                    "strict-forbidden state",
                    o.expectDivergence),
         },
         .body = fuzzRunMain},
        {.group = "fuzz", .verb = "repro", .usage = "fuzz repro FILE [options]",
         .summary = "re-judge a minimal reproducer file",
         .positional = "FILE", .minArgs = 1, .maxArgs = 1,
         .flags = {toggle("--check-minimal",
                          "repro: also verify the reproducer is 1-minimal",
                          o.checkMinimal)},
         .body = fuzzReproMain},

        {.group = "serve",
         .title = "open-loop transaction-serving study (docs/SERVING.md)",
         .usage = "serve [options]",
         .summary = "drive Zipfian request streams against each durability\n"
                    "variant and compare tail latency, throughput,\n"
                    "recovery time, and data loss",
         .flags = {
             {"--workload", "W", "tatp | tpcc | kv (default tatp)",
              [&s](const char *v) {
                  s.workload = parseChoice("serve workload",
                                           " (tatp, tpcc, kv)", v,
                                           serve::serveWorkloadFromToken);
              }},
             {"--variant", "V",
              "serve variant: ppa, undo-redo-log, delay-free;\n"
              "repeatable (default: all three)",
              [&o](const char *v) {
                  o.serveVariants.push_back(parseChoice(
                      "serve variant", " (ppa, undo-redo-log, delay-free)",
                      v, serve::serveVariantFromToken));
              }},
             number("--ops", "N",
                    "total requests across all threads (default 1000000)",
                    s.requests, parsePositiveCount),
             number("--threads", "N",
                    "server cores / request streams (default 2)", s.threads,
                    parsePositiveUnsigned),
             number("--keys", "N",
                    "per-thread key-space size; a power of two <= 65536\n"
                    "(default 4096)",
                    s.keys, parsePositiveCount),
             number("--skew", "S",
                    "Zipfian theta, non-negative; 0 = uniform (default 0.99)",
                    s.skew, parseNonNegDouble),
             number("--read-pct", "N",
                    "kv workload GET percentage, 0..100 (default 50)",
                    s.readPct, parseUnsigned),
             {"--arrival", "A",
              "arrival process: poisson | bursty (default poisson)",
              [&s](const char *v) {
                  s.arrival.kind = parseChoice("arrival process",
                                               " (poisson, bursty)", v,
                                               serve::arrivalFromToken);
              }},
             {"--mean-gap", "N",
              "mean inter-arrival gap per stream in cycles (default 256)",
              [&s](const char *v) {
                  s.arrival.meanGap = static_cast<double>(
                      parsePositiveCount("--mean-gap", v));
              }},
             burstyOnly(number("--burst-factor", "F",
                               "bursty: on-phase rate multiplier (default "
                               "4)",
                               s.arrival.burstFactor, parseNonNegDouble)),
             burstyOnly({"--burst-period", "N",
                         "bursty: square-wave period in cycles (default "
                         "65536)",
                         [&s](const char *v) {
                             s.arrival.period = static_cast<double>(
                                 parsePositiveCount("--burst-period", v));
                         }}),
             burstyOnly(number("--on-fraction", "F",
                               "bursty: fraction of each period in the on "
                               "phase,\nin (0, 1) (default 0.25)",
                               s.arrival.onFraction, parseNonNegDouble)),
             number("--failures", "N",
                    "injected power-failure points per variant (default 8)",
                    s.failures, parseUnsigned),
             number("--seed", "N",
                    "root seed; the whole study is bitwise reproducible\n"
                    "from it (default 42)",
                    s.seed, parseCount),
             number("--workers", "N",
                    "host threads across variants; any value yields\n"
                    "identical output (default: hardware parallelism)",
                    s.workers, parseUnsigned),
             text("--json", "FILE",
                  "write the study as JSON (tools/serve_report.py renders "
                  "it)",
                  o.jsonPath),
             toggle("--telemetry",
                    "collect in-run telemetry and request spans per variant",
                    s.telemetry),
             text("--telemetry-trace", "FILE",
                  "write the first variant's Chrome trace (needs "
                  "--telemetry)",
                  o.tracePath),
         },
         .body = serveMain},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    const std::vector<Command> table = commandTable(o);
    if (argc < 2 || isHelp(argv[1])) {
        printAll(table);
        return argc < 2 ? 1 : 0;
    }
    return parseCommandLine(table, argc, argv, o).body(o);
}

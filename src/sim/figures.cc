#include "sim/figures.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <span>

#include "common/logging.hh"
#include "common/stats.hh"
#include "energy/cost_model.hh"
#include "sim/report.hh"

namespace ppa
{

namespace
{

constexpr std::uint64_t defaultInsts = 15'000;

/** Incremental grid builder shared by the figure definitions. */
struct GridBuilder
{
    ExperimentKnobs base; ///< Table 2 configuration at the sweep's budget
    std::vector<SweepJob> jobs;

    void
    add(const WorkloadProfile &profile, SystemVariant variant,
        const ExperimentKnobs &knobs)
    {
        jobs.push_back({profile, variant, knobs});
    }

    /** profiles x variants at @p knobs. */
    void
    cross(const std::vector<WorkloadProfile> &profiles,
          std::span<const SystemVariant> variants,
          const ExperimentKnobs &knobs)
    {
        for (const auto &p : profiles)
            for (SystemVariant v : variants)
                add(p, v, knobs);
    }
};

/** A figure's finished grid, read back point by point. */
class FigureRuns
{
  public:
    FigureRuns(const FigureSweep &fs, const std::vector<JobResult> &results)
        : base(fs.base), figure(fs.name), runs(results)
    {
        if (results.size() != fs.jobs.size())
            fatal("figure '", fs.name, "': ", results.size(),
                  " results for a grid of ", fs.jobs.size(), " jobs");
        for (std::size_t i = 0; i < fs.jobs.size(); ++i) {
            const SweepJob &job = fs.jobs[i];
            const SweepJob &ran = results[i].job;
            if (ran.profile.name != job.profile.name ||
                ran.variant != job.variant)
                fatal("figure '", fs.name, "': result ", i, " is ",
                      ran.profile.name, "/", variantToken(ran.variant),
                      ", but grid job ", i, " is ", job.profile.name, "/",
                      variantToken(job.variant));
            index.emplace(key(job.profile, job.variant, job.knobs), i);
        }
    }

    /** The knobs every grid point starts from. */
    ExperimentKnobs base;

    /** The stats of one grid point; fatal when the grid lacks it. */
    const RunStats &
    at(const WorkloadProfile &profile, SystemVariant variant,
       const ExperimentKnobs &knobs) const
    {
        auto it = index.find(key(profile, variant, knobs));
        if (it == index.end())
            fatal("figure '", figure, "' reads ", profile.name, "/",
                  variantToken(variant), " at ",
                  metrics::knobsToJson(knobs),
                  ", a point outside its grid");
        return runs[it->second].stats;
    }

  private:
    static std::string
    key(const WorkloadProfile &profile, SystemVariant variant,
        const ExperimentKnobs &knobs)
    {
        return profile.name + '|' + variantToken(variant) + '|' +
               metrics::knobsToJson(knobs);
    }

    std::string figure;
    const std::vector<JobResult> &runs;
    std::map<std::string, std::size_t> index;
};

FigureTable
makeTable(std::string title, std::string reference,
          std::vector<std::string> headers)
{
    return {std::move(title), std::move(reference),
            TextTable(std::move(headers)), {}, {}};
}

std::vector<WorkloadProfile>
profilesNamed(const std::vector<std::string> &names)
{
    std::vector<WorkloadProfile> out;
    for (const std::string &name : names)
        out.push_back(profileByName(name));
    return out;
}

std::vector<WorkloadProfile>
sweepAppProfiles()
{
    return profilesNamed(sweepAppNames());
}

/**
 * The per-app comparison figures (1, 8, 9, 10, 14): one row per app
 * with the slowdown of each later variant over the first (the
 * baseline), then a geomean row. @p l2MissColumn adds Figure 10's
 * documented L2 miss ratio.
 */
FigureTable
slowdownTable(const FigureRuns &r, FigureTable t,
              const std::vector<WorkloadProfile> &apps,
              std::span<const SystemVariant> variants,
              const ExperimentKnobs &knobs, bool l2MissColumn = false)
{
    std::vector<std::vector<double>> slow(variants.size() - 1);
    for (const auto &p : apps) {
        const RunStats &base = r.at(p, variants[0], knobs);
        std::vector<std::string> row{p.name, suiteName(p.suite)};
        if (l2MissColumn)
            row.push_back(TextTable::percent(p.documentedL2Miss, 0));
        for (std::size_t i = 1; i < variants.size(); ++i) {
            double s = slowdown(r.at(p, variants[i], knobs), base);
            slow[i - 1].push_back(s);
            row.push_back(TextTable::factor(s));
        }
        t.table.addRow(std::move(row));
    }
    std::vector<std::string> row{"geomean", "-"};
    if (l2MissColumn)
        row.emplace_back("-");
    for (const auto &s : slow)
        row.push_back(TextTable::factor(geomean(s)));
    t.table.addRow(std::move(row));
    return t;
}

constexpr std::array memoryModeOnly{SystemVariant::MemoryMode};
constexpr std::array ppaOnly{SystemVariant::Ppa};
constexpr std::array ppaVsMemoryMode{SystemVariant::MemoryMode,
                                     SystemVariant::Ppa};

/** One column of a sensitivity figure: its header and its knobs. */
struct Setting
{
    std::string label;
    ExperimentKnobs knobs;
};

/** Sensitivity figures (15-19): PPA vs memory mode at each setting. */
void
buildSensitivity(GridBuilder &g, const std::vector<WorkloadProfile> &apps,
                 const std::vector<Setting> &settings)
{
    for (const Setting &s : settings)
        g.cross(apps, ppaVsMemoryMode, s.knobs);
}

/** One row per app, one PPA-slowdown column per setting, then a
 *  geomean row. */
FigureTable
sensitivityTable(const FigureRuns &r, std::string title,
                 std::string reference,
                 const std::vector<WorkloadProfile> &apps,
                 const std::vector<Setting> &settings)
{
    std::vector<std::string> headers{"app"};
    for (const Setting &s : settings)
        headers.push_back(s.label);
    FigureTable t = makeTable(std::move(title), std::move(reference),
                              std::move(headers));
    std::vector<std::vector<double>> slow(settings.size());
    for (const auto &p : apps) {
        std::vector<std::string> row{p.name};
        for (std::size_t i = 0; i < settings.size(); ++i) {
            const ExperimentKnobs &k = settings[i].knobs;
            double s = slowdown(r.at(p, SystemVariant::Ppa, k),
                                r.at(p, SystemVariant::MemoryMode, k));
            row.push_back(TextTable::factor(s));
            slow[i].push_back(s);
        }
        t.table.addRow(std::move(row));
    }
    std::vector<std::string> row{"geomean"};
    for (const auto &s : slow)
        row.push_back(TextTable::factor(geomean(s)));
    t.table.addRow(std::move(row));
    return t;
}

// --- Figure 5 --------------------------------------------------------

constexpr std::array fig05Suites{Suite::Cpu2006, Suite::Cpu2017,
                                 Suite::Splash3, Suite::Whisper,
                                 Suite::Stamp,   Suite::MiniApps};

FigureTable
reportFig05(const FigureRuns &r)
{
    FigureTable t = makeTable(
        "Figure 5: free physical registers (baseline, sampled per "
        "cycle)",
        "Columns: registers still free at the 25th percentile of cycles "
        "(i.e. 75% of cycles have at least this many free). Paper: "
        "CPU2006 has 138 INT / 110 FP free for 75% of cycles.",
        {"suite", "INT free @75% cycles", "FP free @75% cycles",
         "INT mean free", "FP mean free"});
    for (Suite suite : fig05Suites) {
        stats::Histogram intHist(r.base.intPrf);
        stats::Histogram fpHist(r.base.fpPrf);
        for (const auto &p : profilesOfSuite(suite)) {
            const RunStats &rs = r.at(p, SystemVariant::MemoryMode, r.base);
            intHist.merge(rs.freeIntHist);
            fpHist.merge(rs.freeFpHist);
        }
        // "75% of cycles have >= N free" is the 25th percentile of
        // the free-count distribution.
        t.table.addRow({suiteName(suite),
                        std::to_string(intHist.percentile(0.25)),
                        std::to_string(fpHist.percentile(0.25)),
                        TextTable::num(intHist.mean(), 1),
                        TextTable::num(fpHist.mean(), 1)});
    }
    return t;
}

// --- Figures 11-13: per-region and rename statistics -----------------

FigureTable
reportFig11(const FigureRuns &r)
{
    FigureTable t = makeTable(
        "Figure 11: region-end stall cycles as a fraction of execution",
        "Paper: ~0.21% average; water-ns 6.1% and water-sp 8.1% are the "
        "worst (store-dense, shorter regions).",
        {"app", "suite", "stall ratio", "regions", "avg stall/region"});
    double ratioSum = 0.0;
    unsigned count = 0;
    for (const auto &p : allProfiles()) {
        const RunStats &ppa = r.at(p, SystemVariant::Ppa, r.base);
        double ratio = ppa.boundaryStallRatio();
        ratioSum += ratio;
        ++count;
        double perRegion =
            ppa.regionCount
                ? static_cast<double>(ppa.boundaryStallCycles) /
                      static_cast<double>(ppa.regionCount)
                : 0.0;
        t.table.addRow({p.name, suiteName(p.suite),
                        TextTable::percent(ratio, 2),
                        std::to_string(ppa.regionCount),
                        TextTable::num(perRegion, 1)});
    }
    t.table.addRow(
        {"mean", "-",
         TextTable::percent(count ? ratioSum / count : 0.0, 2), "-",
         "-"});
    return t;
}

FigureTable
reportFig12(const FigureRuns &r)
{
    FigureTable t = makeTable(
        "Figure 12: extra rename stalls (no free phys reg) under PPA",
        "Paper: +0.07% of cycles on average.",
        {"app", "suite", "baseline stall", "PPA stall", "increase"});
    double increaseSum = 0.0;
    unsigned count = 0;
    for (const auto &p : allProfiles()) {
        double baseRatio =
            r.at(p, SystemVariant::MemoryMode, r.base).renameStallRatio();
        double ppaRatio =
            r.at(p, SystemVariant::Ppa, r.base).renameStallRatio();
        double inc = ppaRatio - baseRatio;
        increaseSum += inc;
        ++count;
        t.table.addRow({p.name, suiteName(p.suite),
                        TextTable::percent(baseRatio, 3),
                        TextTable::percent(ppaRatio, 3),
                        TextTable::percent(inc, 3)});
    }
    t.table.addRow(
        {"mean", "-", "-", "-",
         TextTable::percent(count ? increaseSum / count : 0.0, 3)});
    return t;
}

FigureTable
reportFig13(const FigureRuns &r)
{
    FigureTable t = makeTable(
        "Figure 13: dynamic region size (instructions per region)",
        "Paper: ~301 others + ~18 stores per region on average; Capri's "
        "regions are ~29 instructions (~11x shorter).",
        {"app", "suite", "stores/region", "others/region",
         "total/region"});
    double storeSum = 0.0;
    double otherSum = 0.0;
    unsigned count = 0;
    for (const auto &p : allProfiles()) {
        const RunStats &ppa = r.at(p, SystemVariant::Ppa, r.base);
        storeSum += ppa.avgRegionStores;
        otherSum += ppa.avgRegionOthers;
        ++count;
        t.table.addRow(
            {p.name, suiteName(p.suite),
             TextTable::num(ppa.avgRegionStores, 1),
             TextTable::num(ppa.avgRegionOthers, 1),
             TextTable::num(ppa.avgRegionStores + ppa.avgRegionOthers,
                            1)});
    }
    if (count) {
        t.table.addRow({"mean", "-", TextTable::num(storeSum / count, 1),
                        TextTable::num(otherSum / count, 1),
                        TextTable::num((storeSum + otherSum) / count, 1)});
    }
    t.table.addRow({"(Capri compiler regions)", "-", "-", "-", "29"});
    return t;
}

// --- Figures 15-19: sensitivity sweeps --------------------------------

std::vector<Setting>
wpqSettings(const ExperimentKnobs &base)
{
    std::vector<Setting> out;
    for (unsigned wpq : {8u, 16u, 24u}) {
        Setting s{"WPQ-" + std::to_string(wpq), base};
        s.knobs.wpqEntries = wpq;
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<Setting>
prfSettings(const ExperimentKnobs &base)
{
    struct PrfSize
    {
        unsigned intPrf;
        unsigned fpPrf;
        const char *label;
    };
    constexpr PrfSize sizes[] = {
        {80, 80, "80/80"},
        {100, 100, "100/100"},
        {120, 120, "120/120"},
        {140, 140, "140/140"},
        {180, 168, "180/168 (default)"},
        {280, 224, "280/224 (Icelake)"},
    };
    std::vector<Setting> out;
    for (const PrfSize &size : sizes) {
        Setting s{size.label, base};
        s.knobs.intPrf = size.intPrf;
        s.knobs.fpPrf = size.fpPrf;
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<Setting>
csqSettings(const ExperimentKnobs &base)
{
    std::vector<Setting> out;
    for (unsigned csq : {10u, 20u, 30u, 40u, 50u}) {
        Setting s{"CSQ-" + std::to_string(csq), base};
        if (csq == ExperimentKnobs{}.csqEntries)
            s.label += " (default)";
        s.knobs.csqEntries = csq;
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<Setting>
bandwidthSettings(const ExperimentKnobs &base)
{
    struct Bandwidth
    {
        double gbps;
        const char *label;
    };
    constexpr Bandwidth bws[] = {{1.0, "1 GB/s"},
                                 {2.3, "2.3 GB/s (default)"},
                                 {4.0, "4 GB/s"},
                                 {6.0, "6 GB/s"}};
    std::vector<Setting> out;
    for (const Bandwidth &bw : bws) {
        Setting s{bw.label, base};
        s.knobs.nvmWriteGbps = bw.gbps;
        out.push_back(std::move(s));
    }
    return out;
}

/** Figure 19's representative MT subset (all 19 MT apps at 64
 *  threads would dominate the whole evaluation's runtime). */
std::vector<WorkloadProfile>
fig19Apps()
{
    return profilesNamed(
        {"rb", "tpcc", "r20w80", "water-ns", "ocean", "genome"});
}

std::vector<Setting>
threadSettings(const ExperimentKnobs &base)
{
    std::vector<Setting> out;
    for (unsigned threads : {8u, 16u, 32u, 64u}) {
        Setting s{std::to_string(threads) + "T", base};
        s.knobs.threads = threads;
        // Keep total simulated work bounded as threads scale.
        s.knobs.instsPerCore =
            std::min<std::uint64_t>(base.instsPerCore, 8'000);
        out.push_back(std::move(s));
    }
    return out;
}

// --- Tables 1, 4, 5, 6 -----------------------------------------------

constexpr std::array table01Variants{SystemVariant::MemoryMode,
                                     SystemVariant::ReplayCache,
                                     SystemVariant::Ppa};

FigureTable
reportTable01(const FigureRuns &r)
{
    FigureTable t = makeTable(
        "Table 1: CLWB vs PPA's asynchronous store writeback",
        "Qualitative rows from the paper, plus a measured store-queue "
        "pressure demonstration below.",
        {"property", "CLWB (x86)", "PPA"});
    t.table.addRow({"store queue entry occupied", "yes", "no"});
    t.table.addRow({"tracks each individual store", "yes",
                    "no (counter register)"});
    t.table.addRow({"requires inter-core snooping", "yes", "no"});
    t.table.addRow({"reaches NVM through DRAM cache", "no", "yes"});
    // The store-queue claim, measured: the same workload under
    // ReplayCache (clwb per store) versus PPA.
    const WorkloadProfile &hmmer = profileByName("hmmer");
    const RunStats &base = r.at(hmmer, SystemVariant::MemoryMode, r.base);
    t.table.addRow(
        {"measured slowdown (hmmer)",
         TextTable::factor(slowdown(
             r.at(hmmer, SystemVariant::ReplayCache, r.base), base)),
         TextTable::factor(
             slowdown(r.at(hmmer, SystemVariant::Ppa, r.base), base))});
    return t;
}

/** Table 4: the analytical SRAM cost model, no simulation. */
FigureTable
reportTable04(const FigureRuns &)
{
    FigureTable t = makeTable(
        "Table 4: PPA hardware overheads (22 nm)",
        "Paper: 0.005% of an 11.85 mm^2 Xeon core in total.",
        {"structure", "area (um^2)", "paper area", "access latency (ns)",
         "dynamic access (pJ)"});
    constexpr const char *paperArea[] = {"12.20", "74.03", "547.84"};
    std::size_t i = 0;
    double totalArea = 0.0;
    for (const auto &[s, c] : energy::ppaStructureCosts()) {
        t.table.addRow({std::string(s.name), TextTable::num(c.areaUm2, 2),
                        paperArea[i++],
                        TextTable::num(c.accessLatencyNs, 3),
                        TextTable::num(c.dynamicAccessPj, 5)});
        totalArea += c.areaUm2;
    }
    const double ratio = energy::ppaAreaRatio();
    t.notes = "total area: " + TextTable::num(totalArea, 2) +
              " um^2 = " + TextTable::num(ratio * 100.0, 4) +
              "% of core area (paper: 0.005%)\n";
    t.extras = {{"totalAreaUm2", totalArea}, {"coreAreaRatio", ratio}};
    return t;
}

/** Energy in milli- or microjoules, three significant digits. */
std::string
sci(double v, const char *unit)
{
    char buf[64];
    if (v >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%.3g m%s", v * 1e3, unit);
    else
        std::snprintf(buf, sizeof(buf), "%.3g u%s", v * 1e6, unit);
    return buf;
}

/** Table 5 + Section 7.13: the analytical backup-energy model. */
FigureTable
reportTable05(const FigureRuns &)
{
    using namespace energy;
    FigureTable t = makeTable(
        "Table 5: energy requirement for JIT flushing",
        "Paper: PPA 21.7 uJ / 0.06 mm^3, Capri 0.6 mJ / 1.57 mm^3, "
        "LightPC 189 mJ / 527.8 mm^3; eADR 550 mJ, BBB 775 uJ.",
        {"scheme", "flush bytes", "energy", "supercap (mm^3)",
         "Li-thin (mm^3)", "supercap/core ratio"});
    auto row = [&t](const char *scheme, std::uint64_t bytes,
                    int precision) {
        BackupRequirement req = backupForBytes(bytes);
        t.table.addRow({scheme, std::to_string(bytes),
                        sci(req.energyJ, "J"),
                        TextTable::num(req.superCapMm3, precision),
                        TextTable::num(req.liThinMm3, precision + 1),
                        TextTable::num(req.superCapRatioToCore,
                                       precision + 1)});
        return req.energyJ;
    };
    double ppaJ = row("PPA (WSP)", ppaWorstCaseCheckpointBytes(), 3);
    double capriJ = row("Capri (WSP)", capriFlushBytes(), 2);
    double lightPcJ = row("LightPC (PSP)", lightPcFlushBytes(), 1);
    t.table.addRow({"eADR (socket)", "-", sci(eadrEnergyJ(), "J"), "-",
                    "-", "-"});
    t.table.addRow({"BBB persist buffers", "-", sci(bbbEnergyJ(), "J"),
                    "-", "-", "-"});

    CheckpointTiming timing =
        checkpointTiming(ppaWorstCaseCheckpointBytes());
    t.notes = "Section 7.13 checkpoint timing (paper: 114.9 ns read + "
              "0.91 us flush for 1838 B):\n"
              "  controller read:  " +
              TextTable::num(timing.readTimeNs, 1) +
              " ns (8 B/cycle at 2 GHz)\n"
              "  PMEM flush:       " +
              TextTable::num(timing.flushTimeUs, 2) +
              " us (at 2.3 GB/s)\n";
    t.extras = {{"ppaEnergyJ", ppaJ},
                {"capriEnergyJ", capriJ},
                {"lightPcEnergyJ", lightPcJ},
                {"eadrEnergyJ", eadrEnergyJ()},
                {"bbbEnergyJ", bbbEnergyJ()},
                {"checkpointReadNs", timing.readTimeNs},
                {"checkpointFlushUs", timing.flushTimeUs}};
    return t;
}

constexpr std::array table06Variants{
    SystemVariant::MemoryMode, SystemVariant::Ppa, SystemVariant::Capri,
    SystemVariant::ReplayCache};

FigureTable
reportTable06(const FigureRuns &r)
{
    FigureTable t = makeTable(
        "Table 6: PPA vs prior WSP approaches", "",
        {"criterion", "WSP [Narayanan]", "Capri", "ReplayCache", "PPA"});
    t.table.addRow({"hardware complexity", "extremely high (UPS)", "high",
                    "no", "low"});
    t.table.addRow({"energy requirement", "extremely high", "high", "low",
                    "low"});
    t.table.addRow({"recompilation", "no", "yes", "yes", "no"});
    t.table.addRow({"transparency", "yes", "yes", "yes", "yes"});
    t.table.addRow({"enables DRAM cache", "yes", "yes", "no", "yes"});
    t.table.addRow({"enables multi-MCs", "yes", "no", "yes", "yes"});

    const WorkloadProfile &gcc = profileByName("gcc");
    const RunStats &base = r.at(gcc, SystemVariant::MemoryMode, r.base);
    auto slow = [&](SystemVariant v) {
        return TextTable::factor(slowdown(r.at(gcc, v, r.base), base));
    };
    using namespace energy;
    t.notes =
        "Measured on this repo's models (gcc): PPA " +
        slow(SystemVariant::Ppa) + ", Capri " + slow(SystemVariant::Capri) +
        ", ReplayCache " + slow(SystemVariant::ReplayCache) +
        "; JIT energy PPA " +
        TextTable::num(
            backupForBytes(ppaWorstCaseCheckpointBytes()).energyJ * 1e6,
            1) +
        " uJ vs Capri " +
        TextTable::num(backupForBytes(capriFlushBytes()).energyJ * 1e3,
                       2) +
        " mJ.\n";
    return t;
}

// --- Ablation --------------------------------------------------------

/** The ablation's knob sets: the full design, then one mechanism
 *  taken away at a time. */
struct AblationKnobs
{
    ExperimentKnobs full;
    ExperimentKnobs noCoalesce; ///< write-buffer coalescing off (§4.3)
    ExperimentKnobs tinyPrf;    ///< 80/80 PRF: compiler-short regions
};

AblationKnobs
ablationKnobs(const ExperimentKnobs &base)
{
    AblationKnobs k{base, base, base};
    k.noCoalesce.wbCoalesceWindow = 0;
    k.tinyPrf.intPrf = 80;
    k.tinyPrf.fpPrf = 80;
    return k;
}

std::vector<WorkloadProfile>
ablationApps()
{
    return profilesNamed({"gcc", "hmmer", "lbm", "rb", "water-ns", "tpcc"});
}

void
buildAblation(GridBuilder &g)
{
    const AblationKnobs k = ablationKnobs(g.base);
    for (const auto &p : ablationApps()) {
        g.add(p, SystemVariant::MemoryMode, k.full);
        g.add(p, SystemVariant::Ppa, k.full);
        g.add(p, SystemVariant::Ppa, k.noCoalesce);
        g.add(p, SystemVariant::MemoryMode, k.tinyPrf);
        g.add(p, SystemVariant::Ppa, k.tinyPrf);
        // Asynchronous persistence, proxied by ReplayCache's
        // synchronous per-store clwb.
        g.add(p, SystemVariant::ReplayCache, k.full);
    }
}

FigureTable
reportAblation(const FigureRuns &r)
{
    FigureTable t = makeTable(
        "Ablation: PPA design choices (slowdown vs memory mode)",
        "Columns isolate the contribution of each mechanism the paper "
        "builds on.",
        {"app", "full PPA", "no coalescing", "tiny PRF (80/80)",
         "sync persist (RC)"});
    const AblationKnobs k = ablationKnobs(r.base);
    std::vector<double> full, noCoalesce, tiny, syncRc;
    for (const auto &p : ablationApps()) {
        const RunStats &base = r.at(p, SystemVariant::MemoryMode, k.full);
        full.push_back(slowdown(r.at(p, SystemVariant::Ppa, k.full), base));
        noCoalesce.push_back(
            slowdown(r.at(p, SystemVariant::Ppa, k.noCoalesce), base));
        tiny.push_back(
            slowdown(r.at(p, SystemVariant::Ppa, k.tinyPrf),
                     r.at(p, SystemVariant::MemoryMode, k.tinyPrf)));
        syncRc.push_back(
            slowdown(r.at(p, SystemVariant::ReplayCache, k.full), base));
        t.table.addRow({p.name, TextTable::factor(full.back()),
                        TextTable::factor(noCoalesce.back()),
                        TextTable::factor(tiny.back()),
                        TextTable::factor(syncRc.back())});
    }
    t.table.addRow({"geomean", TextTable::factor(geomean(full)),
                    TextTable::factor(geomean(noCoalesce)),
                    TextTable::factor(geomean(tiny)),
                    TextTable::factor(geomean(syncRc))});
    return t;
}

// --- The registry ----------------------------------------------------

struct FigureDef
{
    const char *name;
    const char *description;
    void (*build)(GridBuilder &);
    FigureTable (*report)(const FigureRuns &);
};

constexpr std::array fig01Variants{SystemVariant::MemoryMode,
                                   SystemVariant::ReplayCache};
constexpr std::array fig08Variants{SystemVariant::MemoryMode,
                                   SystemVariant::Ppa,
                                   SystemVariant::Capri};
constexpr std::array fig09Variants{SystemVariant::DramOnly,
                                   SystemVariant::MemoryMode,
                                   SystemVariant::Ppa};
constexpr std::array fig10Variants{SystemVariant::MemoryMode,
                                   SystemVariant::Ppa,
                                   SystemVariant::EadrBbb};

ExperimentKnobs
withL3(ExperimentKnobs k)
{
    k.l3Cache = true;
    return k;
}

const FigureDef figureDefs[] = {
    {"fig01", "ReplayCache slowdown vs PMEM memory mode",
     [](GridBuilder &g) {
         // A representative subset across all suites (Figure 1 is the
         // motivation sketch; Figure 8 carries the full comparison).
         g.cross(sweepAppProfiles(), fig01Variants, g.base);
     },
     [](const FigureRuns &r) {
         return slowdownTable(
             r,
             makeTable("Figure 1: ReplayCache slowdown vs PMEM memory "
                       "mode (lower is better)",
                       "Paper: ~5x average slowdown across the suites.",
                       {"app", "suite", "ReplayCache"}),
             sweepAppProfiles(), fig01Variants, r.base);
     }},
    {"fig05", "free INT/FP physical-register CDFs on the baseline",
     [](GridBuilder &g) {
         g.cross(allProfiles(), memoryModeOnly, g.base);
     },
     reportFig05},
    {"fig08", "PPA and Capri slowdown vs memory mode, all 41 apps",
     [](GridBuilder &g) {
         g.cross(allProfiles(), fig08Variants, g.base);
     },
     [](const FigureRuns &r) {
         return slowdownTable(
             r,
             makeTable("Figure 8: normalized slowdown vs PMEM memory "
                       "mode (lower is better)",
                       "Paper: PPA ~1.02x mean, Capri ~1.26x mean; rb "
                       "is PPA's worst case.",
                       {"app", "suite", "PPA", "Capri"}),
             allProfiles(), fig08Variants, r.base);
     }},
    {"fig09", "memory mode and PPA slowdown vs a DRAM-only system",
     [](GridBuilder &g) {
         g.cross(allProfiles(), fig09Variants, g.base);
     },
     [](const FigureRuns &r) {
         return slowdownTable(
             r,
             makeTable("Figure 9: normalized slowdown vs a DRAM-only "
                       "volatile system",
                       "Paper: memory mode ~1.14x, PPA ~1.16x mean; "
                       "lbm/pc worst (1.44x/1.58x) due to poor "
                       "locality.",
                       {"app", "suite", "memory-mode", "PPA"}),
             allProfiles(), fig09Variants, r.base);
     }},
    {"fig10", "PPA vs ideal PSP (eADR/BBB) on memory-intensive apps",
     [](GridBuilder &g) {
         g.cross(memoryIntensiveProfiles(), fig10Variants, g.base);
     },
     [](const FigureRuns &r) {
         return slowdownTable(
             r,
             makeTable("Figure 10: slowdown vs PMEM memory mode — PPA vs "
                       "ideal PSP (eADR/BBB)",
                       "Paper: PPA ~1.03x, eADR/BBB ~1.39x mean (up to "
                       "2.4x on libquantum); rb is the one case where "
                       "BBB edges out PPA.",
                       {"app", "suite", "L2 miss (doc.)", "PPA",
                        "eADR/BBB"}),
             memoryIntensiveProfiles(), fig10Variants, r.base,
             /*l2MissColumn=*/true);
     }},
    {"fig11", "region-end stall cycles as a fraction of execution",
     [](GridBuilder &g) { g.cross(allProfiles(), ppaOnly, g.base); },
     reportFig11},
    {"fig12", "extra rename stalls (no free phys reg) under PPA",
     [](GridBuilder &g) {
         g.cross(allProfiles(), ppaVsMemoryMode, g.base);
     },
     reportFig12},
    {"fig13", "dynamic region size (stores/others per region)",
     [](GridBuilder &g) { g.cross(allProfiles(), ppaOnly, g.base); },
     reportFig13},
    {"fig14", "PPA slowdown with a shared L3 atop the DRAM cache",
     [](GridBuilder &g) {
         g.cross(allProfiles(), ppaVsMemoryMode, withL3(g.base));
     },
     [](const FigureRuns &r) {
         return slowdownTable(
             r,
             makeTable("Figure 14: PPA slowdown with an L3 atop the DRAM "
                       "cache",
                       "Paper: ~1.01x mean — region length covers the "
                       "deeper persist path.",
                       {"app", "suite", "PPA (with L3)"}),
             allProfiles(), ppaVsMemoryMode, withL3(r.base));
     }},
    {"fig15", "PPA slowdown vs WPQ size (8/16/24 entries)",
     [](GridBuilder &g) {
         buildSensitivity(g, sweepAppProfiles(), wpqSettings(g.base));
     },
     [](const FigureRuns &r) {
         return sensitivityTable(
             r, "Figure 15: PPA slowdown vs WPQ size (8 / 16 / 24 "
                "entries)",
             "Paper: WPQ-8 ~1.08x mean; rb/water-ns/water-sp most "
             "sensitive; WPQ-16 (default) absorbs the traffic.",
             sweepAppProfiles(), wpqSettings(r.base));
     }},
    {"fig16", "PPA slowdown vs PRF size (80/80 .. 280/224)",
     [](GridBuilder &g) {
         buildSensitivity(g, sweepAppProfiles(), prfSettings(g.base));
     },
     [](const FigureRuns &r) {
         return sensitivityTable(
             r, "Figure 16: PPA slowdown vs PRF size (INT/FP entries)",
             "Paper: 80/80 ~1.12x mean, default 180/168 ~1.02x, "
             "benefits saturate beyond the default (Icelake 280/224).",
             sweepAppProfiles(), prfSettings(r.base));
     }},
    {"fig17", "PPA slowdown vs CSQ size (10..50 entries)",
     [](GridBuilder &g) {
         buildSensitivity(g, sweepAppProfiles(), csqSettings(g.base));
     },
     [](const FigureRuns &r) {
         return sensitivityTable(
             r, "Figure 17: PPA slowdown vs CSQ size (10..50 entries)",
             "Paper: minimal impact; 40 entries (default) make CSQ "
             "overflow rare.",
             sweepAppProfiles(), csqSettings(r.base));
     }},
    {"fig18", "PPA slowdown vs NVM write bandwidth (1..6 GB/s)",
     [](GridBuilder &g) {
         buildSensitivity(g, sweepAppProfiles(),
                          bandwidthSettings(g.base));
     },
     [](const FigureRuns &r) {
         return sensitivityTable(
             r, "Figure 18: PPA slowdown vs NVM write bandwidth",
             "Paper: ~1.07x at 1 GB/s, ~1.02x at >= 2.3 GB/s (default); "
             "rb/water most sensitive.",
             sweepAppProfiles(), bandwidthSettings(r.base));
     }},
    {"fig19", "PPA slowdown vs thread count (MT suites, 8..64T)",
     [](GridBuilder &g) {
         buildSensitivity(g, fig19Apps(), threadSettings(g.base));
     },
     [](const FigureRuns &r) {
         return sensitivityTable(
             r, "Figure 19: PPA slowdown vs thread count (MT suites)",
             "Paper: ~1.02x-1.06x mean for 8..64 threads; "
             "water-ns/water-sp and r20w80 grow slightly with threads.",
             fig19Apps(), threadSettings(r.base));
     }},
    {"table01", "CLWB vs PPA store-queue pressure demonstration",
     [](GridBuilder &g) {
         g.cross({profileByName("hmmer")}, table01Variants, g.base);
     },
     reportTable01},
    {"table04", "PPA structure area, latency and access energy (22 nm)",
     [](GridBuilder &) {}, reportTable04},
    {"table05", "JIT-flush energy, backup capacitors, checkpoint timing",
     [](GridBuilder &) {}, reportTable05},
    {"table06", "PPA vs prior WSP schemes, measured columns",
     [](GridBuilder &g) {
         g.cross({profileByName("gcc")}, table06Variants, g.base);
     },
     reportTable06},
    {"ablation", "PPA design-choice ablation grid", buildAblation,
     reportAblation},
};

const FigureDef *
findFigure(const std::string &name)
{
    for (const FigureDef &def : figureDefs)
        if (name == def.name)
            return &def;
    return nullptr;
}

GridBuilder
gridAt(std::uint64_t instsPerCore, std::uint64_t seed)
{
    GridBuilder g;
    g.base.instsPerCore = instsPerCore;
    g.base.seed = seed;
    return g;
}

} // namespace

std::string
FigureTable::render() const
{
    std::string out = "=== " + title + " ===\n";
    if (!reference.empty())
        out += reference + "\n";
    return out + "\n" + table.render() + "\n" + notes;
}

const std::vector<std::string> &
sweepAppNames()
{
    static const std::vector<std::string> apps{
        "gcc",  "hmmer",  "lbm",    "mcf",      "libquantum",
        "rb",   "tpcc",   "sps",    "water-ns", "ocean",
        "lulesh", "xsbench"};
    return apps;
}

std::vector<std::string>
figureNames()
{
    std::vector<std::string> names;
    for (const FigureDef &def : figureDefs)
        names.push_back(def.name);
    return names;
}

bool
figureExists(const std::string &name)
{
    return findFigure(name) != nullptr;
}

FigureSweep
figureSweep(const std::string &name, std::uint64_t instsPerCore,
            std::uint64_t seed)
{
    const FigureDef *def = findFigure(name);
    if (!def)
        fatal("unknown figure sweep '", name,
              "' (try `ppa_cli sweep --list`)");
    GridBuilder g = gridAt(instsPerCore ? instsPerCore : defaultInsts, seed);
    def->build(g);
    return {def->name, def->description, g.base, std::move(g.jobs)};
}

FigureTable
figureTable(const FigureSweep &fs, const std::vector<JobResult> &results)
{
    const FigureDef *def = findFigure(fs.name);
    if (!def)
        fatal("no table for sweep '", fs.name, "'");
    return def->report(FigureRuns(fs, results));
}

} // namespace ppa

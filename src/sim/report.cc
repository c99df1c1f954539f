#include "sim/report.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace ppa
{
namespace metrics
{

std::string
formatDouble(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    PPA_ASSERT(res.ec == std::errc{}, "double format failed");
    return std::string(buf, res.ptr);
}

namespace
{

std::string
histToJson(const stats::Histogram &h)
{
    std::ostringstream os;
    os << "{\"maxValue\": " << h.maxValue()
       << ", \"total\": " << h.count()
       << ", \"overflow\": " << h.overflowCount() << ", \"bins\": [";
    const auto &bins = h.binCounts();
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (i)
            os << ", ";
        os << bins[i];
    }
    os << "]}";
    return os.str();
}

const char *
regionCauseToken(RegionEndCause cause)
{
    switch (cause) {
      case RegionEndCause::PrfExhausted:
        return "prfExhausted";
      case RegionEndCause::CsqFull:
        return "csqFull";
      case RegionEndCause::SyncPrimitive:
        return "syncPrimitive";
      case RegionEndCause::EndOfRun:
        return "endOfRun";
    }
    return "?";
}

void
uintArrayToJson(std::ostringstream &os,
                const std::vector<std::uint64_t> &values)
{
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << values[i];
    os << "]";
}

} // namespace

std::string
telemetryToJson(const obs::TelemetryResult &t)
{
    std::ostringstream os;
    os << "{\"sampleCycles\": " << t.sampleCycles
       << ", \"seriesCap\": " << t.seriesCap
       << ", \"coveredCycles\": " << t.coveredCycles;
    os << ", \"stallCycles\": [";
    for (std::size_t c = 0; c < t.stallCycles.size(); ++c) {
        os << (c ? ", " : "") << "{";
        for (unsigned k = 0; k < obs::kCycleClassCount; ++k) {
            os << (k ? ", " : "") << "\""
               << obs::cycleClassKey(static_cast<obs::CycleClass>(k))
               << "\": " << t.stallCycles[c][k];
        }
        os << "}";
    }
    os << "]";
    os << ", \"series\": [";
    for (std::size_t i = 0; i < t.series.size(); ++i) {
        const obs::TelemetrySeries &s = t.series[i];
        os << (i ? ", " : "") << "{\"name\": \"" << jsonEscape(s.name)
           << "\", \"core\": " << s.core << ", \"cycles\": ";
        uintArrayToJson(os, s.cycles);
        os << ", \"counts\": ";
        uintArrayToJson(os, s.counts);
        os << ", \"sums\": ";
        uintArrayToJson(os, s.sums);
        // Derived summary, re-emitted for plotting convenience; the
        // reader recomputes it from the buckets above.
        os << ", \"mean\": " << formatDouble(s.mean())
           << ", \"p50\": " << formatDouble(s.percentile(0.50))
           << ", \"p95\": " << formatDouble(s.percentile(0.95))
           << ", \"p99\": " << formatDouble(s.percentile(0.99))
           << ", \"p999\": " << formatDouble(s.percentile(0.999))
           << ", \"p9999\": " << formatDouble(s.percentile(0.9999))
           << ", \"max\": " << formatDouble(s.maxBucketMean()) << "}";
    }
    os << "]";
    os << ", \"regionEvents\": {\"dropped\": " << t.droppedRegionEvents
       << ", \"events\": [";
    for (std::size_t i = 0; i < t.regionEvents.size(); ++i) {
        const obs::TelemetryRegionEvent &e = t.regionEvents[i];
        os << (i ? ", " : "") << "[" << e.core << ", " << e.start
           << ", " << e.drainStart << ", " << e.end << ", \""
           << regionCauseToken(e.cause) << "\"]";
    }
    os << "]}";
    os << ", \"powerEvents\": [";
    for (std::size_t i = 0; i < t.powerEvents.size(); ++i) {
        const obs::TelemetryPowerEvent &e = t.powerEvents[i];
        os << (i ? ", " : "") << "[" << e.core << ", " << e.fail << ", "
           << e.recover << ", " << (e.recovered ? "true" : "false")
           << "]";
    }
    os << "]";
    // Request spans exist only for the serving harness; omitting the
    // member entirely elsewhere keeps classic documents byte-stable.
    if (!t.requestSpans.empty() || t.droppedRequestSpans) {
        os << ", \"requestSpans\": {\"dropped\": "
           << t.droppedRequestSpans << ", \"spans\": [";
        for (std::size_t i = 0; i < t.requestSpans.size(); ++i) {
            const obs::TelemetryRequestSpan &e = t.requestSpans[i];
            os << (i ? ", " : "") << "[" << e.core << ", " << e.seq
               << ", " << e.arrival << ", " << e.start << ", "
               << e.finish << "]";
        }
        os << "]}";
    }
    os << "}";
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// RunStats / sweep serialization
// ---------------------------------------------------------------------

std::string
runStatsToJson(const RunStats &rs)
{
    std::ostringstream os;
    os << "{";
    os << "\"workload\": \"" << jsonEscape(rs.workload) << "\"";
    os << ", \"variant\": \"" << variantToken(rs.variant) << "\"";
    os << ", \"threads\": " << rs.threads;
    os << ", \"cycles\": " << rs.cycles;
    os << ", \"totalCycles\": " << rs.totalCycles;
    os << ", \"committedInsts\": " << rs.committedInsts;
    os << ", \"committedStores\": " << rs.committedStores;
    os << ", \"ipc\": " << formatDouble(rs.ipc);
    os << ", \"avgRegionStores\": " << formatDouble(rs.avgRegionStores);
    os << ", \"avgRegionOthers\": " << formatDouble(rs.avgRegionOthers);
    os << ", \"regionCount\": " << rs.regionCount;
    os << ", \"boundaryStallCycles\": " << rs.boundaryStallCycles;
    os << ", \"renameStallNoRegCycles\": " << rs.renameStallNoRegCycles;
    // Derived ratios, re-emitted for plotting convenience; the reader
    // recomputes them from the counters above.
    os << ", \"boundaryStallRatio\": "
       << formatDouble(rs.boundaryStallRatio());
    os << ", \"renameStallRatio\": "
       << formatDouble(rs.renameStallRatio());
    os << ", \"nvmWrites\": " << rs.nvmWrites;
    os << ", \"nvmReads\": " << rs.nvmReads;
    os << ", \"nvmBytesWritten\": " << rs.nvmBytesWritten;
    os << ", \"wpqStallCycles\": " << rs.wpqStallCycles;
    os << ", \"l2MissRatio\": " << formatDouble(rs.l2MissRatio);
    os << ", \"coalescedStores\": " << rs.coalescedStores;
    os << ", \"persistOps\": " << rs.persistOps;
    os << ", \"freeIntHist\": " << histToJson(rs.freeIntHist);
    os << ", \"freeFpHist\": " << histToJson(rs.freeFpHist);
    os << ", \"auditEvents\": " << rs.auditEvents;
    os << ", \"auditViolations\": " << rs.auditViolations;
    os << ", \"powerFailures\": " << rs.powerFailures;
    os << ", \"replayAudits\": " << rs.replayAudits;
    os << ", \"replayMismatches\": " << rs.replayMismatches;
    os << ", \"replayAddrsChecked\": " << rs.replayAddrsChecked;
    os << ", \"auditMessages\": [";
    for (std::size_t i = 0; i < rs.auditMessages.size(); ++i) {
        os << (i ? ", " : "") << "\"" << jsonEscape(rs.auditMessages[i])
           << "\"";
    }
    os << "]";
    // Trace provenance: emitted only for trace-driven runs, so
    // generator-driven results are unchanged (schema stays additive).
    if (!rs.traceDir.empty()) {
        char crc[16];
        std::snprintf(crc, sizeof(crc), "%08x", rs.traceCrc);
        os << ", \"trace\": {\"dir\": \"" << jsonEscape(rs.traceDir)
           << "\", \"shards\": " << rs.traceShards
           << ", \"insts\": " << rs.traceInsts << ", \"crc32\": \"" << crc
           << "\"}";
    }
    // Time-parallel provenance: emitted only for segmented runs, so
    // classic results are unchanged (schema stays additive).
    if (rs.tpSegments) {
        os << ", \"tp\": {\"segments\": " << rs.tpSegments
           << ", \"simulatedSegments\": " << rs.tpSimulatedSegments
           << ", \"warmupInsts\": " << rs.tpWarmupInsts
           << ", \"sampleStride\": " << rs.tpSampleStride
           << ", \"warmupCycles\": " << rs.tpWarmupCycles
           << ", \"cpiRelStderr\": "
           << formatDouble(rs.tpCpiRelStderr) << "}";
    }
    // Telemetry: emitted only for telemetry-enabled runs, so classic
    // results are unchanged (schema stays additive).
    if (rs.telemetry.enabled)
        os << ", \"telemetry\": " << telemetryToJson(rs.telemetry);
    os << "}";
    return os.str();
}

std::string
knobsToJson(const ExperimentKnobs &k)
{
    std::ostringstream os;
    os << "{";
    os << "\"threads\": " << k.threads;
    os << ", \"wpqEntries\": " << k.wpqEntries;
    os << ", \"intPrf\": " << k.intPrf;
    os << ", \"fpPrf\": " << k.fpPrf;
    os << ", \"csqEntries\": " << k.csqEntries;
    os << ", \"nvmWriteGbps\": " << formatDouble(k.nvmWriteGbps);
    os << ", \"l3Cache\": " << (k.l3Cache ? "true" : "false");
    os << ", \"wbCoalesceWindow\": " << k.wbCoalesceWindow;
    os << ", \"instsPerCore\": " << k.instsPerCore;
    os << ", \"seed\": " << k.seed;
    os << ", \"warmupFraction\": " << formatDouble(k.warmupFraction);
    os << ", \"audit\": " << (k.audit ? "true" : "false");
    os << ", \"failAtCycles\": [";
    for (std::size_t i = 0; i < k.failAtCycles.size(); ++i)
        os << (i ? ", " : "") << k.failAtCycles[i];
    os << "]";
    if (!k.traceDir.empty())
        os << ", \"traceDir\": \"" << jsonEscape(k.traceDir) << "\"";
    // Time-parallel knobs: emitted only when segmentation is active,
    // keeping classic job documents byte-stable.
    if (k.timeParallel >= 2) {
        os << ", \"timeParallel\": " << k.timeParallel;
        os << ", \"tpWarmupInsts\": " << k.tpWarmupInsts;
        os << ", \"tpSampleStride\": " << k.tpSampleStride;
        os << ", \"tpFailAt\": [";
        for (std::size_t i = 0; i < k.tpFailAt.size(); ++i) {
            os << (i ? ", " : "") << "{\"segment\": "
               << k.tpFailAt[i].segment << ", \"cycle\": "
               << k.tpFailAt[i].cycle << "}";
        }
        os << "]";
    }
    // Telemetry knobs: emitted only when telemetry is on, keeping
    // classic job documents byte-stable.
    if (k.telemetry) {
        os << ", \"telemetry\": true";
        os << ", \"telemetrySampleCycles\": " << k.telemetrySampleCycles;
        os << ", \"telemetrySeriesCap\": " << k.telemetrySeriesCap;
    }
    os << "}";
    return os.str();
}

std::string
sweepToJson(const std::string &sweepName,
            const std::vector<JobResult> &results,
            const std::vector<std::pair<std::string, double>> &extra)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schemaVersion\": " << schemaVersion << ",\n";
    os << "  \"sweep\": \"" << jsonEscape(sweepName) << "\",\n";
    os << "  \"jobs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"workload\": \"" << jsonEscape(r.job.profile.name)
           << "\", \"suite\": \"" << suiteName(r.job.profile.suite)
           << "\", \"variant\": \"" << variantToken(r.job.variant)
           << "\", \"knobs\": " << knobsToJson(r.job.knobs)
           << ", \"wallSeconds\": " << formatDouble(r.wallSeconds)
           << ", \"stats\": " << runStatsToJson(r.stats) << "}";
    }
    os << (results.empty() ? "]" : "\n  ]");
    if (!extra.empty()) {
        os << ",\n  \"extra\": {";
        for (std::size_t i = 0; i < extra.size(); ++i) {
            os << (i ? ", " : "") << "\"" << jsonEscape(extra[i].first)
               << "\": " << formatDouble(extra[i].second);
        }
        os << "}";
    }
    os << "\n}\n";
    return os.str();
}

std::string
sweepToCsv(const std::vector<JobResult> &results)
{
    std::ostringstream os;
    os << "workload,suite,variant,threads,wpqEntries,intPrf,fpPrf,"
          "csqEntries,nvmWriteGbps,l3Cache,wbCoalesceWindow,"
          "instsPerCore,seed,warmupFraction,cycles,totalCycles,"
          "committedInsts,committedStores,ipc,avgRegionStores,"
          "avgRegionOthers,regionCount,boundaryStallCycles,"
          "renameStallNoRegCycles,boundaryStallRatio,renameStallRatio,"
          "nvmWrites,nvmReads,nvmBytesWritten,wpqStallCycles,"
          "l2MissRatio,coalescedStores,persistOps,freeIntP25,"
          "freeIntMean,freeFpP25,freeFpMean,wallSeconds,"
          "auditEvents,auditViolations,powerFailures,replayAudits,"
          "replayMismatches\n";
    for (const JobResult &r : results) {
        const RunStats &rs = r.stats;
        const ExperimentKnobs &k = r.job.knobs;
        os << rs.workload << ',' << suiteName(r.job.profile.suite)
           << ',' << variantToken(r.job.variant) << ',' << rs.threads
           << ',' << k.wpqEntries << ',' << k.intPrf << ',' << k.fpPrf
           << ',' << k.csqEntries << ','
           << formatDouble(k.nvmWriteGbps) << ','
           << (k.l3Cache ? 1 : 0) << ',' << k.wbCoalesceWindow << ','
           << k.instsPerCore << ',' << k.seed << ','
           << formatDouble(k.warmupFraction) << ',' << rs.cycles << ','
           << rs.totalCycles << ',' << rs.committedInsts << ','
           << rs.committedStores << ',' << formatDouble(rs.ipc) << ','
           << formatDouble(rs.avgRegionStores) << ','
           << formatDouble(rs.avgRegionOthers) << ',' << rs.regionCount
           << ',' << rs.boundaryStallCycles << ','
           << rs.renameStallNoRegCycles << ','
           << formatDouble(rs.boundaryStallRatio()) << ','
           << formatDouble(rs.renameStallRatio()) << ','
           << rs.nvmWrites << ',' << rs.nvmReads << ','
           << rs.nvmBytesWritten << ',' << rs.wpqStallCycles << ','
           << formatDouble(rs.l2MissRatio) << ','
           << rs.coalescedStores << ',' << rs.persistOps << ','
           << rs.freeIntHist.percentile(0.25) << ','
           << formatDouble(rs.freeIntHist.mean()) << ','
           << rs.freeFpHist.percentile(0.25) << ','
           << formatDouble(rs.freeFpHist.mean()) << ','
           << formatDouble(r.wallSeconds) << ','
           << rs.auditEvents << ',' << rs.auditViolations << ','
           << rs.powerFailures << ',' << rs.replayAudits << ','
           << rs.replayMismatches << '\n';
    }
    return os.str();
}

// ---------------------------------------------------------------------
// File output
// ---------------------------------------------------------------------

bool
writeFile(const std::string &path, const std::string &contents)
{
    std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("cannot open '", path, "' for writing");
        return false;
    }
    out << contents;
    out.flush();
    if (!out) {
        warn("short write to '", path, "'");
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        warn("cannot open '", path, "' for reading");
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) {
        warn("read error on '", path, "'");
        return false;
    }
    out = ss.str();
    return true;
}

std::string
resultsDir()
{
    // Read once at startup, before any worker threads exist.
    if (const char *env = std::getenv("PPA_RESULTS_DIR")) // NOLINT(concurrency-mt-unsafe)
        return env;
    return "results";
}

} // namespace metrics
} // namespace ppa

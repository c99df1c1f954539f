/**
 * @file
 * Structured export of experiment results.
 *
 * Serializes RunStats — including the free-register histograms — to a
 * versioned JSON schema (documented field by field in
 * docs/METRICS.md) and to flat CSV, so figure regeneration, plotting
 * scripts, and regression tooling can consume sweep output instead of
 * scraping stdout tables. The documents are write-only here: the
 * golden documents under tests/sim/golden/ pin them byte for byte.
 */

#ifndef PPA_SIM_REPORT_HH
#define PPA_SIM_REPORT_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/driver.hh"
#include "sim/experiment.hh"

namespace ppa
{
namespace metrics
{

/**
 * Version of the serialized document layout. Bump on any
 * field rename/removal or meaning change; additions of new fields are
 * backward compatible and do not require a bump. History in
 * docs/METRICS.md.
 */
constexpr int schemaVersion = 2;

/** Escape @p s for embedding in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/** Shortest representation of @p v that parses back bitwise-equal
 *  (std::to_chars round-trip form). */
std::string formatDouble(double v);

/** Serialize a harvested telemetry result as the additive
 *  `stats.telemetry` JSON object (shared by run and serve reports). */
std::string telemetryToJson(const obs::TelemetryResult &t);

// ---------------------------------------------------------------------
// RunStats / sweep serialization.
// ---------------------------------------------------------------------

/** Serialize one RunStats (stats only, no knobs) as a JSON object. */
std::string runStatsToJson(const RunStats &stats);

/** Serialize the knobs of one job as a JSON object. */
std::string knobsToJson(const ExperimentKnobs &knobs);

/**
 * Full sweep document: schema version, sweep name, job array (spec +
 * stats + timing), and optional figure-specific scalars under
 * "extra" (used by the analytical-model tables that run no
 * simulations).
 */
std::string sweepToJson(
    const std::string &sweepName, const std::vector<JobResult> &results,
    const std::vector<std::pair<std::string, double>> &extra = {});

/**
 * Flat CSV of the same results: one row per job, scalar fields plus
 * histogram summary columns (bin-level data is JSON-only).
 */
std::string sweepToCsv(const std::vector<JobResult> &results);

// ---------------------------------------------------------------------
// File output.
// ---------------------------------------------------------------------

/** Write @p contents to @p path, creating parent directories.
 *  Returns false (with a warn()) on I/O failure. */
bool writeFile(const std::string &path, const std::string &contents);

/** Read @p path into @p out. Returns false (with a warn()) when the
 *  file is missing or unreadable. */
bool readFile(const std::string &path, std::string &out);

/** Directory sweep output lands in: $PPA_RESULTS_DIR or "results". */
std::string resultsDir();

} // namespace metrics
} // namespace ppa

#endif // PPA_SIM_REPORT_HH

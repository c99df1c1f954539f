/**
 * @file
 * The paper's figures and tables: each one's sweep grid and the table
 * it prints.
 *
 * Each evaluation figure is a grid of (workload, variant, knobs)
 * jobs plus a report step that turns the grid's finished runs into
 * the figure's rows. Both steps live here, next to each other, so
 * `ppa_cli sweep <figure>` is the one path that reproduces a figure:
 * it runs the grid through the ExperimentDriver, prints the table and
 * writes the schema-versioned JSON document (docs/METRICS.md).
 */

#ifndef PPA_SIM_FIGURES_HH
#define PPA_SIM_FIGURES_HH

#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "sim/driver.hh"

namespace ppa
{

/** A figure's full sweep grid plus its provenance. */
struct FigureSweep
{
    std::string name;        ///< e.g. "fig08"
    std::string description; ///< what the figure shows
    ExperimentKnobs base;    ///< knobs every grid point starts from
    std::vector<SweepJob> jobs;
};

/** What one figure prints: the paper table it reproduces. */
struct FigureTable
{
    std::string title;     ///< printed as "=== title ==="
    std::string reference; ///< paper-reference line; empty for none
    TextTable table;
    std::string notes;     ///< free text printed after the table
    /** Figure-specific scalars for the JSON document's "extra"
     *  object (the analytical-model tables). */
    std::vector<std::pair<std::string, double>> extras;

    /** The printed block, from the "===" title line to the notes. */
    std::string render() const;
};

/** Names of all registered figure sweeps, in paper order. */
std::vector<std::string> figureNames();

/** True when @p name is a registered figure sweep. */
bool figureExists(const std::string &name);

/**
 * Build the sweep grid for @p name (fatal on unknown names; check
 * with figureExists() first for friendly handling).
 *
 * @param instsPerCore committed-instruction budget per core; 0 keeps
 *        each figure's default.
 * @param seed root workload seed for every job.
 */
FigureSweep figureSweep(const std::string &name,
                        std::uint64_t instsPerCore = 0,
                        std::uint64_t seed = 42);

/**
 * Build @p fs's table from its finished runs. @p results are the
 * runs of `fs.jobs` in job order, as ExperimentDriver::run returns
 * them; run-level flags such as audit or telemetry may differ from
 * the grid's knobs. The report looks up each point it reads by
 * (profile, variant, knobs) in `fs.jobs`; a point outside the grid,
 * or results that do not match it, are fatal.
 */
FigureTable figureTable(const FigureSweep &fs,
                        const std::vector<JobResult> &results);

/** The representative cross-suite app subset used by sweep figures
 *  (full-41 sweeps would multiply runtimes by the sweep depth). */
const std::vector<std::string> &sweepAppNames();

/**
 * The host-throughput benchmark grid: the representative app subset
 * crossed with the persistence variants (ppa, capri, replaycache).
 * `ppa_cli bench` drives these points, and the checked-in baseline
 * gates them.
 *
 * @param instsPerCore committed-instruction budget per core; 0 uses
 *        the throughput default (larger than the figure default so
 *        per-job wall time dominates per-job setup).
 */
FigureSweep throughputSweep(std::uint64_t instsPerCore = 0,
                            std::uint64_t seed = 42);

} // namespace ppa

#endif // PPA_SIM_FIGURES_HH

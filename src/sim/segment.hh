/**
 * @file
 * Time-parallel simulation of one long run (docs/PERF.md).
 *
 * A segmented run splits one workload's committed-instruction range
 * into K contiguous segments and simulates them concurrently, each in
 * its own System. Segments use drain-boundary semantics: every
 * segment starts from a cold machine, fast-forwards its stream to a
 * warmup prefix (whose stats are discarded while caches, WPQ, CSQ and
 * PRF occupancy re-converge), then measures its own instruction
 * window. The per-segment measured windows are stitched into one
 * whole-run RunStats.
 *
 * Determinism contract: the stitched RunStats is a pure function of
 * (profile, variant, knobs). Segments share nothing mutable — each
 * owns its System and its sources — so the host worker count and
 * scheduling order never change the result; a parallel segmented run
 * is bitwise-identical to the same segmented plan executed serially
 * (tests/sim/test_time_parallel.cc, mirroring the SchedEquiv oracle
 * style). Against the *unsegmented* serial run the segmented result
 * carries a warmup-truncation error that shrinks as tpWarmupInsts
 * grows; `ppa_cli --time-parallel K --error-bound` quantifies it.
 *
 * Sampled mode (tpSampleStride > 1) simulates only every Nth segment
 * and extrapolates whole-run counters from the simulated subset,
 * SimPoint-style, reporting a confidence estimate
 * (RunStats::tpCpiRelStderr).
 */

#ifndef PPA_SIM_SEGMENT_HH
#define PPA_SIM_SEGMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/source.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

namespace ppa
{

/**
 * Bounded view of an instruction source: forwards @p inner until the
 * instruction index reaches @p end. The segment runner binds one per
 * core so a segment stops fetching exactly at its join, while
 * power-failure recovery seeks (which go backward) still reach the
 * underlying source.
 */
class WindowedSource : public DynInstSource
{
  public:
    WindowedSource(DynInstSource &inner_source, std::uint64_t end_index)
        : inner(inner_source), endIndex(end_index)
    {}

    bool
    next(DynInst &out) override
    {
        if (done)
            return false;
        if (!inner.next(out) || out.index >= endIndex) {
            done = true;
            return false;
        }
        return true;
    }

    void
    seekTo(std::uint64_t index) override
    {
        done = index >= endIndex;
        inner.seekTo(index);
    }

  private:
    DynInstSource &inner;
    const std::uint64_t endIndex;
    bool done = false;
};

/**
 * The deterministic segmentation of one run, derived from the knobs
 * alone (planSegments). Instruction indices are per core: segment s
 * measures [begin, end) on every core and re-simulates
 * [warmupBegin, begin) as discarded warmup.
 */
struct SegmentPlan
{
    struct Segment
    {
        std::uint64_t warmupBegin = 0; ///< First simulated index
        std::uint64_t begin = 0;       ///< First measured index
        std::uint64_t end = 0;         ///< One past last measured index
        bool simulated = true;         ///< False = skipped by sampling
        /** Failure-injection cycles, relative to the segment's
         *  measured window (0 = exactly at the join), sorted. */
        std::vector<Cycle> failAt;
    };

    std::vector<Segment> segments;
    std::uint64_t warmupInsts = 0; ///< Requested per-segment warmup
    unsigned sampleStride = 1;     ///< 1 = exact mode

    unsigned
    simulatedCount() const
    {
        unsigned n = 0;
        for (const Segment &s : segments)
            n += s.simulated ? 1 : 0;
        return n;
    }
};

/**
 * Build the segment plan for @p knobs: timeParallel segments (clamped
 * to the per-core instruction count), warmup prefixes clamped at the
 * stream start, sampling stride applied (segment 0 always simulates),
 * and tpFailAt entries attached to their segments. Fatal when a
 * tpFailAt entry names an out-of-range or sampled-out segment.
 */
SegmentPlan planSegments(const ExperimentKnobs &knobs);

/**
 * Segmented (time-parallel) counterpart of runWorkload(); called by
 * it when knobs.timeParallel >= 2. ReplayCache is unsupported (its stream transform re-indexes
 * instructions, breaking segment alignment) and fatal.
 */
RunStats runWorkloadTimeParallel(const WorkloadProfile &profile,
                                 SystemVariant variant,
                                 const ExperimentKnobs &knobs);

/** One named scalar's serial-vs-segmented comparison (error-bound
 *  reporting; see `ppa_cli --error-bound`). */
struct StatDelta
{
    std::string name;
    double serial = 0.0;
    double segmented = 0.0;

    /** Relative delta vs the serial reference (0 when both zero). */
    double
    relative() const
    {
        if (serial == 0.0)
            return segmented == 0.0 ? 0.0 : 1.0;
        return (segmented - serial) / serial;
    }
};

/**
 * Field-by-field comparison of a segmented run against its
 * unsegmented serial reference: the warmup-truncation error bound of
 * the time-parallel accuracy contract (docs/PERF.md).
 */
std::vector<StatDelta> statDeltas(const RunStats &serial,
                                  const RunStats &segmented);

} // namespace ppa

#endif // PPA_SIM_SEGMENT_HH

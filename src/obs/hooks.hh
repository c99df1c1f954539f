/**
 * @file
 * Narrow telemetry hook for the in-run observability layer.
 *
 * Mirrors src/check/observer.hh: the interface lives here, below every
 * model library, so core headers can include it without depending on
 * the telemetry implementation (src/obs/telemetry.*, library ppa_obs).
 * The hook is null by default and nothing in simulated behaviour may
 * depend on it being attached — with telemetry off the only cost in
 * the hot loop is one null-pointer test per callback site.
 *
 * Unlike the audit observer (one callback per pipeline event), this
 * hook is cycle-oriented: the core reports one end-of-cycle callback
 * plus at most one structural-stall attribution per cycle, which is
 * what the stall-accounting contract (docs/TELEMETRY.md) requires.
 */

#ifndef PPA_OBS_HOOKS_HH
#define PPA_OBS_HOOKS_HH

#include <cstdint>

#include "common/types.hh"
#include "ppa/region_stats.hh"

namespace ppa
{
namespace obs
{

/**
 * Structural reasons a core cycle can stall on. At most one fires per
 * cycle per core (Core asserts this): commit-side persist backpressure
 * is attributed first, and the rename-side ROB-full symptom is only
 * reported when no commit-side cause claimed the cycle.
 */
enum class StallReason : std::uint8_t
{
    /** Rename blocked: ROB at capacity (and commit is not draining a
     *  region — otherwise the drain cause owns the cycle). */
    RobFull,
    /** Commit blocked draining an implicit region boundary forced by
     *  a full committed store queue (Section 4.2). */
    CsqFull,
    /** Commit blocked on the persist path with the write buffer or an
     *  NVM write pending queue at capacity (structural backpressure). */
    WpqFull,
    /** Commit blocked waiting for persist acknowledgments while the
     *  WB/WPQ have room: the drain is paced by NVM write bandwidth. */
    NvmBandwidth,
};

/** Telemetry hook attached to one Core (see obs::Telemetry). */
class TelemetryHook
{
  public:
    virtual ~TelemetryHook() = default;

    /**
     * End of Core::tick for cycle @p cycle. @p committed is the number
     * of instructions retired this cycle; the hook classifies the
     * cycle and advances the sampling clock here.
     */
    virtual void onCycleEnd(Cycle cycle, unsigned committed) = 0;

    /**
     * The cycles [@p from, @p to) were skipped: each repeated the
     * last onCycleEnd cycle exactly, stall attribution included, and
     * no state the hook samples changed in them.
     */
    virtual void onIdle(Cycle from, Cycle to) = 0;

    /**
     * A structural stall fired this cycle. Core guarantees (and
     * PPA_ASSERTs) at most one call per cycle.
     */
    virtual void onStructuralStall(StallReason reason) = 0;

    /** A region boundary completed at @p cycle with cause @p cause. */
    virtual void onRegionBoundaryComplete(Cycle cycle,
                                          RegionEndCause cause) = 0;

    /** Power failure captured at @p cycle. */
    virtual void onPowerFail(Cycle cycle) = 0;

    /** Recovery finished at @p cycle. */
    virtual void onRecover(Cycle cycle) = 0;
};

} // namespace obs
} // namespace ppa

#endif // PPA_OBS_HOOKS_HH

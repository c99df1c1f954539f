/**
 * @file
 * The one interface through which instrumentation watches a core.
 *
 * A Core owns one list of EventSinks (Core::attach) and hands every
 * event to each of them in attach order: commit-pipeline events, the
 * CSQ and MaskReg updates it makes, region boundaries, power failure
 * and recovery, and the cycle-oriented telemetry events. The core's
 * write buffer, bound to the same list when the core is built, is the
 * only emitter outside Core. The invariant auditor (check::Auditor),
 * telemetry (obs::Telemetry), serve's ack tracker and the litmus
 * explorer's crash-bias recorder are all sinks.
 *
 * All callbacks are no-ops by default, and nothing in simulated
 * behaviour may depend on a sink being attached. The interface lives
 * here, below every model library, so core and mem headers can
 * include it without depending on any sink's implementation.
 */

#ifndef PPA_OBS_EVENT_SINK_HH
#define PPA_OBS_EVENT_SINK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "ppa/region_stats.hh"

namespace ppa
{

struct CsqEntry;
struct CheckpointImage;

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

/** Receives the events of one Core and its write buffer. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    // ---- cycles ---------------------------------------------------------
    /** Start of Core::tick for cycle @p cycle; after an idle skip to H,
     *  onCycle(H - 1) follows onIdle. */
    virtual void onCycle(Cycle /*cycle*/) {}

    /** End of Core::tick for @p cycle, which retired @p committed
     *  instructions. Sent only while a sink classifies cycles. */
    virtual void onCycleEnd(Cycle /*cycle*/, unsigned /*committed*/) {}

    /**
     * The cycles [@p from, @p to) were skipped: each repeated the last
     * onCycleEnd cycle exactly, stall attribution included, and no
     * machine state changed in them.
     */
    virtual void onIdle(Cycle /*from*/, Cycle /*to*/) {}

    /**
     * Whether this sink classifies every cycle from onCycleEnd and
     * onStructuralStall. Core reads it at attach. Unless an attached
     * sink classifies cycles, Core sends neither callback and keeps
     * stall attribution off, with the idle-skip bound at NVM write
     * completions that attribution needs: the per-cycle path stays as
     * cheap as with no sink.
     */
    virtual bool classifiesCycles() const { return false; }

    /** A structural stall fired this cycle; at most one per cycle.
     *  Sent only while a sink classifies cycles. */
    virtual void onStructuralStall(StallReason /*reason*/) {}

    // ---- commit pipeline ------------------------------------------------
    /** An instruction retired (after all bookkeeping succeeded). */
    virtual void onCommit(std::uint64_t /*stream_index*/,
                          bool /*is_store*/)
    {}

    /**
     * A store retired. Fired *before* the store's CSQ/MaskReg
     * bookkeeping so the auditor can pair the structure events that
     * follow with this store.
     *
     * @param global_data_reg global PRF index of the data operand, or
     *        csqZeroRegIndex when the value is architecturally zero or
     *        carried inline
     * @param carries_value  Section 6 variant: the CSQ records the
     *        value, not a register index
     * @param to_io_buffer   the store targets the battery-backed I/O
     *        window and bypasses CSQ/NVM entirely
     */
    virtual void onStoreCommit(Addr /*addr*/, Word /*value*/,
                               unsigned /*global_data_reg*/,
                               bool /*carries_value*/,
                               bool /*to_io_buffer*/)
    {}

    /** An atomic RMW performed its synchronous persistent write. */
    virtual void onAtomicCommit(Addr /*addr*/, Word /*value*/) {}

    /** A physical register returned to the free list. */
    virtual void onRegFree(unsigned /*global_reg*/) {}

    /** A physical register was written back (newly produced value). */
    virtual void onRegWrite(unsigned /*global_reg*/) {}

    // ---- persistence structures -------------------------------------
    /** @p entry was appended to the CSQ (in commit order). */
    virtual void onCsqPush(const CsqEntry & /*entry*/) {}

    /** The CSQ is about to drop all @p entries entries (boundary). */
    virtual void onCsqClear(std::size_t /*entries*/) {}

    /** MaskReg bit @p global_reg was set (committed-store operand). */
    virtual void onMaskSet(unsigned /*global_reg*/) {}

    /** MaskReg is about to clear all @p masked set bits (boundary). */
    virtual void onMaskClearAll(std::size_t /*masked*/) {}

    /**
     * A committed store's persist operation entered the write buffer.
     * @param coalesced merged into an existing same-line entry
     */
    virtual void onPersistEnqueue(Addr /*addr*/, Word /*value*/,
                                  bool /*coalesced*/)
    {}

    /**
     * A write-buffer entry carrying @p store_count stores entered the
     * NVM WPQ and is now inside the persistence domain (its words were
     * applied to the NVM image).
     */
    virtual void onPersistIssue(Addr /*line_addr*/,
                                unsigned /*store_count*/)
    {}

    // ---- region boundaries and power ------------------------------------
    /**
     * A region boundary ends at @p cycle with cause @p cause: the
     * persist barrier's conditions are met, but deferred frees and the
     * MaskReg / CSQ clears have not happened yet. The auditor runs its
     * end-of-region checks here, against the still-intact structures.
     */
    virtual void onRegionBoundaryStart(Cycle /*cycle*/,
                                       RegionEndCause /*cause*/)
    {}

    /** The region boundary finished (structures cleared). */
    virtual void onRegionBoundaryComplete() {}

    /** A power failure at @p cycle captured @p image (before volatile
     *  state drops). */
    virtual void onPowerFail(Cycle /*cycle*/,
                             const CheckpointImage & /*image*/)
    {}

    /** Recovery from @p image finished at @p cycle (RAT/CRT/CSQ/PRF
     *  restored). */
    virtual void onRecover(Cycle /*cycle*/,
                           const CheckpointImage & /*image*/)
    {}
};

/** The sinks attached to one core, in attach order. */
using EventSinks = std::vector<EventSink *>;

} // namespace obs
} // namespace ppa

#endif // PPA_OBS_EVENT_SINK_HH

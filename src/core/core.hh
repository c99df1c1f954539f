/**
 * @file
 * The out-of-order core model with PPA support.
 *
 * A 4-wide superscalar pipeline driven by the committed-path
 * instruction stream: fetch -> rename/dispatch -> issue -> execute ->
 * writeback -> commit, with a unified physical register file, ROB,
 * issue queue, and load/store queues sized per Table 2.
 *
 * In PersistMode::Ppa the core additionally implements the paper's
 * mechanisms:
 *  - store integrity: committed stores mask their data physical
 *    register in MaskReg; reclamation of masked registers is deferred
 *    to the region boundary (Sections 3.3, 4.1, 4.2);
 *  - dynamic region formation: a persist barrier is injected when
 *    renaming stalls on an empty free list, when the CSQ fills, or at
 *    a synchronization primitive (Sections 4.2, 6);
 *  - asynchronous region persistence: committed stores flow through
 *    the L1D write buffer to NVM in the background; the barrier
 *    retires only when the persist counter reaches zero (Section 4.3);
 *  - JIT checkpoint & recovery: on power failure the five structures
 *    (CSQ, LCPC, CRT, MaskReg, marked PRF registers) are saved, and
 *    recovery replays the CSQ then resumes after LCPC (Sections 4.5,
 *    4.6).
 *
 * Host-throughput engineering (see docs/PERF.md): all pipeline queues
 * are fixed-capacity rings sized by Table 2, wakeup uses flat
 * per-physical-register intrusive waiter lists, completion events live
 * in a calendar wheel indexed by cycle, and store-to-load forwarding
 * is resolved through a word-address filter instead of a full SQ scan.
 * The steady-state tick() path performs no heap allocation. None of
 * this changes simulated behaviour: the scheduler-equivalence oracle
 * (tests/core/sched_equiv_golden.txt) pins RunStats bitwise.
 */

#ifndef PPA_CORE_CORE_HH
#define PPA_CORE_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/ring_buffer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/branch_predictor.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "isa/dyninst.hh"
#include "isa/source.hh"
#include "mem/hierarchy.hh"
#include "obs/event_sink.hh"
#include "ppa/checkpoint.hh"
#include "ppa/csq.hh"
#include "ppa/mask_reg.hh"
#include "ppa/region_stats.hh"

namespace ppa
{

class CapriChannel;

/**
 * One simulated out-of-order core.
 */
class Core
{
  public:
    /**
     * @param params core configuration
     * @param core_id index of this core within the system
     * @param mem    the shared memory hierarchy
     */
    Core(const CoreParams &params, unsigned core_id, MemHierarchy &mem);

    ~Core();

    /** Attach the committed-path instruction source. */
    void bindSource(DynInstSource *source);

    /** Attach a Capri redo-buffer channel (PersistMode::Capri). */
    void bindCapriChannel(CapriChannel *channel);

    /** Advance one clock cycle. */
    void tick();

    /** True when the stream is exhausted and the pipeline is empty. */
    bool done() const;

    /** Current cycle. */
    Cycle cycle() const { return curCycle; }

    /** Committed instruction count. */
    std::uint64_t committedInsts() const { return commitCount; }

    /** Committed store count. */
    std::uint64_t committedStores() const { return storeCommitCount; }

    /**
     * The JIT checkpoint of the five PPA structures as power failing
     * now would save it. Only meaningful in Ppa mode; in other modes
     * the image is invalid (unrecoverable, which is the point of the
     * comparison).
     */
    CheckpointImage checkpoint() const;

    /**
     * Power failure: save checkpoint(), notify the sinks and drop
     * all volatile pipeline state.
     */
    CheckpointImage powerFail();

    /**
     * Power restore: rebuild the pipeline from @p image — restore
     * CRT/MaskReg/CSQ/marked registers, replay the CSQ stores into
     * NVM, repopulate the RAT from the CRT, and resume fetching after
     * LCPC (Section 4.6).
     */
    void recover(const CheckpointImage &image);

    /**
     * The NVM writes recover() replays, front to rear, as @p
     * write(addr, value): the CSQ over the registers it references.
     * The checkpoint saves both verbatim and recovery restores them
     * before replaying, so this reads them in place, before a power
     * failure as well as after recovery.
     */
    template <class Write>
    void
    forEachReplayWrite(Write &&write) const
    {
        ppa::forEachReplayWrite(
            csq.contents(),
            [this](unsigned g) {
                return prf(regIndexer.classOf(g))
                    .value(regIndexer.indexOf(g));
            },
            write);
    }

    /**
     * Architectural register state reconstructed through the CRT, for
     * verification against the golden model.
     */
    ArchState architecturalState() const;

    // ---- statistics accessors ---------------------------------------
    const RegionStats &regionStats() const { return regions; }
    const BranchPredictor &branchPredictor() const { return bpred; }
    const stats::Histogram &freeIntRegHistogram() const
    {
        return freeIntHist;
    }
    const stats::Histogram &freeFpRegHistogram() const
    {
        return freeFpHist;
    }
    std::uint64_t renameStallNoRegCycles() const
    {
        return statRenameStallNoReg.value();
    }
    std::uint64_t lastCommittedIndex() const { return lcpc; }
    bool anyCommitted() const { return lcpcValid; }

    const CoreParams &params() const { return cfg; }

    /** Index of this core within the system. */
    unsigned id() const { return coreId; }

    // ---- idle-cycle skipping (System) ---------------------------------
    /**
     * Grows with every change of pipeline state; unchanged across a
     * tick() that changed nothing, which every later tick then repeats
     * until a time-gated condition flips. Renames and commits count
     * through the ROB sequence numbers they advance, so the per-
     * instruction paths bump nothing.
     */
    std::uint64_t
    activityCount() const
    {
        return activity + nextRobSeq + robSeqBase;
    }

    /**
     * The first cycle, at or after cycle() and at most @p bound, at
     * which a repeat of a tick that changed nothing could change
     * something: a fetch resume, an execution completion, a store
     * merge or clwb ack, and, after a drain stall attributed for a
     * sink that classifies cycles, an NVM write completion. Only
     * valid right after such a tick.
     */
    Cycle nextEventCycle(Cycle bound) const;

    /**
     * Book the cycles [cycle(), @p until) as repeats of the last
     * tick, which changed nothing: its per-cycle statistics times the
     * span, then onIdle() and onCycle(@p until - 1) to every sink.
     */
    void skipIdle(Cycle until);

    // ---- instrumentation (read-only event sinks) ----------------------
    /**
     * Add @p sink to this core's sink list: it receives every core,
     * CSQ, MaskReg and write-buffer event from now on, after the sinks
     * attached before it, and must outlive the core's ticking. Stall
     * attribution turns on for good once a sink that classifies
     * cycles is attached.
     */
    void attach(obs::EventSink *sink);

    /** Read-only views for audit cross-checks. */
    const Csq &csqRef() const { return csq; }
    const MaskReg &maskRegRef() const { return maskReg; }

    /** Occupancy views sampled by the telemetry counter series. */
    std::size_t robOccupancy() const { return rob.size(); }
    std::size_t fetchQueueDepth() const { return fetchQueue.size(); }
    std::size_t readyQueueDepth() const { return readyQueue.size(); }
    std::size_t freeIntRegs() const { return intFreeList.size(); }
    std::size_t freeFpRegs() const { return fpFreeList.size(); }

  private:
    // ---- pipeline data structures -----------------------------------
    struct RobEntry
    {
        DynInst inst;
        /** Renamed source physical registers (invalid = value 0). */
        PhysReg srcPhys[maxSrcRegs] = {invalidPhysReg, invalidPhysReg,
                                       invalidPhysReg};
        /** Newly allocated destination phys reg (or invalid). */
        PhysReg newDst = invalidPhysReg;
        /** Previous mapping of the destination arch reg. */
        PhysReg prevDst = invalidPhysReg;
        /** Result computed at issue, written back at completion. */
        Word execResult = 0;
        bool done = false;
        bool issued = false;
        /** PPA-injected persist barrier (region boundary). */
        bool isBarrier = false;
        /** Store queue slot for stores/clwb (index), else -1. */
        int sqIndex = -1;
        /** Load queue occupancy marker. */
        bool holdsLq = false;
        /** Issue queue slot while waiting, else -1. */
        int iqIndex = -1;
    };

    struct SqEntry
    {
        bool valid = false;
        Addr addr = 0;
        /** Data phys reg (store) or invalid (clwb). */
        PhysReg dataReg = invalidPhysReg;
        RegClass dataCls = RegClass::Int;
        bool dataReady = false;
        Word dataValue = 0;
        bool committed = false;
        bool isClwb = false;
        bool isFpStore = false;
        SeqNum seq = 0;
        /** Next-older live store to the same word (forwarding chain);
         *  -1 when this store is the oldest. The link is validated by
         *  @ref prevWordSeq on traversal, so releasing the tail never
         *  needs a fix-up pass. */
        std::int32_t prevWordIdx = -1;
        SeqNum prevWordSeq = 0;
    };

    struct IqEntry
    {
        bool valid = false;
        std::uint64_t robSeq = 0;
        int remainingSrcs = 0;
    };

    /**
     * A completion event. Events retire in ascending (complete,
     * robSeq) order — the pinned canonical semantic the calendar
     * wheel implements (its buckets sort by this operator).
     */
    struct ExecEvent
    {
        Cycle complete;
        std::uint64_t robSeq;
        bool operator<(const ExecEvent &other) const
        {
            if (complete != other.complete)
                return complete < other.complete;
            return robSeq < other.robSeq;
        }
    };

    /** Intrusive node of a per-physical-register wakeup list. */
    struct WaiterNode
    {
        std::uint64_t seq = 0;
        std::int32_t next = -1;
    };

    /**
     * Word-address store-set filter for store-to-load forwarding.
     * Each hash slot counts live (valid, non-clwb) SQ entries hashing
     * to it and, while the slot is owned by a single word, heads a
     * seq-descending chain of that word's live stores threaded through
     * SqEntry::prevWordIdx. A zero count proves no forwarding
     * candidate exists; a single-owner slot answers every lookup by
     * walking the chain past the younger-than-the-load prefix (stale
     * links prove all older stores merged, because stores to one word
     * leave the SQ in program order). Only a slot that ever held two
     * distinct words simultaneously (collided) falls back to the
     * exact SQ scan — the *result* is always identical to the full
     * scan.
     */
    struct FwdSlot
    {
        Addr word = 0;
        std::uint32_t live = 0;
        std::int32_t headIdx = -1;
        SeqNum headSeq = 0;
        /** Two distinct words currently hash here; exact scans only
         *  until the slot drains. */
        bool collided = false;
    };

    // ---- pipeline stages (called in reverse order each tick) --------
    void commitStage();
    void mergeCommittedStores();
    void writebackStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    // ---- helpers -----------------------------------------------------
    RobEntry *
    robFind(std::uint64_t rob_seq)
    {
        if (rob_seq < robSeqBase)
            return nullptr;
        std::uint64_t off = rob_seq - robSeqBase;
        if (off >= rob.size())
            return nullptr;
        return &rob[off];
    }
    void wakeDependents(RegClass cls, PhysReg r);
    void pushWaiter(RegClass cls, PhysReg r, std::uint64_t seq);
    void resetWaiters();
    void pushExecEvent(Cycle complete, std::uint64_t seq);
    void scheduleExec(RobEntry &e, std::uint64_t seq, Cycle complete);
    Word readSrc(const RobEntry &e, int i) const;
    bool tryIssueMem(RobEntry &e, std::uint64_t seq);
    const SqEntry *findForwardingStore(Addr want, std::uint64_t my_seq);
    void freePhysReg(RegClass cls, PhysReg r);
    bool regionBoundaryConditionsMet();
    void completeRegionBoundary(RegionEndCause cause);
    unsigned flattenReg(RegClass cls, PhysReg r) const;
    bool commitOne(RobEntry &e);
    void retireStoreBookkeeping(RobEntry &e);
    void releaseSqSlot(int idx);
    void noteStructuralStall(obs::StallReason reason);
    /** Note a region drain's stall, attributed by drainStallReason(). */
    void noteDrainStall();
    obs::StallReason drainStallReason() const;

    static std::size_t
    fwdHash(Addr word)
    {
        // Fibonacci hash of the word number into the table's index
        // bits; the word is already 8-byte aligned.
        return static_cast<std::size_t>(
            ((word >> 3) * 0x9E3779B97F4A7C15ull) >> 55);
    }
    void fwdInsert(Addr word, int sq_idx, SeqNum seq);
    void fwdRemove(Addr word);

    PhysRegFile &prf(RegClass cls)
    {
        return cls == RegClass::Int ? intPrf : fpPrf;
    }
    const PhysRegFile &prf(RegClass cls) const
    {
        return cls == RegClass::Int ? intPrf : fpPrf;
    }
    FreeList &freeList(RegClass cls)
    {
        return cls == RegClass::Int ? intFreeList : fpFreeList;
    }
    RenameTable &rat(RegClass cls)
    {
        return cls == RegClass::Int ? intRat : fpRat;
    }
    RenameTable &crt(RegClass cls)
    {
        return cls == RegClass::Int ? intCrt : fpCrt;
    }
    const RenameTable &crt(RegClass cls) const
    {
        return cls == RegClass::Int ? intCrt : fpCrt;
    }

    // ---- configuration ----------------------------------------------
    CoreParams cfg;
    unsigned coreId;
    MemHierarchy &memory;
    DynInstSource *src = nullptr;
    CapriChannel *capri = nullptr;

    // ---- time ----------------------------------------------------------
    Cycle curCycle = 0;

    // ---- front end ----------------------------------------------------
    RingBuffer<DynInst> fetchQueue;
    Cycle fetchResumeCycle = 0;
    bool sourceExhausted = false;
    BranchPredictor bpred;
    /** Fetch stalls until the mispredicted branch (by seq) resolves. */
    bool fetchBlockedOnBranch = false;
    std::uint64_t blockingBranchSeq = 0;
    /** Sequence was assigned yet? The blocking branch may still be in
     *  the fetch queue (not renamed); resolve matching is by PC. */
    Addr blockingBranchPc = 0;
    Addr lastFetchLine = ~Addr{0};
    /** Instruction pulled from the source but not yet accepted into
     *  the fetch queue (stalled on an I-cache miss). */
    bool havePendingFetch = false;
    DynInst pendingFetch;

    // ---- rename -------------------------------------------------------
    PhysRegFile intPrf;
    PhysRegFile fpPrf;
    FreeList intFreeList;
    FreeList fpFreeList;
    RenameTable intRat;
    RenameTable fpRat;
    RenameTable intCrt;
    RenameTable fpCrt;

    // ---- window -------------------------------------------------------
    RingBuffer<RobEntry> rob;
    std::uint64_t nextRobSeq = 0;
    std::uint64_t robSeqBase = 0; // seq of rob.front()
    std::vector<IqEntry> iq;
    unsigned iqUsed = 0;
    std::vector<std::uint16_t> iqFreeSlots; // LIFO stack of free slots
    std::vector<SqEntry> sq;
    unsigned sqUsed = 0;
    std::vector<std::uint16_t> sqFreeSlots; // LIFO stack of free slots
    unsigned lqUsed = 0;

    /** Per-flattened-physical-register wakeup lists (FIFO order),
     *  threaded through a pooled node array. */
    std::vector<std::int32_t> waiterHead;
    std::vector<std::int32_t> waiterTail;
    std::vector<WaiterNode> waiterPool;
    std::int32_t waiterFreeHead = -1;

    /** Calendar wheel of completion events, indexed by cycle mod
     *  bucket count; laps are disambiguated by the stored cycle. */
    static constexpr std::size_t eventWheelBuckets = 1024;
    std::vector<std::vector<ExecEvent>> eventWheel;
    std::vector<ExecEvent> eventDrain; // per-cycle scratch
    std::size_t eventCount = 0;

    RingBuffer<std::uint64_t> readyQueue;

    // ---- store-to-load forwarding filter -------------------------------
    static constexpr std::size_t fwdTableSlots = 512;
    std::vector<FwdSlot> fwdTable;

    // ---- functional units ----------------------------------------------
    struct FuState
    {
        unsigned count = 1;
        unsigned usedThisCycle = 0;
        Cycle busyUntil = 0; // for unpipelined units
    };
    static constexpr unsigned numFus = 8;
    FuState fus[numFus];
    FuState &fuFor(FuType t);
    void resetFuCycle();

    // ---- post-commit store merging --------------------------------------
    RingBuffer<int> committedStoreFifo; // SQ indices awaiting merge
    std::vector<Cycle> mergeInFlight;   // sorted completions (MLP cap)
    /** Uncommitted atomic RMWs: (word address, rob seq); younger
     *  loads to the same word must not issue past them. */
    std::vector<std::pair<Addr, std::uint64_t>> pendingAtomics;
    std::uint64_t outstandingClwbs = 0;
    std::vector<Cycle> clwbAcks;

    // ---- instrumentation -------------------------------------------------
    /** Attached sinks; the write buffer holds a pointer to this list. */
    obs::EventSinks sinks;
    /** Some attached sink classifies cycles (see
     *  obs::EventSink::classifiesCycles). */
    bool classifyCycles = false;
    /** At most one structural-stall reason may fire per cycle; the
     *  commit-side cause is noted first (commit runs first in tick)
     *  and rename's ROB-full symptom only when nothing else claimed
     *  the cycle. noteStructuralStall PPA_ASSERTs the contract. */
    bool stallNoted = false;
    obs::StallReason stallReason = obs::StallReason::RobFull;
    /** Cycle of the last noteDrainStall() (idle skipping). */
    Cycle drainNotedCycle = neverCycle;

    // ---- PPA state -------------------------------------------------------
    PhysRegIndexer regIndexer;
    MaskReg maskReg;
    Csq csq;
    std::vector<unsigned> deferredFrees; // global phys indices
    bool barrierPending = false;  // a barrier is in flight in the ROB
    bool csqBoundaryPending = false;
    std::uint64_t lcpc = 0;
    bool lcpcValid = false;

    // ---- Capri state -----------------------------------------------------
    unsigned capriInstsInRegion = 0;

    // ---- statistics -------------------------------------------------------
    std::uint64_t commitCount = 0;
    std::uint64_t storeCommitCount = 0;
    RegionStats regions;
    stats::Histogram freeIntHist;
    stats::Histogram freeFpHist;
    stats::Counter statRenameStallNoReg;

    // ---- idle skipping ------------------------------------------------
    std::uint64_t activity = 0;
    /** Per-cycle stall counters at the start of the last tick; their
     *  growth in it is what every skipped repeat adds. */
    std::uint64_t tickBoundaryStalls = 0;
    std::uint64_t tickRenameStalls = 0;
};

} // namespace ppa

#endif // PPA_CORE_CORE_HH

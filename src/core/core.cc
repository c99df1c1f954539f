#include "core/core.hh"

#include <algorithm>

#include "baselines/capri.hh"
#include "common/logging.hh"
#include "isa/semantics.hh"

namespace ppa
{

Core::Core(const CoreParams &params, unsigned core_id, MemHierarchy &mem)
    : cfg(params), coreId(core_id), memory(mem),
      bpred(params.branchPredictorEntries),
      intPrf(params.intPrfEntries), fpPrf(params.fpPrfEntries),
      intRat(numArchIntRegs), fpRat(numArchFpRegs),
      intCrt(numArchIntRegs), fpCrt(numArchFpRegs),
      iq(params.iqEntries), sq(params.sqEntries),
      regIndexer(params.intPrfEntries, params.fpPrfEntries),
      maskReg(regIndexer), csq(params.csqEntries),
      freeIntHist(params.intPrfEntries),
      freeFpHist(params.fpPrfEntries)
{
    intFreeList.fill(0, cfg.intPrfEntries);
    fpFreeList.fill(0, cfg.fpPrfEntries);

    // Queue capacities all come from Table 2; after these one-time
    // reservations the tick() path never allocates.
    fetchQueue.reset(cfg.fetchQueueEntries);
    rob.reset(cfg.robEntries);
    readyQueue.reset(cfg.iqEntries);
    committedStoreFifo.reset(cfg.sqEntries);

    iqFreeSlots.reserve(cfg.iqEntries);
    for (unsigned i = cfg.iqEntries; i-- > 0;)
        iqFreeSlots.push_back(static_cast<std::uint16_t>(i));
    sqFreeSlots.reserve(cfg.sqEntries);
    for (unsigned i = cfg.sqEntries; i-- > 0;)
        sqFreeSlots.push_back(static_cast<std::uint16_t>(i));

    waiterHead.assign(cfg.intPrfEntries + cfg.fpPrfEntries, -1);
    waiterTail.assign(cfg.intPrfEntries + cfg.fpPrfEntries, -1);
    // Each live IQ entry waits on at most its sources plus one
    // store-data dependency registered at issue time.
    waiterPool.reserve(cfg.iqEntries * (maxSrcRegs + 1));

    eventWheel.assign(eventWheelBuckets, {});
    eventDrain.reserve(cfg.issueWidth * 4);

    fwdTable.assign(fwdTableSlots, FwdSlot{});

    mergeInFlight.reserve(cfg.storeMergeOverlap + 1);
    clwbAcks.reserve(64);

    memory.writeBuffer(coreId).bindSinks(&sinks);

    fus[0].count = cfg.numIntAlu;
    fus[1].count = cfg.numIntMul;
    fus[2].count = cfg.numIntDiv;
    fus[3].count = cfg.numFpAlu;
    fus[4].count = cfg.numFpMul;
    fus[5].count = cfg.numFpDiv;
    fus[6].count = cfg.numLoadPorts;
    fus[7].count = cfg.numStorePorts;
}

Core::~Core()
{
    memory.writeBuffer(coreId).bindSinks(nullptr);
}

void
Core::bindSource(DynInstSource *source)
{
    src = source;
    sourceExhausted = false;
}

void
Core::bindCapriChannel(CapriChannel *channel)
{
    capri = channel;
}

Core::FuState &
Core::fuFor(FuType t)
{
    // FuType order: None, IntAlu, IntMul, IntDiv, FpAlu, FpMul,
    // FpDiv, MemRead, MemWrite, Branch. Branches share the integer
    // ALUs; None never issues but maps safely.
    static constexpr std::uint8_t map[] = {0, 0, 1, 2, 3,
                                           4, 5, 6, 7, 0};
    return fus[map[static_cast<std::size_t>(t)]];
}

void
Core::resetFuCycle()
{
    for (FuState &fu : fus)
        fu.usedThisCycle = 0;
}

unsigned
Core::flattenReg(RegClass cls, PhysReg r) const
{
    return regIndexer.flatten(cls, r);
}

Word
Core::readSrc(const RobEntry &e, int i) const
{
    if (!e.inst.srcs[i].valid() || e.srcPhys[i] == invalidPhysReg)
        return 0;
    return prf(e.inst.srcs[i].cls).value(e.srcPhys[i]);
}

// --------------------------------------------------------------------
// Wakeup lists
// --------------------------------------------------------------------

void
Core::pushWaiter(RegClass cls, PhysReg r, std::uint64_t seq)
{
    unsigned g = flattenReg(cls, r);
    std::int32_t n = waiterFreeHead;
    if (n >= 0) {
        waiterFreeHead = waiterPool[static_cast<std::size_t>(n)].next;
    } else {
        n = static_cast<std::int32_t>(waiterPool.size());
        waiterPool.emplace_back();
    }
    waiterPool[static_cast<std::size_t>(n)] = {seq, -1};
    if (waiterTail[g] >= 0)
        waiterPool[static_cast<std::size_t>(waiterTail[g])].next = n;
    else
        waiterHead[g] = n;
    waiterTail[g] = n;
}

void
Core::wakeDependents(RegClass cls, PhysReg r)
{
    if (r == invalidPhysReg)
        return;
    unsigned g = flattenReg(cls, r);
    std::int32_t n = waiterHead[g];
    waiterHead[g] = -1;
    waiterTail[g] = -1;
    while (n >= 0) {
        WaiterNode &node = waiterPool[static_cast<std::size_t>(n)];
        std::uint64_t seq = node.seq;
        std::int32_t next = node.next;
        node.next = waiterFreeHead;
        waiterFreeHead = n;
        n = next;

        RobEntry *e = robFind(seq);
        if (!e || e->iqIndex < 0)
            continue;
        IqEntry &slot = iq[static_cast<std::size_t>(e->iqIndex)];
        if (!slot.valid || slot.robSeq != seq)
            continue;
        if (slot.remainingSrcs > 0)
            --slot.remainingSrcs;
        if (slot.remainingSrcs == 0)
            readyQueue.push_back(seq);
    }
}

void
Core::resetWaiters()
{
    std::fill(waiterHead.begin(), waiterHead.end(), -1);
    std::fill(waiterTail.begin(), waiterTail.end(), -1);
    waiterFreeHead = -1;
    for (std::size_t i = waiterPool.size(); i-- > 0;) {
        waiterPool[i].next = waiterFreeHead;
        waiterFreeHead = static_cast<std::int32_t>(i);
    }
}

void
Core::freePhysReg(RegClass cls, PhysReg r)
{
    if (r == invalidPhysReg)
        return;
    for (obs::EventSink *s : sinks)
        s->onRegFree(flattenReg(cls, r));
    freeList(cls).free(r);
}

void
Core::attach(obs::EventSink *sink)
{
    sinks.push_back(sink);
    classifyCycles = classifyCycles || sink->classifiesCycles();
}

// --------------------------------------------------------------------
// Store-forwarding filter
// --------------------------------------------------------------------

void
Core::fwdInsert(Addr word, int sq_idx, SeqNum seq)
{
    FwdSlot &fs = fwdTable[fwdHash(word)];
    SqEntry &s = sq[static_cast<std::size_t>(sq_idx)];
    s.prevWordIdx = -1;
    s.prevWordSeq = 0;
    if (fs.live == 0) {
        fs.word = word;
        fs.collided = false;
        fs.headIdx = sq_idx;
        fs.headSeq = seq;
    } else if (!fs.collided && fs.word == word) {
        const SqEntry &head =
            sq[static_cast<std::size_t>(fs.headIdx)];
        if (head.valid && head.seq == fs.headSeq) {
            s.prevWordIdx = fs.headIdx;
            s.prevWordSeq = fs.headSeq;
        }
        fs.headIdx = sq_idx;
        fs.headSeq = seq;
    } else {
        fs.collided = true;
    }
    ++fs.live;
}

void
Core::fwdRemove(Addr word)
{
    FwdSlot &fs = fwdTable[fwdHash(word)];
    PPA_ASSERT(fs.live > 0, "store filter underflow");
    --fs.live;
}

void
Core::releaseSqSlot(int idx)
{
    SqEntry &s = sq[static_cast<std::size_t>(idx)];
    PPA_ASSERT(s.valid, "releasing a free SQ slot");
    if (!s.isClwb)
        fwdRemove(MemImage::wordAlign(s.addr));
    s.valid = false;
    PPA_ASSERT(sqUsed > 0, "sq underflow");
    --sqUsed;
    sqFreeSlots.push_back(static_cast<std::uint16_t>(idx));
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Core::fetchStage()
{
    if (curCycle < fetchResumeCycle || fetchBlockedOnBranch ||
        sourceExhausted || !src) {
        return;
    }

    if (fetchQueue.size() < cfg.fetchQueueEntries)
        ++activity; // the loop below pulls or retries an instruction
    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth &&
           fetchQueue.size() < cfg.fetchQueueEntries) {
        DynInst inst;
        if (havePendingFetch) {
            inst = pendingFetch;
            havePendingFetch = false;
        } else if (!src->next(inst)) {
            sourceExhausted = true;
            break;
        }

        // Instruction-cache access for each new fetch line.
        Addr line = inst.pc & ~Addr{63};
        if (cfg.modelICache && line != lastFetchLine) {
            bool hit = memory.instHitsL1I(coreId, inst.pc);
            Cycle done = memory.instFetch(coreId, inst.pc, curCycle);
            lastFetchLine = line;
            if (!hit) {
                // Miss: stall the front end until the line arrives.
                pendingFetch = inst;
                havePendingFetch = true;
                fetchResumeCycle = done;
                return;
            }
        }

        fetchQueue.push_back(inst);
        ++fetched;

        if (inst.isBranch()) {
            bool correct = bpred.update(inst.pc, inst.taken);
            if (!correct) {
                // Misprediction: fetch down the wrong path until the
                // branch resolves in the back end, then refill.
                fetchBlockedOnBranch = true;
                blockingBranchPc = inst.pc;
                fetchQueue.back().mispredicted = true;
                return;
            }
            // Correct prediction (BTB hit assumed): no bubble.
        }
    }
}

// --------------------------------------------------------------------
// Rename / dispatch
// --------------------------------------------------------------------

void
Core::renameStage()
{
    bool counted_noreg_stall = false;

    for (unsigned n = 0; n < cfg.renameWidth; ++n) {
        if (fetchQueue.empty())
            return;
        const DynInst &inst = fetchQueue.front();
        const OpInfo &info = opInfo(inst.op);

        if (rob.size() >= cfg.robEntries) {
            // ROB-full is a symptom when commit is already draining a
            // region boundary; only claim the cycle if no commit-side
            // cause fired (commitStage ran earlier this tick).
            if (classifyCycles && !stallNoted)
                noteStructuralStall(obs::StallReason::RobFull);
            return;
        }

        // Atomics execute at the ROB head with a direct persistent
        // write; they occupy neither SQ nor LQ in this model.
        bool is_atomic = inst.op == Opcode::AtomicRmw;
        bool is_store_slot = (info.isStore && !is_atomic) ||
                             inst.op == Opcode::Clwb;
        int sq_slot = -1;
        if (is_store_slot) {
            if (sqUsed >= cfg.sqEntries)
                return;
            PPA_ASSERT(!sqFreeSlots.empty(), "sqUsed inconsistent");
            sq_slot = static_cast<int>(sqFreeSlots.back());
        }
        if (info.isLoad && !info.isStore && lqUsed >= cfg.lqEntries)
            return;

        bool needs_iq = info.fu != FuType::None && !is_atomic;
        int iq_slot = -1;
        if (needs_iq) {
            if (iqUsed >= cfg.iqEntries)
                return;
            PPA_ASSERT(!iqFreeSlots.empty(), "iqUsed inconsistent");
            iq_slot = static_cast<int>(iqFreeSlots.back());
        }

        // Check free-register availability first: the PPA region
        // trigger lives here (Section 4.2, step 4).
        if (inst.hasDst() && freeList(inst.dst.cls).empty()) {
            if (!counted_noreg_stall) {
                statRenameStallNoReg.inc();
                counted_noreg_stall = true;
            }
            if (cfg.mode == PersistMode::Ppa && !barrierPending) {
                // Inject a persist barrier right before this
                // instruction.
                RobEntry &barrier = rob.emplace_back();
                barrier.isBarrier = true;
                barrier.inst.op = Opcode::Fence;
                ++nextRobSeq;
                barrierPending = true;
            }
            return;
        }

        // Build the entry in place; every resource check that could
        // stall this instruction has already passed.
        RobEntry &e = rob.emplace_back();
        e.inst = inst;
        e.sqIndex = sq_slot;
        e.iqIndex = iq_slot;
        std::uint64_t seq = nextRobSeq;

        // Rename sources through the RAT *before* allocating the
        // destination, so an instruction reading its own destination
        // architectural register sees the previous mapping.
        int waiting = 0;
        for (int i = 0; i < maxSrcRegs; ++i) {
            if (!inst.srcs[i].valid())
                continue;
            RegClass cls = inst.srcs[i].cls;
            PhysReg p = rat(cls).lookup(inst.srcs[i].idx);
            e.srcPhys[i] = p;
            if (p != invalidPhysReg && !prf(cls).isReady(p)) {
                ++waiting;
                pushWaiter(cls, p, seq);
            }
        }

        if (inst.hasDst()) {
            RegClass cls = inst.dst.cls;
            e.newDst = freeList(cls).allocate();
            e.prevDst = rat(cls).lookup(inst.dst.idx);
            rat(cls).update(inst.dst.idx, e.newDst);
            prf(cls).markPending(e.newDst);
        }

        if (is_store_slot) {
            sqFreeSlots.pop_back();
            SqEntry &s = sq[static_cast<std::size_t>(sq_slot)];
            s = SqEntry{};
            s.valid = true;
            s.addr = inst.memAddr;
            s.isClwb = inst.op == Opcode::Clwb;
            s.isFpStore = inst.op == Opcode::FpStore;
            s.seq = seq;
            if (!s.isClwb) {
                s.dataReg = e.srcPhys[0];
                s.dataCls = inst.srcs[0].cls;
                fwdInsert(MemImage::wordAlign(s.addr), sq_slot, seq);
            }
            ++sqUsed;
        }
        if (info.isLoad && !info.isStore) {
            e.holdsLq = true;
            ++lqUsed;
        }

        if (is_atomic) {
            pendingAtomics.emplace_back(
                MemImage::wordAlign(inst.memAddr), seq);
        }

        // Instructions with no FU complete immediately (their commit
        // gating, if any, happens at the head of the ROB).
        if (!needs_iq) {
            if (is_atomic) {
                e.done = false; // executes at commit (locked-op style)
            } else {
                e.done = true;
            }
        } else {
            iqFreeSlots.pop_back();
            IqEntry &slot = iq[static_cast<std::size_t>(iq_slot)];
            slot.valid = true;
            slot.robSeq = seq;
            slot.remainingSrcs = waiting;
            ++iqUsed;
            if (waiting == 0)
                readyQueue.push_back(seq);
        }

        ++nextRobSeq;
        fetchQueue.pop_front();
    }
}

// --------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------

const Core::SqEntry *
Core::findForwardingStore(Addr want, std::uint64_t my_seq)
{
    const FwdSlot &fs = fwdTable[fwdHash(want)];
    if (fs.live == 0)
        return nullptr; // no live store hashes here: exact miss

    if (!fs.collided) {
        if (fs.word != want) {
            // Slot is owned by a single different word: every live
            // store hashing here targets that word, not this one.
            return nullptr;
        }
        const SqEntry *node =
            &sq[static_cast<std::size_t>(fs.headIdx)];
        if (!node->valid || node->seq != fs.headSeq) {
            // The newest store to this word has merged; stores to one
            // word leave the SQ in program order, so every older one
            // is gone too.
            return nullptr;
        }
        // Walk the seq-descending same-word chain past stores younger
        // than the load; the first older node is the forwarding match.
        while (node->seq >= my_seq) {
            std::int32_t pidx = node->prevWordIdx;
            if (pidx < 0)
                return nullptr;
            const SqEntry &prev =
                sq[static_cast<std::size_t>(pidx)];
            if (!prev.valid || prev.seq != node->prevWordSeq) {
                // The link's target merged, so every older same-word
                // store is gone as well.
                return nullptr;
            }
            node = &prev;
        }
        return node;
    }

    // Exact fallback: two words share this hash slot.
    const SqEntry *match = nullptr;
    for (unsigned i = 0; i < cfg.sqEntries; ++i) {
        const SqEntry &s = sq[i];
        if (!s.valid || s.isClwb || s.seq >= my_seq)
            continue;
        if (MemImage::wordAlign(s.addr) != want)
            continue;
        if (!match || s.seq > match->seq)
            match = &s;
    }
    return match;
}

bool
Core::tryIssueMem(RobEntry &e, std::uint64_t my_seq)
{
    Addr want = MemImage::wordAlign(e.inst.memAddr);

    // Memory ordering against locked RMWs: an older uncommitted
    // atomic to the same word executes only at the ROB head, so the
    // load must wait for it.
    for (const auto &[a, seq] : pendingAtomics) {
        if (a == want && seq < my_seq) {
            readyQueue.push_back(my_seq); // retry next cycle
            return false;
        }
    }

    // The youngest older store to the same word; forward if its data
    // is ready, otherwise wait on the store's data register.
    const SqEntry *match = findForwardingStore(want, my_seq);

    if (match) {
        if (!match->dataReady) {
            if (match->dataReg == invalidPhysReg ||
                prf(match->dataCls).isReady(match->dataReg)) {
                // The store's input is available but the store has
                // not executed yet: busy-retry next cycle. (Blocking
                // on the register would never be woken again.)
                readyQueue.push_back(my_seq);
                return false;
            }
            // Block on the store's data register; woken when it is
            // written back.
            PPA_ASSERT(e.iqIndex >= 0, "load without IQ slot");
            IqEntry &slot = iq[static_cast<std::size_t>(e.iqIndex)];
            slot.remainingSrcs = 1;
            pushWaiter(match->dataCls, match->dataReg, slot.robSeq);
            return false;
        }
        e.execResult = match->dataValue;
        e.issued = true;
        scheduleExec(e, my_seq,
                     curCycle + memory.l1d(coreId).hitLatency());
        return true;
    }

    e.execResult = memory.committed().read(e.inst.memAddr);
    e.issued = true;
    scheduleExec(e, my_seq, memory.load(coreId, e.inst.memAddr,
                                        curCycle));
    return true;
}

void
Core::pushExecEvent(Cycle complete, std::uint64_t seq)
{
    // Bucket by the cycle the event will be *observed*: writeback
    // drains bucket [c & mask] at cycle c, so an already-due event
    // (possible only for zero-latency completions scheduled after
    // this cycle's writeback ran) lands in next cycle's bucket. The
    // stored completion cycle is untouched — drain order remains
    // (complete, robSeq), exactly the reference priority queue's.
    Cycle slot = complete > curCycle ? complete : curCycle + 1;
    eventWheel[slot & (eventWheelBuckets - 1)].push_back(
        {complete, seq});
    ++eventCount;
}

void
Core::scheduleExec(RobEntry &e, std::uint64_t seq, Cycle complete)
{
    pushExecEvent(complete, seq);
    if (e.iqIndex >= 0) {
        iq[static_cast<std::size_t>(e.iqIndex)].valid = false;
        iqFreeSlots.push_back(static_cast<std::uint16_t>(e.iqIndex));
        e.iqIndex = -1;
        PPA_ASSERT(iqUsed > 0, "iq underflow");
        --iqUsed;
    }
}

void
Core::issueStage()
{
    resetFuCycle();
    unsigned issued = 0;
    std::size_t attempts = readyQueue.size();
    if (attempts > 0)
        ++activity;

    while (attempts-- > 0 && issued < cfg.issueWidth) {
        std::uint64_t seq = readyQueue.front();
        readyQueue.pop_front();
        RobEntry *e = robFind(seq);
        if (!e || e->issued || e->done || e->iqIndex < 0) {
            continue; // stale entry (squashed by power failure)
        }
        IqEntry &slot = iq[static_cast<std::size_t>(e->iqIndex)];
        if (!slot.valid || slot.robSeq != seq || slot.remainingSrcs > 0)
            continue;

        if (cfg.inOrderIssue) {
            // Section 6 in-order variant: an instruction may issue
            // only when every older instruction has at least issued.
            bool older_unissued = false;
            for (std::uint64_t s = robSeqBase; s < seq; ++s) {
                RobEntry *older = robFind(s);
                if (older && !older->issued && !older->done &&
                    !older->isBarrier) {
                    older_unissued = true;
                    break;
                }
            }
            if (older_unissued) {
                readyQueue.push_back(seq);
                continue;
            }
        }

        const OpInfo &info = opInfo(e->inst.op);
        FuState &fu = fuFor(info.fu);
        bool unpipelined = info.fu == FuType::IntDiv ||
                           info.fu == FuType::FpDiv;
        if (fu.usedThisCycle >= fu.count ||
            (unpipelined && fu.busyUntil > curCycle)) {
            readyQueue.push_back(seq); // retry next cycle
            continue;
        }

        if (e->inst.isLoad()) {
            if (!tryIssueMem(*e, seq))
                continue;
            ++fu.usedThisCycle;
            ++issued;
            continue;
        }

        ++fu.usedThisCycle;
        if (unpipelined)
            fu.busyUntil = curCycle + static_cast<Cycle>(info.latency);

        if (e->inst.isStore() || e->inst.op == Opcode::Clwb) {
            // Stores "execute" by latching their data into the SQ.
            if (e->sqIndex >= 0) {
                SqEntry &s = sq[static_cast<std::size_t>(e->sqIndex)];
                if (!s.isClwb)
                    e->execResult = readSrc(*e, 0);
            }
            e->issued = true;
            scheduleExec(*e, seq, curCycle + 1);
        } else if (e->inst.hasDst()) {
            Word s0 = readSrc(*e, 0);
            Word s1 = readSrc(*e, 1);
            e->execResult = aluCompute(e->inst.op, s0, s1, e->inst.imm);
            e->issued = true;
            scheduleExec(*e, seq,
                         curCycle + static_cast<Cycle>(info.latency));
        } else {
            // Branches: timing only.
            e->issued = true;
            scheduleExec(*e, seq,
                         curCycle + static_cast<Cycle>(info.latency));
        }
        ++issued;
    }
}

// --------------------------------------------------------------------
// Writeback
// --------------------------------------------------------------------

void
Core::writebackStage()
{
    if (eventCount == 0)
        return;
    std::vector<ExecEvent> &bucket =
        eventWheel[curCycle & (eventWheelBuckets - 1)];
    if (bucket.empty())
        return;

    // Extract this cycle's completions; events a full wheel lap (or
    // more) out stay behind for a later visit.
    eventDrain.clear();
    std::size_t keep = 0;
    for (const ExecEvent &ev : bucket) {
        if (ev.complete <= curCycle)
            eventDrain.push_back(ev);
        else
            bucket[keep++] = ev;
    }
    bucket.resize(keep);
    if (eventDrain.empty())
        return;
    eventCount -= eventDrain.size();
    ++activity;
    std::sort(eventDrain.begin(), eventDrain.end());

    for (const ExecEvent &ev : eventDrain) {
        RobEntry *e = robFind(ev.robSeq);
        if (!e || e->done)
            continue;

        if (e->inst.isStore() || e->inst.op == Opcode::Clwb) {
            if (e->sqIndex >= 0) {
                SqEntry &s = sq[static_cast<std::size_t>(e->sqIndex)];
                if (!s.isClwb) {
                    s.dataValue = e->execResult;
                    s.dataReady = true;
                    // Wake any loads blocked on this store's data.
                    wakeDependents(s.dataCls, s.dataReg);
                }
            }
        } else if (e->inst.hasDst()) {
            for (obs::EventSink *s : sinks)
                s->onRegWrite(flattenReg(e->inst.dst.cls, e->newDst));
            prf(e->inst.dst.cls).write(e->newDst, e->execResult);
            wakeDependents(e->inst.dst.cls, e->newDst);
        }
        e->done = true;

        if (e->inst.mispredicted && fetchBlockedOnBranch &&
            e->inst.pc == blockingBranchPc) {
            // The mispredicted branch resolved: redirect the front
            // end and pay the refill penalty.
            fetchBlockedOnBranch = false;
            fetchResumeCycle = curCycle + cfg.branchRedirectPenalty;
        }
    }
}

// --------------------------------------------------------------------
// Post-commit store merging
// --------------------------------------------------------------------

void
Core::mergeCommittedStores()
{
    // Retire completed merges and clwb acks.
    if (!mergeInFlight.empty()) {
        std::size_t done = 0;
        while (done < mergeInFlight.size() &&
               mergeInFlight[done] <= curCycle) {
            ++done;
        }
        if (done > 0) {
            mergeInFlight.erase(mergeInFlight.begin(),
                                mergeInFlight.begin() +
                                    static_cast<std::ptrdiff_t>(done));
            ++activity;
        }
    }
    activity += std::erase_if(clwbAcks, [&](Cycle c) {
        if (c <= curCycle) {
            PPA_ASSERT(outstandingClwbs > 0, "clwb underflow");
            --outstandingClwbs;
            return true;
        }
        return false;
    });

    if (committedStoreFifo.empty() ||
        mergeInFlight.size() >= cfg.storeMergeOverlap) {
        return;
    }

    int idx = committedStoreFifo.front();
    SqEntry &s = sq[static_cast<std::size_t>(idx)];
    PPA_ASSERT(s.valid && s.committed, "merging uncommitted store");

    if (s.isClwb) {
        Cycle ack = memory.clwbLine(coreId, s.addr, curCycle);
        ++outstandingClwbs;
        clwbAcks.push_back(ack);
    } else {
        bool persist = cfg.mode == PersistMode::Ppa;
        auto res = memory.storeMerge(coreId, s.addr, s.dataValue,
                                     curCycle, persist);
        if (!res.accepted)
            return; // persist path full; retry next cycle
        mergeInFlight.insert(
            std::upper_bound(mergeInFlight.begin(),
                             mergeInFlight.end(), res.completeCycle),
            res.completeCycle);
    }

    releaseSqSlot(idx);
    committedStoreFifo.pop_front();
    ++activity;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

bool
Core::regionBoundaryConditionsMet()
{
    // All of the region's committed stores must have merged into L1D
    // and their persist operations must be acknowledged (the L1D
    // counter register reads zero, Section 4.3).
    if (!committedStoreFifo.empty())
        return false;
    if (memory.outstandingPersists(coreId) != 0) {
        // Tell the write buffer to stop write-combining: the barrier
        // needs the residual entries out now.
        memory.writeBuffer(coreId).setDraining(true);
        return false;
    }
    return true;
}

void
Core::completeRegionBoundary(RegionEndCause cause)
{
    ++activity;
    for (obs::EventSink *s : sinks)
        s->onRegionBoundaryStart(curCycle, cause);
    // Reclaim the physical registers whose release was deferred
    // because MaskReg marked them as committed-store operands.
    for (unsigned g : deferredFrees) {
        RegClass cls = maskReg.indexer().classOf(g);
        freePhysReg(cls, maskReg.indexer().indexOf(g));
    }
    deferredFrees.clear();
    for (obs::EventSink *s : sinks)
        s->onMaskClearAll(maskReg.maskedCount());
    maskReg.clearAll();
    for (obs::EventSink *s : sinks)
        s->onCsqClear(csq.size());
    csq.clear();
    memory.writeBuffer(coreId).setDraining(false);
    regions.onRegionEnd(cause);
    for (obs::EventSink *s : sinks)
        s->onRegionBoundaryComplete();
}

void
Core::retireStoreBookkeeping(RobEntry &e)
{
    PPA_ASSERT(e.sqIndex >= 0, "store without SQ slot");
    SqEntry &s = sq[static_cast<std::size_t>(e.sqIndex)];

    if (!s.isClwb && memory.ioBuffer().inRange(s.addr)) {
        // Irrevocable device write (Section 5): the battery-backed
        // I/O buffer makes the store persistent at commit — it never
        // enters the cache hierarchy, the CSQ, or replay.
        for (obs::EventSink *sink : sinks) {
            sink->onStoreCommit(s.addr, s.dataValue, csqZeroRegIndex,
                                false, true);
        }
        memory.ioBuffer().write(s.addr, s.dataValue);
        releaseSqSlot(e.sqIndex);
        return;
    }

    s.committed = true;
    committedStoreFifo.push_back(e.sqIndex);

    if (s.isClwb)
        return;
    unsigned g = csqZeroRegIndex;
    if (!cfg.csqCarriesValues && s.dataReg != invalidPhysReg)
        g = flattenReg(s.dataCls, s.dataReg);
    for (obs::EventSink *sink : sinks)
        sink->onStoreCommit(s.addr, s.dataValue, g, cfg.csqCarriesValues,
                            false);
    if (cfg.mode != PersistMode::Ppa)
        return;

    if (cfg.csqCarriesValues) {
        // Section 6 variant: record the data value directly; no
        // register masking is needed.
        csq.pushValue(s.addr, s.dataValue);
    } else {
        // Store integrity: record the committed store in the CSQ and
        // mask its data register (Sections 3.3, 4.4). A store of a
        // never-defined register (g == csqZeroRegIndex) carries the
        // architectural zero and masks nothing.
        csq.push(g, s.addr);
    }
    for (obs::EventSink *sink : sinks)
        sink->onCsqPush(csq.contents().back());
    if (g != csqZeroRegIndex) {
        maskReg.mask(s.dataCls, s.dataReg);
        for (obs::EventSink *sink : sinks)
            sink->onMaskSet(g);
    }
}

bool
Core::commitOne(RobEntry &e)
{
    const DynInst &inst = e.inst;

    // ---- gating at the head of the ROB -----------------------------
    if (e.isBarrier) {
        if (!regionBoundaryConditionsMet()) {
            regions.onBoundaryStall();
            if (classifyCycles)
                noteDrainStall();
            return false;
        }
        completeRegionBoundary(RegionEndCause::PrfExhausted);
        barrierPending = false;
        return true;
    }

    if (inst.isStore() && cfg.mode == PersistMode::Ppa && csq.full()) {
        // Implicit region boundary: the CSQ cannot accept another
        // committed store (Section 4.2).
        if (!regionBoundaryConditionsMet()) {
            regions.onBoundaryStall();
            // The CSQ triggered this boundary: the cycle is CSQ-full
            // backpressure even while the drain itself waits on the
            // persist path (the WPQ/bandwidth split applies only to
            // boundaries the CSQ did not force).
            if (classifyCycles)
                noteStructuralStall(obs::StallReason::CsqFull);
            return false;
        }
        completeRegionBoundary(RegionEndCause::CsqFull);
    }

    if (inst.op == Opcode::Fence) {
        // Fences drain the store path; under PPA they are region
        // boundaries (Section 6); under ReplayCache they additionally
        // wait for all outstanding clwb acks.
        if (!committedStoreFifo.empty())
            return false;
        if (cfg.mode == PersistMode::ReplayCache &&
            outstandingClwbs > 0) {
            regions.onBoundaryStall();
            if (classifyCycles)
                noteStructuralStall(obs::StallReason::NvmBandwidth);
            return false;
        }
        if (cfg.mode == PersistMode::Ppa) {
            if (!regionBoundaryConditionsMet()) {
                regions.onBoundaryStall();
                if (classifyCycles)
                    noteDrainStall();
                return false;
            }
            completeRegionBoundary(RegionEndCause::SyncPrimitive);
        }
        if (cfg.mode == PersistMode::Capri && capri) {
            if (!capri->empty(curCycle)) {
                regions.onBoundaryStall();
                if (classifyCycles)
                    noteStructuralStall(obs::StallReason::NvmBandwidth);
                return false;
            }
            capriInstsInRegion = 0;
        }
    }

    if (inst.op == Opcode::AtomicRmw && !e.done) {
        // Locked-RMW semantics: execute at the head once the data
        // register is ready and (under PPA) the region is persistent.
        if (!committedStoreFifo.empty())
            return false;
        PhysReg data_reg = e.srcPhys[0];
        if (data_reg != invalidPhysReg &&
            !prf(inst.srcs[0].cls).isReady(data_reg)) {
            return false;
        }
        if (cfg.mode == PersistMode::Ppa) {
            if (!regionBoundaryConditionsMet()) {
                regions.onBoundaryStall();
                if (classifyCycles)
                    noteDrainStall();
                return false;
            }
            completeRegionBoundary(RegionEndCause::SyncPrimitive);
        }
        ++activity;
        Word delta = readSrc(e, 0);
        Word old = memory.committed().read(inst.memAddr);
        if (cfg.mode == PersistMode::Ppa) {
            memory.atomicPersistWrite(inst.memAddr, old + delta, curCycle);
            for (obs::EventSink *s : sinks)
                s->onAtomicCommit(inst.memAddr, old + delta);
        } else {
            memory.committed().write(inst.memAddr, old + delta);
            // Timing/traffic for the RMW's cache access.
            memory.storeMerge(coreId, inst.memAddr, old + delta,
                              curCycle, false);
        }
        if (e.newDst != invalidPhysReg) {
            for (obs::EventSink *s : sinks)
                s->onRegWrite(flattenReg(inst.dst.cls, e.newDst));
            prf(inst.dst.cls).write(e.newDst, old);
            wakeDependents(inst.dst.cls, e.newDst);
        }
        e.done = true;
    }

    if (!e.done)
        return false;

    // ---- actual retirement -----------------------------------------
    if (inst.op == Opcode::AtomicRmw) {
        // The RMW's write was applied (and, under PPA, persisted)
        // during its head-of-ROB execution above. commitOne always
        // operates on the ROB head, whose sequence is robSeqBase.
        std::erase_if(pendingAtomics, [&](const auto &pa) {
            return pa.second == robSeqBase;
        });
    } else if (inst.isStore()) {
        if (cfg.mode == PersistMode::Capri && capri) {
            // The redo buffer must accept the store for it to commit.
            if (!capri->onStoreCommit(curCycle))
                return false;
        }
        retireStoreBookkeeping(e);
    } else if (inst.op == Opcode::Clwb) {
        retireStoreBookkeeping(e);
    }

    if (e.newDst != invalidPhysReg) {
        RegClass cls = inst.dst.cls;
        crt(cls).update(inst.dst.idx, e.newDst);
        if (e.prevDst != invalidPhysReg) {
            if (cfg.mode == PersistMode::Ppa &&
                maskReg.isMasked(cls, e.prevDst)) {
                // Deferred reclamation: the register holds a committed
                // store's operand (Section 3.3).
                deferredFrees.push_back(flattenReg(cls, e.prevDst));
            } else {
                freePhysReg(cls, e.prevDst);
            }
        }
    }

    if (e.holdsLq) {
        PPA_ASSERT(lqUsed > 0, "lq underflow");
        --lqUsed;
    }

    lcpc = inst.index;
    lcpcValid = true;
    for (obs::EventSink *s : sinks)
        s->onCommit(inst.index, inst.isStore());
    ++commitCount;
    if (inst.isStore())
        ++storeCommitCount;
    if (cfg.mode == PersistMode::Ppa)
        regions.onCommit(inst.isStore());

    if (cfg.mode == PersistMode::Capri) {
        ++capriInstsInRegion;
        if (capriInstsInRegion >= cfg.capriRegionInsts) {
            // Compiler-formed region boundary; the *next* commit will
            // block until the redo buffer drains.
            capriInstsInRegion = 0;
            regions.onRegionEnd(RegionEndCause::PrfExhausted);
        }
    }
    return true;
}

void
Core::commitStage()
{
    // Capri: block at a compiler region boundary until drained.
    if (cfg.mode == PersistMode::Capri && capri &&
        capriInstsInRegion == 0 && !rob.empty() &&
        !capri->empty(curCycle)) {
        regions.onBoundaryStall();
        if (classifyCycles)
            noteStructuralStall(obs::StallReason::NvmBandwidth);
        return;
    }

    for (unsigned n = 0; n < cfg.commitWidth && !rob.empty(); ++n) {
        RobEntry &head = rob.front();
        if (!commitOne(head))
            return;
        rob.pop_front();
        ++robSeqBase;
    }
}

// --------------------------------------------------------------------
// Top level
// --------------------------------------------------------------------

void
Core::tick()
{
    for (obs::EventSink *s : sinks)
        s->onCycle(curCycle);
    // Sample PRF occupancy at the renaming stage, every cycle
    // (Figure 5's methodology).
    freeIntHist.sample(intFreeList.size());
    freeFpHist.sample(fpFreeList.size());
    tickBoundaryStalls = regions.stallCycles();
    tickRenameStalls = statRenameStallNoReg.value();

    std::uint64_t commits_before = commitCount;
    commitStage();
    mergeCommittedStores();
    writebackStage();
    issueStage();
    renameStage();
    fetchStage();
    if (classifyCycles) {
        for (obs::EventSink *s : sinks) {
            s->onCycleEnd(curCycle, static_cast<unsigned>(commitCount -
                                                          commits_before));
        }
        stallNoted = false;
    }
    ++curCycle;
}

Cycle
Core::nextEventCycle(Cycle bound) const
{
    // No quiet tick leaves a ready instruction waiting: the issue
    // stage counts as activity whenever the ready queue is non-empty.
    PPA_ASSERT(readyQueue.empty(), "ready instruction in a quiet tick");
    Cycle next = bound;
    if (fetchResumeCycle >= curCycle)
        next = std::min(next, fetchResumeCycle);
    if (!mergeInFlight.empty())
        next = std::min(next, mergeInFlight.front());
    for (Cycle ack : clwbAcks)
        next = std::min(next, ack);
    // A drain stall's attribution reads WPQ occupancy,
    // which drops as in-flight NVM writes complete.
    if (drainNotedCycle == curCycle - 1)
        next = std::min(next, memory.nvm().nextCompletionCycle(curCycle));
    if (eventCount == 0)
        return next;

    // Writeback at cycle c drains bucket c's due events: walk the
    // buckets in cycle order. Past one full lap every remaining event
    // completes a lap or more out, in its own bucket's cycle.
    Cycle lap_end = std::min(next, curCycle + eventWheelBuckets);
    for (Cycle c = curCycle; c < lap_end; ++c) {
        for (const ExecEvent &ev :
             eventWheel[c & (eventWheelBuckets - 1)]) {
            if (ev.complete <= c)
                return c;
        }
    }
    if (lap_end == next)
        return next;
    for (const std::vector<ExecEvent> &bucket : eventWheel) {
        for (const ExecEvent &ev : bucket)
            next = std::min(next, ev.complete);
    }
    return next;
}

void
Core::skipIdle(Cycle until)
{
    PPA_ASSERT(until > curCycle, "idle skip must move forward");
    std::uint64_t n = until - curCycle;
    freeIntHist.sample(intFreeList.size(), n);
    freeFpHist.sample(fpFreeList.size(), n);
    regions.onBoundaryStall((regions.stallCycles() - tickBoundaryStalls) *
                            n);
    statRenameStallNoReg.inc(
        (statRenameStallNoReg.value() - tickRenameStalls) * n);
    for (obs::EventSink *s : sinks)
        s->onIdle(curCycle, until);
    curCycle = until;
    for (obs::EventSink *s : sinks)
        s->onCycle(until - 1);
}

void
Core::noteStructuralStall(obs::StallReason reason)
{
    // The attribution contract: at most one structural reason claims a
    // cycle. Re-noting the same reason (e.g. commit retried within one
    // cycle) is idempotent; a different reason is a plumbing bug.
    PPA_ASSERT(!stallNoted || stallReason == reason,
               "two structural-stall reasons fired in one cycle");
    if (stallNoted)
        return;
    stallNoted = true;
    stallReason = reason;
    for (obs::EventSink *s : sinks)
        s->onStructuralStall(reason);
}

void
Core::noteDrainStall()
{
    drainNotedCycle = curCycle;
    noteStructuralStall(drainStallReason());
}

obs::StallReason
Core::drainStallReason() const
{
    // A boundary drain waits on the persist path. Distinguish
    // structural occupancy (write buffer or an NVM write pending
    // queue at capacity -> WPQ-full) from pacing (room everywhere,
    // just waiting for write latency/bandwidth -> NVM-bandwidth).
    const WriteBuffer &wb = memory.writeBuffer(coreId);
    if (wb.queuedEntries() >= wb.capacityEntries())
        return obs::StallReason::WpqFull;
    const Nvm &nvm = memory.nvm();
    for (unsigned mc = 0; mc < nvm.params().numControllers; ++mc) {
        if (nvm.wpqOccupancy(mc, curCycle) >= nvm.params().wpqEntries)
            return obs::StallReason::WpqFull;
    }
    return obs::StallReason::NvmBandwidth;
}

bool
Core::done() const
{
    return sourceExhausted && fetchQueue.empty() && rob.empty() &&
           committedStoreFifo.empty() && mergeInFlight.empty() &&
           outstandingClwbs == 0;
}

ArchState
Core::architecturalState() const
{
    ArchState st;
    for (ArchReg a = 0; a < numArchIntRegs; ++a) {
        PhysReg p = intCrt.lookup(a);
        if (p != invalidPhysReg)
            st.intRegs[static_cast<std::size_t>(a)] = intPrf.value(p);
    }
    for (ArchReg a = 0; a < numArchFpRegs; ++a) {
        PhysReg p = fpCrt.lookup(a);
        if (p != invalidPhysReg)
            st.fpRegs[static_cast<std::size_t>(a)] = fpPrf.value(p);
    }
    return st;
}

CheckpointImage
Core::checkpoint() const
{
    CheckpointImage image;
    if (cfg.mode == PersistMode::Ppa) {
        image.valid = true;
        image.csq = csq.contents();
        image.lcpc = lcpc;
        image.anyCommitted = lcpcValid;
        image.crtInt = intCrt.raw();
        image.crtFp = fpCrt.raw();
        image.maskBits = maskReg.raw();

        auto save_reg = [&](RegClass cls, PhysReg p) {
            if (p == invalidPhysReg)
                return;
            unsigned g = flattenReg(cls, p);
            image.physRegValues[g] = prf(cls).value(p);
        };
        for (ArchReg a = 0; a < numArchIntRegs; ++a)
            save_reg(RegClass::Int, intCrt.lookup(a));
        for (ArchReg a = 0; a < numArchFpRegs; ++a)
            save_reg(RegClass::Fp, fpCrt.lookup(a));
        for (const auto &entry : csq.contents()) {
            if (entry.carriesValue ||
                entry.physRegIndex == csqZeroRegIndex) {
                continue; // value inline or architecturally zero
            }
            RegClass cls = regIndexer.classOf(entry.physRegIndex);
            save_reg(cls, regIndexer.indexOf(entry.physRegIndex));
        }
    }
    return image;
}

CheckpointImage
Core::powerFail()
{
    CheckpointImage image = checkpoint();
    for (obs::EventSink *s : sinks)
        s->onPowerFail(curCycle, image);

    // All volatile pipeline state evaporates.
    fetchQueue.clear();
    rob.clear();
    robSeqBase = nextRobSeq;
    for (auto &slot : iq)
        slot.valid = false;
    iqUsed = 0;
    iqFreeSlots.clear();
    for (unsigned i = cfg.iqEntries; i-- > 0;)
        iqFreeSlots.push_back(static_cast<std::uint16_t>(i));
    for (auto &s : sq)
        s.valid = false;
    sqUsed = 0;
    sqFreeSlots.clear();
    for (unsigned i = cfg.sqEntries; i-- > 0;)
        sqFreeSlots.push_back(static_cast<std::uint16_t>(i));
    committedStoreFifo.clear();
    mergeInFlight.clear();
    clwbAcks.clear();
    outstandingClwbs = 0;
    pendingAtomics.clear();
    readyQueue.clear();
    for (auto &bucket : eventWheel)
        bucket.clear();
    eventCount = 0;
    resetWaiters();
    for (auto &fs : fwdTable)
        fs = FwdSlot{};
    deferredFrees.clear();
    barrierPending = false;
    capriInstsInRegion = 0;
    fetchBlockedOnBranch = false;
    havePendingFetch = false;
    lastFetchLine = ~Addr{0};
    intFreeList.clear();
    fpFreeList.clear();
    sourceExhausted = true; // no fetching until recover()

    return image;
}

void
Core::recover(const CheckpointImage &image)
{
    PPA_ASSERT(image.valid, "recovering from an invalid checkpoint");
    PPA_ASSERT(cfg.mode == PersistMode::Ppa,
               "only PPA cores implement the recovery protocol");

    // (1) Restore the checkpointed structures from NVM.
    maskReg.restore(image.maskBits);
    csq.restore(image.csq);
    intCrt.restoreRaw(image.crtInt);
    fpCrt.restoreRaw(image.crtFp);
    lcpc = image.lcpc;
    lcpcValid = image.anyCommitted;

    for (const auto &[g, v] : image.physRegValues) {
        RegClass cls = regIndexer.classOf(g);
        prf(cls).restore(regIndexer.indexOf(g), v);
    }

    // (2) Replay the committed stores, front to rear (idempotent).
    forEachReplayWrite(
        [this](Addr addr, Word value) { memory.recoveryWrite(addr, value); });

    // (3) Populate the RAT with the restored CRT.
    intRat.restoreRaw(image.crtInt);
    fpRat.restoreRaw(image.crtFp);

    // Rebuild the free lists: a register is free unless the CRT maps
    // it or MaskReg pins it; masked registers not referenced by the
    // CRT rejoin via deferred reclamation at the next boundary.
    std::vector<bool> used_int(cfg.intPrfEntries, false);
    std::vector<bool> used_fp(cfg.fpPrfEntries, false);
    for (PhysReg p : image.crtInt) {
        if (p != invalidPhysReg)
            used_int[static_cast<std::size_t>(p)] = true;
    }
    for (PhysReg p : image.crtFp) {
        if (p != invalidPhysReg)
            used_fp[static_cast<std::size_t>(p)] = true;
    }
    deferredFrees.clear();
    maskReg.forEachMasked([&](RegClass cls, PhysReg p) {
        auto &used = cls == RegClass::Int ? used_int : used_fp;
        if (!used[static_cast<std::size_t>(p)]) {
            deferredFrees.push_back(flattenReg(cls, p));
            used[static_cast<std::size_t>(p)] = true;
        }
    });
    intFreeList.clear();
    for (unsigned p = 0; p < cfg.intPrfEntries; ++p) {
        if (!used_int[p])
            intFreeList.free(static_cast<PhysReg>(p));
    }
    fpFreeList.clear();
    for (unsigned p = 0; p < cfg.fpPrfEntries; ++p) {
        if (!used_fp[p])
            fpFreeList.free(static_cast<PhysReg>(p));
    }

    // (4) Resume right after the last committed instruction.
    if (src) {
        src->seekTo(lcpcValid ? lcpc + 1 : 0);
        sourceExhausted = false;
    }
    fetchResumeCycle = curCycle;

    for (obs::EventSink *s : sinks)
        s->onRecover(curCycle, image);
}

} // namespace ppa

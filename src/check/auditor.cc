#include "check/auditor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/core.hh"
#include "mem/hierarchy.hh"
#include "ppa/checkpoint.hh"
#include "ppa/csq.hh"

namespace ppa
{
namespace check
{

std::string
AuditContext::describe() const
{
    return detail::composeMessage("audit core ", core, " cycle ", cycle,
                                  " region ", region);
}

Auditor::Auditor(Core &audited_core, MemHierarchy &mem,
                 std::shared_ptr<StoreOracle> oracle)
    : core(audited_core), memory(mem), shared(std::move(oracle))
{
    PPA_ASSERT(shared != nullptr, "auditor needs a store oracle");
    ctx.core = core.id();
}

void
Auditor::violation(const std::string &what)
{
    ++violationsSeen;
    PPA_AUDIT_ASSERT(!failFast, ctx, what);
    if (recorded.size() < maxRecorded)
        recorded.push_back({ctx, what});
}

void
Auditor::resetRegionShadow()
{
    regionStores.clear();
    liveRegs.clear();
    maskedRegs.clear();
    regionValues.clear();
    havePendingStore = false;
    pendingCsqPushSeen = false;
}

// ---------------------------------------------------------------------
// Core events
// ---------------------------------------------------------------------

void
Auditor::onCycle(Cycle cycle)
{
    ctx.cycle = cycle;
}

void
Auditor::onCommit(std::uint64_t stream_index, bool is_store)
{
    ++events;
    (void)is_store;
    if (haveLastIndex && stream_index <= lastStreamIndex) {
        violation(detail::composeMessage(
            "commit order violated: stream index ", stream_index,
            " after ", lastStreamIndex));
    }
    lastStreamIndex = stream_index;
    haveLastIndex = true;
    if (havePendingStore) {
        violation(detail::composeMessage(
            "store to 0x", std::hex, pendingStore.addr, std::dec,
            " committed without a CSQ record"));
        havePendingStore = false;
    }
}

void
Auditor::onStoreCommit(Addr addr, Word value, unsigned global_data_reg,
                       bool carries_value, bool to_io_buffer)
{
    ++events;
    if (to_io_buffer)
        return; // battery-backed device window: outside CSQ/NVM scope
    if (havePendingStore) {
        violation(detail::composeMessage(
            "store to 0x", std::hex, pendingStore.addr, std::dec,
            " committed without a CSQ record"));
    }
    pendingStore = {addr, value, global_data_reg, carries_value};
    havePendingStore = core.params().mode == PersistMode::Ppa;
    shared->record(ctx.core, MemImage::wordAlign(addr), value);
    regionValues[MemImage::wordAlign(addr)] = value;
}

void
Auditor::onAtomicCommit(Addr addr, Word value)
{
    ++events;
    // The RMW's region boundary already completed; its write persists
    // synchronously and never enters the CSQ.
    shared->record(ctx.core, MemImage::wordAlign(addr), value);
}

void
Auditor::onRegFree(unsigned global_reg)
{
    ++events;
    if (inBoundary)
        return; // deferred reclamation at the boundary is the point
    auto it = liveRegs.find(global_reg);
    if ((it != liveRegs.end() && it->second > 0) ||
        maskedRegs.count(global_reg)) {
        violation(detail::composeMessage(
            "store integrity: phys reg ", global_reg,
            " freed while pinned by the current region's CSQ"));
    }
}

void
Auditor::onRegWrite(unsigned global_reg)
{
    ++events;
    auto it = liveRegs.find(global_reg);
    if (it != liveRegs.end() && it->second > 0) {
        violation(detail::composeMessage(
            "store integrity: phys reg ", global_reg,
            " overwritten while referenced by the CSQ"));
    }
}

// ---------------------------------------------------------------------
// CSQ / MaskReg events
// ---------------------------------------------------------------------

void
Auditor::onCsqPush(const CsqEntry &entry)
{
    ++events;
    if (!havePendingStore) {
        violation("CSQ push without a committing store");
        return;
    }
    havePendingStore = false;
    if (entry.addr != pendingStore.addr ||
        entry.carriesValue != pendingStore.carriesValue) {
        violation(detail::composeMessage(
            "CSQ entry mismatches the committing store: entry addr 0x",
            std::hex, entry.addr, " vs store addr 0x",
            pendingStore.addr, std::dec));
    } else if (entry.carriesValue && entry.value != pendingStore.value) {
        violation(detail::composeMessage(
            "CSQ inline value ", entry.value,
            " mismatches the committed store value ",
            pendingStore.value));
    } else if (!entry.carriesValue &&
               entry.physRegIndex != pendingStore.globalReg) {
        violation(detail::composeMessage(
            "CSQ entry register ", entry.physRegIndex,
            " mismatches the store's data register ",
            pendingStore.globalReg));
    }
    regionStores.push_back(pendingStore);
    if (!pendingStore.carriesValue &&
        pendingStore.globalReg != csqZeroRegIndex) {
        ++liveRegs[pendingStore.globalReg];
        pendingCsqPushSeen = true; // expect the matching mask next
    }
    if (core.csqRef().size() != regionStores.size()) {
        violation(detail::composeMessage(
            "CSQ occupancy ", core.csqRef().size(),
            " diverged from the audited commit stream (",
            regionStores.size(), " stores this region)"));
    }
}

void
Auditor::onCsqClear(std::size_t entries)
{
    ++events;
    if (!inBoundary)
        violation("CSQ cleared outside a region boundary");
    if (entries != regionStores.size()) {
        violation(detail::composeMessage(
            "CSQ cleared ", entries, " entries but the region committed ",
            regionStores.size(), " stores"));
    }
}

void
Auditor::onMaskSet(unsigned global_reg)
{
    ++events;
    if (!pendingCsqPushSeen) {
        violation(detail::composeMessage(
            "MaskReg bit ", global_reg,
            " set outside a committing store's bookkeeping"));
        return;
    }
    pendingCsqPushSeen = false;
    const ShadowStore &last = regionStores.back();
    if (global_reg != last.globalReg) {
        violation(detail::composeMessage(
            "masked reg ", global_reg,
            " is not the committing store's data register ",
            last.globalReg));
    }
    maskedRegs.emplace(global_reg, true);
}

void
Auditor::onMaskClearAll(std::size_t masked)
{
    ++events;
    if (!inBoundary)
        violation("MaskReg cleared outside a region boundary");
    if (masked != maskedRegs.size()) {
        violation(detail::composeMessage(
            "MaskReg cleared ", masked, " bits but the shadow holds ",
            maskedRegs.size()));
    }
}

// ---------------------------------------------------------------------
// Region boundary
// ---------------------------------------------------------------------

void
Auditor::checkBoundaryInvariants()
{
    if (havePendingStore || pendingCsqPushSeen) {
        violation("region boundary reached with an incomplete "
                  "store-commit event sequence");
    }

    // (1) Persist-barrier condition: every persist op of the region
    // must have entered the WPQ (the L1D counter reads zero).
    if (wbOutstanding != 0) {
        violation(detail::composeMessage(
            "region boundary with ", wbOutstanding,
            " store persists not yet accepted by the WPQ"));
    }

    // (2) Mask/CSQ consistency: the masked set and the CSQ-referenced
    // set must coincide, in the shadow and in the real structures.
    for (const auto &[reg, count] : liveRegs) {
        if (count > 0 && !maskedRegs.count(reg)) {
            violation(detail::composeMessage(
                "CSQ references phys reg ", reg,
                " that is not masked at the boundary"));
        }
    }
    for (const auto &[reg, set] : maskedRegs) {
        (void)set;
        auto it = liveRegs.find(reg);
        if (it == liveRegs.end() || it->second == 0) {
            violation(detail::composeMessage(
                "masked phys reg ", reg,
                " is not referenced by any CSQ entry"));
        }
    }
    if (core.csqRef().size() != regionStores.size()) {
        violation(detail::composeMessage(
            "boundary CSQ occupancy ", core.csqRef().size(),
            " != audited region store count ", regionStores.size()));
    }
    if (core.maskRegRef().maskedCount() != maskedRegs.size()) {
        violation(detail::composeMessage(
            "boundary MaskReg population ",
            core.maskRegRef().maskedCount(), " != audited mask count ",
            maskedRegs.size()));
    }

    // (3) Value-exact persistence: every address the region stored
    // must read back its committed value from the NVM image (skipping
    // addresses another core wrote since — no single expected value).
    for (const auto &[addr, value] : regionValues) {
        (void)value;
        auto it = shared->contents().find(addr);
        if (it == shared->contents().end())
            continue;
        const StoreOracle::Rec &rec = it->second;
        if (rec.conflicted || rec.core != ctx.core)
            continue;
        Word persisted = memory.nvmImage().read(addr);
        if (persisted != rec.value) {
            violation(detail::composeMessage(
                "persisted value 0x", std::hex, persisted,
                " at address 0x", addr,
                " mismatches the committed value 0x", rec.value,
                std::dec, " at the region boundary"));
        }
    }
}

void
Auditor::onRegionBoundaryStart(Cycle, RegionEndCause)
{
    ++events;
    checkBoundaryInvariants();
    inBoundary = true;
}

void
Auditor::onRegionBoundaryComplete()
{
    ++events;
    PPA_AUDIT_ASSERT(inBoundary, ctx,
                     "boundary completion without a boundary start");
    if (!core.csqRef().empty())
        violation("CSQ not empty after the region boundary");
    if (!core.maskRegRef().empty())
        violation("MaskReg not empty after the region boundary");
    resetRegionShadow();
    inBoundary = false;
    ++ctx.region;
}

// ---------------------------------------------------------------------
// Write buffer events
// ---------------------------------------------------------------------

void
Auditor::onPersistEnqueue(Addr addr, Word value, bool coalesced)
{
    ++events;
    (void)addr;
    (void)value;
    (void)coalesced;
    ++wbOutstanding;
}

void
Auditor::onPersistIssue(Addr line_addr, unsigned store_count)
{
    ++events;
    (void)line_addr;
    PPA_AUDIT_ASSERT(store_count <= wbOutstanding, ctx,
                     "write buffer issued ", store_count,
                     " stores with only ", wbOutstanding,
                     " outstanding");
    wbOutstanding -= store_count;
}

// ---------------------------------------------------------------------
// Checkpoint / recovery
// ---------------------------------------------------------------------

void
Auditor::auditCheckpointImage(const CheckpointImage &image)
{
    if (!image.valid) {
        violation("power failure captured an invalid checkpoint image");
        return;
    }
    if (image.anyCommitted != haveLastIndex ||
        (haveLastIndex && image.lcpc != lastStreamIndex)) {
        violation(detail::composeMessage(
            "checkpoint LCPC ", image.lcpc,
            " mismatches the last committed stream index ",
            lastStreamIndex));
    }
    if (image.csq.size() != regionStores.size()) {
        violation(detail::composeMessage(
            "checkpoint CSQ holds ", image.csq.size(),
            " entries; the current region committed ",
            regionStores.size(), " stores"));
        return;
    }
    if (image.maskBits.count() != maskedRegs.size()) {
        violation(detail::composeMessage(
            "checkpoint MaskReg population ", image.maskBits.count(),
            " != audited mask count ", maskedRegs.size()));
    }
    for (std::size_t i = 0; i < image.csq.size(); ++i) {
        const CsqEntry &entry = image.csq[i];
        const ShadowStore &shadow = regionStores[i];
        if (entry.addr != shadow.addr ||
            entry.carriesValue != shadow.carriesValue ||
            (!entry.carriesValue &&
             entry.physRegIndex != shadow.globalReg)) {
            violation(detail::composeMessage(
                "checkpoint CSQ entry ", i,
                " mismatches the audited commit order"));
            continue;
        }
        // Store integrity, materialized: the checkpoint must carry the
        // exact committed value for every register-carried entry.
        if (entry.carriesValue) {
            if (entry.value != shadow.value) {
                violation(detail::composeMessage(
                    "checkpoint CSQ entry ", i, " inline value ",
                    entry.value, " != committed value ", shadow.value));
            }
            continue;
        }
        if (entry.physRegIndex == csqZeroRegIndex) {
            if (shadow.value != 0) {
                violation(detail::composeMessage(
                    "checkpoint CSQ entry ", i,
                    " claims an architectural zero for committed value ",
                    shadow.value));
            }
            continue;
        }
        if (!image.maskBits.test(entry.physRegIndex)) {
            violation(detail::composeMessage(
                "checkpointed CSQ entry ", i, " references phys reg ",
                entry.physRegIndex, " that is not masked"));
        }
        auto it = image.physRegValues.find(entry.physRegIndex);
        if (it == image.physRegValues.end()) {
            violation(detail::composeMessage(
                "checkpoint lacks the value of CSQ-referenced phys "
                "reg ",
                entry.physRegIndex));
        } else if (it->second != shadow.value) {
            violation(detail::composeMessage(
                "store integrity lost before the checkpoint: phys "
                "reg ",
                entry.physRegIndex, " holds 0x", std::hex, it->second,
                ", store committed 0x", shadow.value, std::dec));
        }
    }
}

void
Auditor::onPowerFail(Cycle, const CheckpointImage &image)
{
    ++events;
    auditCheckpointImage(image);
}

void
Auditor::resyncFromImage(const CheckpointImage &image)
{
    resetRegionShadow();
    inBoundary = false;
    wbOutstanding = 0;
    haveLastIndex = image.anyCommitted;
    lastStreamIndex = image.lcpc;
    image.maskBits.forEachSet([&](std::size_t g) {
        maskedRegs.emplace(static_cast<unsigned>(g), true);
    });
    for (const CsqEntry &entry : image.csq) {
        ShadowStore s;
        s.addr = entry.addr;
        s.carriesValue = entry.carriesValue;
        s.globalReg = entry.physRegIndex;
        if (entry.carriesValue) {
            s.value = entry.value;
        } else if (entry.physRegIndex == csqZeroRegIndex) {
            s.value = 0;
        } else {
            auto it = image.physRegValues.find(entry.physRegIndex);
            s.value = it == image.physRegValues.end() ? 0 : it->second;
            ++liveRegs[entry.physRegIndex];
        }
        regionStores.push_back(s);
        regionValues[MemImage::wordAlign(s.addr)] = s.value;
    }
}

void
Auditor::onRecover(Cycle, const CheckpointImage &image)
{
    ++events;
    resyncFromImage(image);
}

ReplayAuditResult
Auditor::verifyReplay() const
{
    ReplayAuditResult res;
    for (const auto &[addr, rec] : shared->contents()) {
        if (rec.conflicted || rec.core != ctx.core)
            continue;
        ++res.addrsChecked;
        Word replayed = memory.nvmImage().read(addr);
        if (replayed != rec.value) {
            ++res.mismatches;
            if (res.mismatchedAddrs.size() < 16)
                res.mismatchedAddrs.push_back(addr);
        }
    }
    return res;
}

} // namespace check
} // namespace ppa

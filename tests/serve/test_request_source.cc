/** @file Tests for the streaming transaction-request source. */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "isa/semantics.hh"
#include "serve/request_source.hh"

using namespace ppa;
using namespace ppa::serve;

namespace
{

RequestStreamConfig
smallConfig(ServeWorkload w)
{
    RequestStreamConfig cfg;
    cfg.workload = w;
    cfg.requests = 50;
    cfg.keys = 64;
    cfg.skew = 0.99;
    cfg.readPct = 50;
    cfg.seed = 9;
    cfg.dataBase = 0x10000;
    cfg.ackAddr = 0x8000;
    cfg.scratchAddr = 0x8100;
    return cfg;
}

std::vector<DynInst>
drain(RequestSource &src)
{
    std::vector<DynInst> out;
    DynInst di;
    while (src.next(di))
        out.push_back(di);
    return out;
}

void
expectSameInst(const DynInst &a, const DynInst &b, std::size_t i)
{
    ASSERT_EQ(a.index, b.index) << "inst " << i;
    ASSERT_EQ(a.op, b.op) << "inst " << i;
    ASSERT_EQ(a.dst, b.dst) << "inst " << i;
    for (int s = 0; s < maxSrcRegs; ++s)
        ASSERT_EQ(a.srcs[s], b.srcs[s]) << "inst " << i;
    ASSERT_EQ(a.imm, b.imm) << "inst " << i;
    ASSERT_EQ(a.memAddr, b.memAddr) << "inst " << i;
}

} // namespace

TEST(RequestSource, Tokens)
{
    EXPECT_STREQ(serveWorkloadToken(ServeWorkload::Tatp), "tatp");
    EXPECT_STREQ(serveWorkloadToken(ServeWorkload::Tpcc), "tpcc");
    EXPECT_STREQ(serveWorkloadToken(ServeWorkload::Kv), "kv");
    ServeWorkload w;
    EXPECT_TRUE(serveWorkloadFromToken("tpcc", w));
    EXPECT_EQ(w, ServeWorkload::Tpcc);
    EXPECT_FALSE(serveWorkloadFromToken("ycsb", w));
}

TEST(RequestSource, IdenticalConfigsProduceIdenticalStreams)
{
    for (ServeWorkload w :
         {ServeWorkload::Tatp, ServeWorkload::Tpcc, ServeWorkload::Kv}) {
        RequestSource a(smallConfig(w));
        RequestSource b(smallConfig(w));
        auto sa = drain(a);
        auto sb = drain(b);
        ASSERT_EQ(sa.size(), sb.size());
        ASSERT_FALSE(sa.empty());
        for (std::size_t i = 0; i < sa.size(); ++i)
            expectSameInst(sa[i], sb[i], i);
    }
}

TEST(RequestSource, GoldenMemoryMatchesStreamReplay)
{
    // The source's incremental golden state must equal a from-scratch
    // golden run over the stream it handed out — the property that
    // makes the simulated cores' re-executed dataflow checkable.
    for (ServeWorkload w :
         {ServeWorkload::Tatp, ServeWorkload::Tpcc, ServeWorkload::Kv}) {
        RequestSource src(smallConfig(w));
        auto stream = drain(src);
        GoldenResult golden = runGolden(stream, MemImage{});
        EXPECT_TRUE(golden.mem.sameContents(src.goldenMemory()))
            << serveWorkloadToken(w);
        EXPECT_EQ(golden.instCount, src.generatedInsts());
    }
}

TEST(RequestSource, AckSequenceCountsRequests)
{
    RequestStreamConfig cfg = smallConfig(ServeWorkload::Tatp);
    RequestSource src(cfg);
    auto stream = drain(src);
    // Replay instruction by instruction: every store to the ack word
    // must advance the sequence number by exactly one, starting at 1.
    ArchState state;
    MemImage mem;
    Word last_seq = 0;
    for (const DynInst &di : stream) {
        applyDynInst(di, state, mem);
        if (di.isStore() &&
            di.memAddr == MemImage::wordAlign(cfg.ackAddr)) {
            Word seq = mem.read(cfg.ackAddr);
            EXPECT_EQ(seq, last_seq + 1);
            last_seq = seq;
        }
    }
    EXPECT_EQ(last_seq, cfg.requests);
    EXPECT_EQ(src.generatedRequests(), cfg.requests);
}

TEST(RequestSource, TatpBlockLengthIsFixed)
{
    RequestStreamConfig cfg = smallConfig(ServeWorkload::Tatp);
    RequestSource src(cfg);
    auto stream = drain(src);
    // 9 transaction instructions + 3 ack instructions per request,
    // straight-line (branchless by construction).
    EXPECT_EQ(stream.size(), cfg.requests * 12);
    for (const DynInst &di : stream)
        EXPECT_FALSE(di.isBranch());
}

TEST(RequestSource, StoresStayInsideTheStreamRegions)
{
    RequestStreamConfig cfg = smallConfig(ServeWorkload::Kv);
    RequestSource src(cfg);
    auto stream = drain(src);
    Addr data_lo = cfg.dataBase;
    Addr data_hi = cfg.dataBase + cfg.keys * 128;
    for (const DynInst &di : stream) {
        if (!di.isStore())
            continue;
        bool in_data = di.memAddr >= data_lo && di.memAddr < data_hi;
        bool is_ack = di.memAddr == MemImage::wordAlign(cfg.ackAddr);
        bool is_scratch =
            di.memAddr == MemImage::wordAlign(cfg.scratchAddr);
        EXPECT_TRUE(in_data || is_ack || is_scratch)
            << "stray store to " << std::hex << di.memAddr;
    }
}

TEST(RequestSource, SeekToReplaysIdenticalInstructions)
{
    RequestSource src(smallConfig(ServeWorkload::Tpcc));
    std::vector<DynInst> first;
    DynInst di;
    for (int i = 0; i < 240; ++i) {
        ASSERT_TRUE(src.next(di));
        first.push_back(di);
    }
    // Seek back across several request boundaries (recovery's
    // LCPC + 1 resume) and re-read; the ring must hand back the same
    // instructions.
    src.seekTo(100);
    for (std::size_t i = 100; i < first.size(); ++i) {
        ASSERT_TRUE(src.next(di));
        expectSameInst(di, first[i], i);
    }
}

TEST(RequestSource, SeekDoesNotPerturbGeneration)
{
    // A source that seeks mid-stream must still generate the same
    // suffix as one that never seeks: generation state (rng, golden
    // memory) is independent of the read cursor.
    RequestSource plain(smallConfig(ServeWorkload::Kv));
    RequestSource seeky(smallConfig(ServeWorkload::Kv));
    auto expect = drain(plain);
    DynInst di;
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(seeky.next(di));
    seeky.seekTo(10);
    seeky.seekTo(64);
    std::vector<DynInst> got;
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(seeky.next(di));
        got.push_back(di);
    }
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameInst(got[i], expect[64 + i], 64 + i);
}

TEST(RequestSource, RecycledHistoryRingMatchesFreshRing)
{
    // A freed source's history ring goes to a per-thread pool and the
    // next source takes it, stale instructions included. Reads and
    // backward seeks must only ever see this source's own pushes. Runs
    // on a new thread, whose pool starts empty.
    std::thread([] {
        {
            RequestStreamConfig other = smallConfig(ServeWorkload::Kv);
            other.seed = 77;
            other.requests = 4'000;
            RequestSource prior(other);
            drain(prior);
        } // freed: its ring goes to this thread's pool
        RequestSource reused(smallConfig(ServeWorkload::Tpcc));
        RequestSource fresh(smallConfig(ServeWorkload::Tpcc));
        auto read = [](RequestSource &src) {
            std::vector<DynInst> out;
            DynInst di;
            for (int i = 0; i < 240 && src.next(di); ++i)
                out.push_back(di);
            src.seekTo(0);
            for (DynInst &d : drain(src))
                out.push_back(d);
            return out;
        };
        std::vector<DynInst> x = read(reused);
        std::vector<DynInst> y = read(fresh);
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            expectSameInst(x[i], y[i], i);
    }).join();
}

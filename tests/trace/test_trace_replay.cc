/** @file Record→replay tests: trace capture, streaming replay, verify. */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/capture.hh"
#include "trace/reader.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace ppa;
namespace fs = std::filesystem;

namespace
{

/** Fresh scratch directory under the test temp root. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / "ppa_trace_tests" / name;
    fs::remove_all(dir);
    fs::create_directories(dir.parent_path());
    return dir.string();
}

void
expectSameInst(const DynInst &a, const DynInst &b, std::uint64_t at)
{
    EXPECT_EQ(a.index, b.index) << "at " << at;
    EXPECT_EQ(a.pc, b.pc) << "at " << at;
    EXPECT_EQ(a.op, b.op) << "at " << at;
    EXPECT_EQ(a.dst, b.dst) << "at " << at;
    for (int s = 0; s < maxSrcRegs; ++s)
        EXPECT_EQ(a.srcs[s], b.srcs[s]) << "at " << at << " src " << s;
    EXPECT_EQ(a.imm, b.imm) << "at " << at;
    EXPECT_EQ(a.memAddr, b.memAddr) << "at " << at;
    EXPECT_EQ(a.taken, b.taken) << "at " << at;
}

/** Strip the provenance block so trace and direct runs compare equal. */
std::string
statsJsonSansProvenance(RunStats rs)
{
    rs.traceDir.clear();
    rs.traceShards = 0;
    rs.traceInsts = 0;
    rs.traceCrc = 0;
    return metrics::runStatsToJson(rs);
}

} // namespace

TEST(TraceReplay, RecordedStreamMatchesGeneratorBitwise)
{
    const std::string dir = scratchDir("bitwise");
    const auto &p = profileByName("gcc");
    trace::CaptureSpec spec;
    spec.seed = 5;
    spec.instsPerThread = 6000;
    spec.shardInsts = 2048; // force several shards
    spec.blockInsts = 256;
    auto summary = trace::recordWorkloadTrace(dir, p, spec);
    EXPECT_EQ(summary.totalInsts, 6000u);
    EXPECT_GT(summary.shardCount, 1u);

    auto set = trace::TraceSet::openOrDie(dir);
    EXPECT_EQ(set.metadata().app, "gcc");
    EXPECT_EQ(set.metadata().seed, 5u);
    EXPECT_EQ(set.metadata().threads, 1u);
    EXPECT_EQ(set.threadInsts(0), 6000u);
    EXPECT_EQ(set.combinedCrc(), summary.combinedCrc);

    trace::TraceReplaySource replay(set, 0);
    StreamGenerator gen(p, 0, spec.seed, spec.instsPerThread);
    DynInst a, b;
    std::uint64_t n = 0;
    while (gen.next(a)) {
        ASSERT_TRUE(replay.next(b)) << "trace ended early at " << n;
        expectSameInst(b, a, n);
        ++n;
    }
    EXPECT_EQ(n, 6000u);
    EXPECT_FALSE(replay.next(b)) << "trace longer than generator";
}

TEST(TraceReplay, SeekToMatchesGeneratorSeek)
{
    const std::string dir = scratchDir("seek");
    const auto &p = profileByName("mcf");
    trace::CaptureSpec spec;
    spec.seed = 9;
    spec.instsPerThread = 4000;
    spec.shardInsts = 1024;
    spec.blockInsts = 128;
    trace::recordWorkloadTrace(dir, p, spec);

    auto set = trace::TraceSet::openOrDie(dir);
    trace::TraceReplaySource replay(set, 0);
    StreamGenerator gen(p, 0, spec.seed, spec.instsPerThread);

    // Forward, backward, block-boundary, and shard-boundary targets;
    // exactly the motions power-failure recovery performs.
    const std::uint64_t targets[] = {100, 1024, 127, 128, 3999, 0, 2500};
    DynInst a, b;
    for (std::uint64_t t : targets) {
        replay.seekTo(t);
        gen.seekTo(t);
        std::uint64_t checked = 0;
        for (std::uint64_t i = t;
             i < spec.instsPerThread && checked < 300; ++i, ++checked) {
            ASSERT_TRUE(gen.next(a));
            ASSERT_TRUE(replay.next(b)) << "target " << t << " at " << i;
            expectSameInst(b, a, i);
        }
    }
}

TEST(TraceReplay, VerifyDetectsCorruptionTruncationAndMissingShard)
{
    const std::string dir = scratchDir("verify");
    const auto &p = profileByName("gcc");
    trace::CaptureSpec spec;
    spec.seed = 3;
    spec.instsPerThread = 3000;
    spec.shardInsts = 1024;
    spec.blockInsts = 256;
    trace::recordWorkloadTrace(dir, p, spec);

    auto clean = trace::verifyTrace(dir);
    ASSERT_TRUE(clean.ok) << (clean.errors.empty() ? ""
                                                   : clean.errors[0]);
    EXPECT_EQ(clean.totalInsts, 3000u);
    EXPECT_GT(clean.shardCount, 1u);

    const fs::path shard =
        fs::path(dir) / trace::shardFileName(0, 0);
    ASSERT_TRUE(fs::exists(shard));
    std::vector<char> original(fs::file_size(shard));
    {
        std::ifstream in(shard, std::ios::binary);
        in.read(original.data(),
                static_cast<std::streamsize>(original.size()));
    }

    auto writeShard = [&](const std::vector<char> &bytes) {
        std::ofstream out(shard, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // One flipped payload byte must fail the CRC.
    auto corrupt = original;
    corrupt[trace::shardHeaderBytes + 7] ^= 0x01;
    writeShard(corrupt);
    auto res = trace::verifyTrace(dir);
    EXPECT_FALSE(res.ok);
    ASSERT_FALSE(res.errors.empty());

    // Truncation must fail structurally.
    auto truncated = original;
    truncated.resize(truncated.size() / 2);
    writeShard(truncated);
    EXPECT_FALSE(trace::verifyTrace(dir).ok);

    // A missing shard file must be reported, not skipped.
    fs::remove(shard);
    EXPECT_FALSE(trace::verifyTrace(dir).ok);

    // Restoring the original bytes makes the trace verify again.
    writeShard(original);
    EXPECT_TRUE(trace::verifyTrace(dir).ok);
}

TEST(TraceReplay, LoadRejectsCorruptManifestGracefully)
{
    // The fuzzer records every violating run, so manifest-parsing is a
    // load-bearing garbage-in path: every corruption must come back as
    // a clean load failure with a diagnostic, never a throw or abort.
    const std::string dir = scratchDir("manifest");
    const auto &p = profileByName("gcc");
    trace::CaptureSpec spec;
    spec.seed = 3;
    spec.instsPerThread = 1000;
    trace::recordWorkloadTrace(dir, p, spec);

    const fs::path manifest = fs::path(dir) / trace::manifestFileName;
    std::string original;
    {
        std::ifstream in(manifest);
        std::stringstream ss;
        ss << in.rdbuf();
        original = ss.str();
    }

    auto writeManifest = [&](const std::string &text) {
        std::ofstream out(manifest, std::ios::trunc);
        out << text;
    };
    auto expectLoadFails = [&](const std::string &text,
                               const std::string &needle) {
        writeManifest(text);
        trace::TraceSet set;
        std::string error;
        EXPECT_FALSE(set.load(dir, error)) << text;
        EXPECT_NE(error.find(needle), std::string::npos) << error;
    };

    // Garbage in the crc32 hex field (used to throw std::invalid_argument
    // out of std::stoul and abort the process).
    auto corruptCrc = [&](const std::string &repl) {
        std::string text = original;
        auto at = text.find("shard ");
        EXPECT_NE(at, std::string::npos);
        auto eol = text.find('\n', at);
        auto sp = text.rfind(' ', eol);
        return text.substr(0, sp + 1) + repl + text.substr(eol);
    };
    expectLoadFails(corruptCrc("nothex!"), "crc32");
    expectLoadFails(corruptCrc(""), "malformed");
    // Overflow past 32 bits must be rejected, not silently truncated.
    expectLoadFails(corruptCrc("1ffffffff"), "crc32");

    // Zero-length manifest and truncated manifest (no 'end' sentinel).
    expectLoadFails("", "header");
    auto endAt = original.rfind("end");
    ASSERT_NE(endAt, std::string::npos);
    expectLoadFails(original.substr(0, endAt), "end");

    // The pristine text still loads.
    writeManifest(original);
    trace::TraceSet set;
    std::string error;
    EXPECT_TRUE(set.load(dir, error)) << error;
}

TEST(TraceReplay, VerifyRejectsZeroLengthAndCorruptFooterShard)
{
    const std::string dir = scratchDir("zerolen");
    const auto &p = profileByName("gcc");
    trace::CaptureSpec spec;
    spec.seed = 3;
    spec.instsPerThread = 1000;
    trace::recordWorkloadTrace(dir, p, spec);
    ASSERT_TRUE(trace::verifyTrace(dir).ok);

    const fs::path shard = fs::path(dir) / trace::shardFileName(0, 0);
    std::vector<char> original(fs::file_size(shard));
    {
        std::ifstream in(shard, std::ios::binary);
        in.read(original.data(),
                static_cast<std::streamsize>(original.size()));
    }
    auto writeShard = [&](const std::vector<char> &bytes) {
        std::ofstream out(shard, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // A zero-length shard file must verify-fail cleanly.
    writeShard({});
    auto res = trace::verifyTrace(dir);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.errors.empty());

    // A corrupted footer magic must be a structural error.
    auto corrupt = original;
    corrupt[corrupt.size() - 1] ^= 0xFF;
    writeShard(corrupt);
    res = trace::verifyTrace(dir);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.errors.empty());

    writeShard(original);
    EXPECT_TRUE(trace::verifyTrace(dir).ok);
}

TEST(TraceReplay, RunStatsBitwiseIdenticalToDirectRun)
{
    const std::string dir = scratchDir("runstats");
    const auto &p = profileByName("gcc");
    ExperimentKnobs knobs;
    knobs.instsPerCore = 8000;
    knobs.seed = 42;

    trace::CaptureSpec spec;
    spec.seed = knobs.seed;
    spec.instsPerThread = knobs.instsPerCore;
    trace::recordWorkloadTrace(dir, p, spec);

    RunStats direct = runWorkload(p, SystemVariant::Ppa, knobs);
    ExperimentKnobs traced = knobs;
    traced.traceDir = dir;
    RunStats replayed = runWorkload(p, SystemVariant::Ppa, traced);

    EXPECT_EQ(replayed.traceDir, dir);
    EXPECT_GT(replayed.traceShards, 0u);
    EXPECT_EQ(replayed.traceInsts, 8000u);
    EXPECT_EQ(statsJsonSansProvenance(replayed),
              statsJsonSansProvenance(direct));
}

TEST(TraceReplay, FailureInjectionReplayIdenticalToDirectRun)
{
    // The acceptance oracle: a replayed trace must survive mid-trace
    // power failures (checkpoint, recover, seekTo) and still produce
    // bitwise the same audited RunStats as the generator-driven run.
    const std::string dir = scratchDir("failure");
    const auto &p = profileByName("gcc");
    ExperimentKnobs knobs;
    knobs.instsPerCore = 8000;
    knobs.seed = 42;
    knobs.audit = true;
    knobs.failAtCycles = {3000, 7000};

    trace::CaptureSpec spec;
    spec.seed = knobs.seed;
    spec.instsPerThread = knobs.instsPerCore;
    spec.shardInsts = 4096; // failures land in different shards
    spec.blockInsts = 512;
    trace::recordWorkloadTrace(dir, p, spec);

    RunStats direct = runWorkload(p, SystemVariant::Ppa, knobs);
    ExperimentKnobs traced = knobs;
    traced.traceDir = dir;
    RunStats replayed = runWorkload(p, SystemVariant::Ppa, traced);

    EXPECT_EQ(replayed.powerFailures, 2u);
    EXPECT_EQ(replayed.auditViolations, 0u);
    EXPECT_EQ(replayed.replayMismatches, 0u);
    EXPECT_EQ(statsJsonSansProvenance(replayed),
              statsJsonSansProvenance(direct));
}

TEST(TraceReplay, MultithreadedReplayIdenticalToDirectRun)
{
    const std::string dir = scratchDir("multithread");
    const auto &p = profileByName("genome"); // 8-thread STAMP profile
    ASSERT_EQ(p.defaultThreads, 8u);
    ExperimentKnobs knobs;
    knobs.instsPerCore = 1500;
    knobs.seed = 42;

    trace::CaptureSpec spec;
    spec.seed = knobs.seed;
    spec.instsPerThread = knobs.instsPerCore;
    trace::recordWorkloadTrace(dir, p, spec);

    auto set = trace::TraceSet::openOrDie(dir);
    EXPECT_EQ(set.metadata().threads, 8u);

    RunStats direct = runWorkload(p, SystemVariant::Ppa, knobs);
    ExperimentKnobs traced = knobs;
    traced.traceDir = dir;
    RunStats replayed = runWorkload(p, SystemVariant::Ppa, traced);
    EXPECT_EQ(statsJsonSansProvenance(replayed),
              statsJsonSansProvenance(direct));
}

TEST(TraceReplay, MismatchedKnobsAreFatal)
{
    // A trace pins the workload identity; running it under different
    // thread or length knobs is a configuration error, not a quieter
    // experiment.
    const std::string dir = scratchDir("mismatch");
    const auto &p = profileByName("gcc");
    trace::CaptureSpec spec;
    spec.seed = 42;
    spec.instsPerThread = 2000;
    trace::recordWorkloadTrace(dir, p, spec);

    ExperimentKnobs knobs;
    knobs.traceDir = dir;
    knobs.instsPerCore = 2001;
    EXPECT_DEATH(
        { runWorkload(p, SystemVariant::Ppa, knobs); }, "trace");
    knobs.instsPerCore = 2000;
    knobs.threads = 2;
    EXPECT_DEATH(
        { runWorkload(p, SystemVariant::Ppa, knobs); }, "trace");
}

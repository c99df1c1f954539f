/**
 * @file
 * Trace replay: load a trace directory's manifest, stream its shards
 * through the core, and verify on-disk integrity.
 *
 * TraceReplaySource is the trace-driven counterpart of
 * StreamGenerator: one per recorded thread, feeding the core through
 * the DynInstSource interface. Decoding runs on a background prefetch
 * thread that stays one block ahead of the core (double buffering), so
 * replay throughput tracks generator-driven simulation.
 */

#ifndef PPA_TRACE_READER_HH
#define PPA_TRACE_READER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "isa/source.hh"
#include "trace/writer.hh"

namespace ppa
{
namespace trace
{

/**
 * A trace directory's manifest: identity plus the shard index.
 * Immutable once loaded; shared by all per-thread replay sources.
 */
class TraceSet
{
  public:
    /**
     * Parse the manifest in @p dir.
     * @return false with @p error set on a missing or malformed
     *         manifest (non-fatal: `trace verify` reports it).
     */
    bool load(const std::string &dir, std::string &error);

    /** Like load(), but fatal on failure (replay/CLI paths). */
    static TraceSet openOrDie(const std::string &dir);

    const std::string &directory() const { return dir; }
    const TraceMeta &metadata() const { return meta; }
    const std::vector<ShardInfo> &allShards() const { return shards; }

    /** Shards of @p thread, in stream order. */
    const std::vector<ShardInfo> &threadShards(unsigned thread) const;

    /** Committed-path length of @p thread. */
    std::uint64_t threadInsts(unsigned thread) const;

    /** Order-sensitive fingerprint over all shard CRCs. */
    std::uint32_t combinedCrc() const { return combineShardCrcs(shards); }

  private:
    std::string dir;
    TraceMeta meta;
    std::vector<ShardInfo> shards;
    std::vector<std::vector<ShardInfo>> byThread;
};

/**
 * DynInstSource that replays one recorded thread of a TraceSet.
 *
 * A background producer thread reads shard files and decodes blocks
 * into a bounded two-deep buffer queue; next() drains decoded buffers
 * without touching the disk or the varint decoder. seekTo() (used by
 * power-failure recovery) discards in-flight buffers via a generation
 * counter and repositions the producer at the enclosing block.
 *
 * Corrupt or unreadable shards are fatal here — run `trace verify`
 * for a diagnosis instead of trusting a damaged replay.
 */
class TraceReplaySource : public DynInstSource
{
  public:
    TraceReplaySource(const TraceSet &set, unsigned thread);
    ~TraceReplaySource() override;

    TraceReplaySource(const TraceReplaySource &) = delete;
    TraceReplaySource &operator=(const TraceReplaySource &) = delete;

    bool next(DynInst &out) override;
    void seekTo(std::uint64_t index) override;

  private:
    /** One decoded block in flight between producer and consumer. */
    struct Buffer
    {
        std::uint64_t gen = 0;
        std::uint64_t firstIndex = 0;
        bool last = false; ///< end-of-trace sentinel
        std::vector<DynInst> insts;
    };

    void producerLoop();
    Buffer decodeBlockAt(std::uint64_t index);

    const TraceSet &set;
    const unsigned thread;
    const std::uint64_t totalInsts;

    // Consumer-side cursor (only touched from the core's thread).
    std::uint64_t cursor = 0;
    Buffer current;
    std::size_t offset = 0;
    bool haveCurrent = false;
    bool exhausted = false;

    // Producer-side shard cache (only touched from the producer).
    int cachedShard = -1;
    std::vector<std::uint8_t> shardImage;
    ShardHeader shardHeader;
    ShardFooter shardFooter;

    // Shared state.
    std::mutex mu;
    std::condition_variable cvProducer;
    std::condition_variable cvConsumer;
    std::deque<Buffer> queue;
    std::uint64_t gen = 0;
    std::uint64_t seekTarget = 0;
    bool stopping = false;
    std::thread producer;

    static constexpr std::size_t queueDepth = 2;
};

/** Outcome of verifyTrace(). */
struct VerifyResult
{
    bool ok = false;
    std::vector<std::string> errors;
    std::uint64_t totalInsts = 0;
    unsigned shardCount = 0;
    std::uint32_t combinedCrc = 0;
};

/**
 * Exhaustively check a trace directory: manifest syntax, shard
 * presence, header/footer structure, payload CRC32, and a full decode
 * of every block (record syntax + per-block instruction counts).
 * Never fatal — all problems land in VerifyResult::errors.
 */
VerifyResult verifyTrace(const std::string &dir);

} // namespace trace
} // namespace ppa

#endif // PPA_TRACE_READER_HH

#include "trace/reader.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace ppa
{
namespace trace
{

namespace
{

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return false;
    std::streamsize size = is.tellg();
    is.seekg(0);
    out.resize(static_cast<std::size_t>(size));
    if (size > 0)
        is.read(reinterpret_cast<char *>(out.data()), size);
    return static_cast<bool>(is);
}

/** Payload byte count of a parsed shard image. */
std::size_t
payloadBytes(const std::vector<std::uint8_t> &image,
             const ShardFooter &footer)
{
    std::size_t footer_bytes = 16 + 8 * footer.blockOffsets.size();
    return image.size() - shardHeaderBytes - footer_bytes;
}

/**
 * Strict hex parse of a manifest CRC field. Unlike std::stoul this
 * never throws: empty input, non-hex characters, trailing garbage,
 * and values past 32 bits all return false — a corrupt manifest must
 * surface as a diagnostic, not an uncaught exception.
 */
bool
parseHexCrc(const std::string &text, std::uint32_t &out)
{
    if (text.empty())
        return false;
    for (char ch : text) {
        bool hex = (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f') ||
                   (ch >= 'A' && ch <= 'F');
        if (!hex)
            return false;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 16);
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        v > 0xFFFFFFFFull)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Instructions in block @p b of a shard with @p header. */
std::uint64_t
blockInstCount(const ShardHeader &header, std::size_t b)
{
    std::uint64_t first = static_cast<std::uint64_t>(b) * header.blockInsts;
    return std::min<std::uint64_t>(header.blockInsts,
                                   header.count - first);
}

} // namespace

// ---------------------------------------------------------------------
// TraceSet
// ---------------------------------------------------------------------

bool
TraceSet::load(const std::string &dir_, std::string &error)
{
    dir = dir_;
    shards.clear();
    byThread.clear();

    std::string path = dir + "/" + manifestFileName;
    std::ifstream is(path);
    if (!is) {
        error = "cannot open trace manifest '" + path + "'";
        return false;
    }

    auto failLoad = [&](const std::string &what) {
        error = "trace manifest '" + path + "': " + what;
        return false;
    };

    std::string line;
    if (!std::getline(is, line) || line != manifestHeaderLine)
        return failLoad("missing or unsupported header line (expected '" +
                        std::string(manifestHeaderLine) + "')");

    bool sawEnd = false;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (sawEnd)
            return failLoad("content after 'end' sentinel");
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "app") {
            ls >> meta.app;
        } else if (key == "seed") {
            ls >> meta.seed;
        } else if (key == "threads") {
            ls >> meta.threads;
        } else if (key == "instsPerThread") {
            ls >> meta.instsPerThread;
        } else if (key == "shardInsts") {
            ls >> meta.shardInsts;
        } else if (key == "blockInsts") {
            ls >> meta.blockInsts;
        } else if (key == "shard") {
            ShardInfo s;
            std::string crcHex;
            ls >> s.thread >> s.seq >> s.file >> s.firstIndex >> s.count >>
                crcHex;
            if (!ls)
                return failLoad("malformed shard line: '" + line + "'");
            if (!parseHexCrc(crcHex, s.crc32))
                return failLoad("shard line has a malformed crc32 "
                                "field '" + crcHex + "'");
            shards.push_back(std::move(s));
            continue; // shard lines carry >1 token; skip the check below
        } else if (key == "end") {
            sawEnd = true;
            continue;
        } else {
            return failLoad("unknown key '" + key + "'");
        }
        if (!ls)
            return failLoad("malformed line: '" + line + "'");
    }
    if (!sawEnd)
        return failLoad("missing 'end' sentinel (truncated manifest)");
    if (meta.threads == 0 || meta.blockInsts == 0)
        return failLoad("zero threads or blockInsts");

    byThread.assign(meta.threads, {});
    for (const ShardInfo &s : shards) {
        if (s.thread >= meta.threads)
            return failLoad("shard thread id out of range");
        byThread[s.thread].push_back(s);
    }
    for (unsigned t = 0; t < meta.threads; ++t) {
        std::uint64_t expectIndex = 0;
        unsigned expectSeq = 0;
        for (const ShardInfo &s : byThread[t]) {
            if (s.seq != expectSeq || s.firstIndex != expectIndex)
                return failLoad("thread " + std::to_string(t) +
                                " shards not contiguous");
            ++expectSeq;
            expectIndex += s.count;
        }
        if (expectIndex != meta.instsPerThread)
            return failLoad("thread " + std::to_string(t) + " has " +
                            std::to_string(expectIndex) +
                            " insts, manifest says " +
                            std::to_string(meta.instsPerThread));
    }
    error.clear();
    return true;
}

TraceSet
TraceSet::openOrDie(const std::string &dir)
{
    TraceSet set;
    std::string error;
    if (!set.load(dir, error))
        fatal(error);
    return set;
}

const std::vector<ShardInfo> &
TraceSet::threadShards(unsigned thread) const
{
    PPA_ASSERT(thread < byThread.size(), "thread ", thread,
               " out of range");
    return byThread[thread];
}

std::uint64_t
TraceSet::threadInsts(unsigned thread) const
{
    std::uint64_t n = 0;
    for (const ShardInfo &s : threadShards(thread))
        n += s.count;
    return n;
}

// ---------------------------------------------------------------------
// TraceReplaySource
// ---------------------------------------------------------------------

TraceReplaySource::TraceReplaySource(const TraceSet &set_, unsigned thread_)
    : set(set_), thread(thread_), totalInsts(set_.threadInsts(thread_))
{
    producer = std::thread([this] { producerLoop(); });
}

TraceReplaySource::~TraceReplaySource()
{
    {
        std::lock_guard<std::mutex> l(mu);
        stopping = true;
    }
    cvProducer.notify_one();
    producer.join();
}

TraceReplaySource::Buffer
TraceReplaySource::decodeBlockAt(std::uint64_t index)
{
    const std::vector<ShardInfo> &list = set.threadShards(thread);
    PPA_ASSERT(index < totalInsts, "decode past end of trace");

    // Shards are contiguous; find the one covering `index`, preferring
    // the cached shard (replay is overwhelmingly sequential).
    int si = -1;
    if (cachedShard >= 0) {
        const ShardInfo &c = list[cachedShard];
        if (index >= c.firstIndex && index < c.firstIndex + c.count)
            si = cachedShard;
    }
    if (si < 0) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (index >= list[i].firstIndex &&
                index < list[i].firstIndex + list[i].count) {
                si = static_cast<int>(i);
                break;
            }
        }
    }
    PPA_ASSERT(si >= 0, "no shard covers index ", index);

    if (si != cachedShard) {
        const ShardInfo &s = list[si];
        std::string path = set.directory() + "/" + s.file;
        if (!readFileBytes(path, shardImage))
            fatal("cannot read trace shard '", path, "'");
        std::string error;
        if (!parseShardImage(shardImage, shardHeader, shardFooter, error))
            fatal("trace shard '", path, "': ", error,
                  " (run `ppa_cli trace verify`)");
        if (shardHeader.firstIndex != s.firstIndex ||
            shardHeader.count != s.count) {
            fatal("trace shard '", path,
                  "' disagrees with the manifest about its range");
        }
        cachedShard = si;
    }

    const ShardInfo &s = list[si];
    std::size_t b = static_cast<std::size_t>(
        (index - s.firstIndex) / shardHeader.blockInsts);
    std::size_t begin, end;
    shardBlockRange(shardHeader, shardFooter, shardImage, b, begin, end);

    Buffer buf;
    buf.firstIndex = s.firstIndex +
                     static_cast<std::uint64_t>(b) * shardHeader.blockInsts;
    std::uint64_t expect = blockInstCount(shardHeader, b);
    buf.insts.reserve(static_cast<std::size_t>(expect));
    BlockDecoder dec(shardImage.data() + begin, end - begin);
    DynInst inst;
    while (dec.next(inst))
        buf.insts.push_back(inst);
    if (!dec.error().empty()) {
        fatal("trace shard '", s.file, "' block ", b, ": ", dec.error(),
              " (run `ppa_cli trace verify`)");
    }
    if (buf.insts.size() != expect) {
        fatal("trace shard '", s.file, "' block ", b, " decoded ",
              buf.insts.size(), " records, expected ", expect);
    }
    return buf;
}

void
TraceReplaySource::producerLoop()
{
    std::uint64_t localGen = ~std::uint64_t{0};
    std::uint64_t pos = 0;
    bool doneForGen = false;

    for (;;) {
        {
            std::unique_lock<std::mutex> l(mu);
            cvProducer.wait(l, [&] {
                return stopping || gen != localGen ||
                       (!doneForGen && queue.size() < queueDepth);
            });
            if (stopping)
                return;
            if (gen != localGen) {
                localGen = gen;
                pos = seekTarget;
                doneForGen = false;
            }
            if (doneForGen)
                continue;
        }

        // Decode outside the lock: this is the double-buffered overlap
        // with the consumer draining already-decoded blocks.
        Buffer buf;
        if (pos >= totalInsts) {
            buf.last = true;
            buf.firstIndex = pos;
        } else {
            buf = decodeBlockAt(pos);
        }
        buf.gen = localGen;
        bool last = buf.last;
        std::uint64_t nextPos = buf.firstIndex + buf.insts.size();

        {
            std::lock_guard<std::mutex> l(mu);
            if (gen != localGen)
                continue; // seekTo raced us; this buffer is stale
            queue.push_back(std::move(buf));
            doneForGen = last;
            pos = nextPos;
        }
        cvConsumer.notify_one();
    }
}

bool
TraceReplaySource::next(DynInst &out)
{
    if (exhausted)
        return false;
    for (;;) {
        if (haveCurrent) {
            if (offset < current.insts.size()) {
                out = current.insts[offset];
                out.index = current.firstIndex + offset;
                ++offset;
                ++cursor;
                return true;
            }
            haveCurrent = false;
        }

        {
            std::unique_lock<std::mutex> l(mu);
            cvConsumer.wait(l, [&] { return !queue.empty(); });
            current = std::move(queue.front());
            queue.pop_front();
            if (current.gen != gen)
                continue; // stale buffer from before a seekTo
        }
        cvProducer.notify_one();

        if (current.last) {
            exhausted = true;
            return false;
        }
        if (current.firstIndex + current.insts.size() <= cursor)
            continue; // fully before the cursor (post-seek catch-up)
        PPA_ASSERT(cursor >= current.firstIndex,
                   "replay buffer starts past the cursor");
        offset = static_cast<std::size_t>(cursor - current.firstIndex);
        haveCurrent = true;
    }
}

void
TraceReplaySource::seekTo(std::uint64_t index)
{
    // Trivial seek: the consumer cursor is already there and the
    // stream is live, so discarding the prefetch queue would only
    // force the producer to re-decode blocks it already delivered.
    if (index == cursor && !exhausted)
        return;
    {
        std::lock_guard<std::mutex> l(mu);
        ++gen;
        seekTarget = index;
        queue.clear();
    }
    cursor = index;
    haveCurrent = false;
    exhausted = false;
    offset = 0;
    cvProducer.notify_one();
}

// ---------------------------------------------------------------------
// verifyTrace
// ---------------------------------------------------------------------

VerifyResult
verifyTrace(const std::string &dir)
{
    VerifyResult r;
    TraceSet set;
    std::string error;
    if (!set.load(dir, error)) {
        r.errors.push_back(error);
        return r;
    }

    for (const ShardInfo &s : set.allShards()) {
        auto shardError = [&](const std::string &what) {
            r.errors.push_back(s.file + ": " + what);
        };
        std::string path = dir + "/" + s.file;
        std::vector<std::uint8_t> image;
        if (!readFileBytes(path, image)) {
            shardError("listed in the manifest but unreadable");
            continue;
        }
        ShardHeader header;
        ShardFooter footer;
        if (!parseShardImage(image, header, footer, error)) {
            shardError(error);
            continue;
        }
        if (header.firstIndex != s.firstIndex || header.count != s.count) {
            shardError("header range disagrees with the manifest");
            continue;
        }
        if (header.blockInsts != set.metadata().blockInsts) {
            shardError("blockInsts disagrees with the manifest");
            continue;
        }

        std::uint32_t crc = binfmt::crc32(image.data() + shardHeaderBytes,
                                          payloadBytes(image, footer));
        if (crc != footer.payloadCrc) {
            shardError("payload CRC mismatch (corrupted shard)");
            continue;
        }
        if (crc != s.crc32) {
            shardError("payload CRC disagrees with the manifest");
            continue;
        }

        bool decodeOk = true;
        for (std::size_t b = 0; b < footer.blockOffsets.size(); ++b) {
            std::size_t begin, end;
            shardBlockRange(header, footer, image, b, begin, end);
            BlockDecoder dec(image.data() + begin, end - begin);
            DynInst inst;
            std::uint64_t n = 0;
            while (dec.next(inst))
                ++n;
            if (!dec.error().empty()) {
                shardError("block " + std::to_string(b) + ": " +
                           dec.error());
                decodeOk = false;
                break;
            }
            if (n != blockInstCount(header, b)) {
                shardError("block " + std::to_string(b) + " decoded " +
                           std::to_string(n) + " records, expected " +
                           std::to_string(blockInstCount(header, b)));
                decodeOk = false;
                break;
            }
        }
        if (decodeOk)
            r.totalInsts += s.count;
    }

    r.shardCount = static_cast<unsigned>(set.allShards().size());
    r.combinedCrc = set.combinedCrc();
    r.ok = r.errors.empty();
    return r;
}

} // namespace trace
} // namespace ppa

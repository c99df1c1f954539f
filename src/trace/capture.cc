#include "trace/capture.hh"

#include "common/logging.hh"
#include "workload/generator.hh"

namespace ppa
{
namespace trace
{

TraceSummary
recordWorkloadTrace(const std::string &dir, const WorkloadProfile &profile,
                    const CaptureSpec &spec)
{
    unsigned threads = spec.threads > 0 ? spec.threads
                                        : profile.defaultThreads;
    PPA_ASSERT(spec.instsPerThread > 0,
               "trace capture needs a nonzero instruction count");

    TraceMeta meta;
    meta.app = profile.name;
    meta.seed = spec.seed;
    meta.threads = threads;
    meta.instsPerThread = spec.instsPerThread;
    meta.shardInsts = spec.shardInsts;
    meta.blockInsts = spec.blockInsts;

    TraceWriter writer(dir, meta);
    for (unsigned t = 0; t < threads; ++t) {
        StreamGenerator gen(profile, t, spec.seed, spec.instsPerThread);
        DynInst inst;
        while (gen.next(inst))
            writer.append(t, inst);
    }
    return writer.finish();
}

} // namespace trace
} // namespace ppa

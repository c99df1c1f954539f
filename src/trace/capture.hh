/**
 * @file
 * Trace capture front end: record a StreamGenerator workload into a
 * trace directory.
 */

#ifndef PPA_TRACE_CAPTURE_HH
#define PPA_TRACE_CAPTURE_HH

#include <cstdint>
#include <string>

#include "trace/writer.hh"
#include "workload/profile.hh"

namespace ppa
{
namespace trace
{

/** Capture parameters (a subset of ExperimentKnobs). */
struct CaptureSpec
{
    std::uint64_t seed = 42;
    unsigned threads = 0;              ///< 0 = profile's defaultThreads
    std::uint64_t instsPerThread = 0;  ///< committed path per thread
    std::uint64_t shardInsts = defaultShardInsts;
    std::uint32_t blockInsts = defaultBlockInsts;
};

/**
 * Record @p profile into @p dir (created/overwritten), driving one
 * StreamGenerator per thread through the writer.
 */
TraceSummary recordWorkloadTrace(const std::string &dir,
                                 const WorkloadProfile &profile,
                                 const CaptureSpec &spec);

} // namespace trace
} // namespace ppa

#endif // PPA_TRACE_CAPTURE_HH

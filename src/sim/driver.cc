#include "sim/driver.hh"

#include <atomic>
#include <chrono>
#include <mutex>

#include "sim/run.hh"

namespace ppa
{

ExperimentDriver::ExperimentDriver(unsigned workers)
    : numWorkers(sim::hostWorkers(workers))
{}

std::vector<JobResult>
ExperimentDriver::run(const std::vector<SweepJob> &jobs,
                      const ProgressFn &progress) const
{
    std::vector<JobResult> results(jobs.size());
    std::atomic<std::size_t> completed{0};
    std::mutex progressMutex;
    sim::runIndexed(numWorkers, jobs.size(), [&](std::size_t idx) {
        auto start = std::chrono::steady_clock::now();
        JobResult &r = results[idx];
        r.job = jobs[idx];
        r.stats =
            runWorkload(r.job.profile, r.job.variant, r.job.knobs);
        r.wallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        std::size_t done = completed.fetch_add(1) + 1;
        if (progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            progress(r, done, jobs.size());
        }
    });
    return results;
}

} // namespace ppa

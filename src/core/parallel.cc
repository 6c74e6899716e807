#include "core/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace g5p::core
{

ParallelExecutor::ParallelExecutor(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
}

unsigned
ParallelExecutor::hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
ParallelExecutor::forEach(std::size_t count,
                          const std::function<void(std::size_t)> &job)
{
    // Failures by index; the lowest is rethrown after the drain so
    // every non-failing job still completes (and later calls see a
    // consistent pool state).
    std::vector<std::exception_ptr> errors(count);

    // One cursor over submission order. Jobs are whole simulations,
    // so one atomic increment per job costs nothing against them.
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                job(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    const auto workers = (unsigned)std::min<std::size_t>(jobs_, count);
    if (workers <= 1) {
        // Degenerate pool: run inline, no thread spawn.
        work();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back(work);
        for (auto &thread : threads)
            thread.join();
    }

    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

RunConfig
withJobWallCap(const RunConfig &config, double cap_seconds)
{
    if (cap_seconds <= 0)
        return config;
    RunConfig capped = config;
    double own = capped.run.supervise
                     ? capped.run.watchdog.maxWallSeconds
                     : 0.0;
    capped.run.supervise = true;
    if (own <= 0 || own > cap_seconds)
        capped.run.watchdog.maxWallSeconds = cap_seconds;
    return capped;
}

std::vector<RunResult>
runExperiments(const std::vector<RunConfig> &configs, unsigned jobs,
               double wall_cap_seconds)
{
    std::vector<RunResult> results(configs.size());
    ParallelExecutor(jobs).forEach(configs.size(), [&](std::size_t i) {
        results[i] = runProfiledSimulation(
            withJobWallCap(configs[i], wall_cap_seconds));
    });
    return results;
}

} // namespace g5p::core

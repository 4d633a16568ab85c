/**
 * @file
 * The simulator's one source of host parallelism: independent runs (sweep
 * points, fuzz seeds, served-KV grid points) claimed by index from a shared
 * counter on a small thread pool. Each run builds and owns its whole
 * Simulator/SoC stack, so runs share nothing but their own result slot and
 * every simulated number is independent of the job count.
 */

#ifndef SKIPIT_WORKLOADS_RUN_POOL_HH
#define SKIPIT_WORKLOADS_RUN_POOL_HH

#include <cstddef>
#include <functional>

namespace skipit::workloads {

/**
 * Call @p run(i) for i in [0, count) on min(jobs, count) threads; with
 * jobs <= 1 everything runs on the calling thread. Indices are claimed in
 * increasing order, and @p run(i) may only write state that belongs to
 * index i.
 *
 * @p run returns false to mark every higher index moot: no further index
 * is claimed, though runs already claimed still finish. Because claims are
 * ordered, every index below a stopping one has run, so "the lowest index
 * that stopped" is the same at any job count. A throwing run stops the
 * pool the same way, and the exception of the lowest throwing index is
 * rethrown once every thread has joined.
 */
void forEachRun(std::size_t count, unsigned jobs,
                const std::function<bool(std::size_t)> &run);

} // namespace skipit::workloads

#endif // SKIPIT_WORKLOADS_RUN_POOL_HH

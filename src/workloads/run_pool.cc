#include "run_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace skipit::workloads {

void
forEachRun(std::size_t count, unsigned jobs,
           const std::function<bool(std::size_t)> &run)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex mu;
    std::size_t thrown_at = count;
    std::exception_ptr thrown;

    const auto worker = [&] {
        while (!stop.load()) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            bool more = false;
            try {
                more = run(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (i < thrown_at) {
                    thrown_at = i;
                    thrown = std::current_exception();
                }
            }
            if (!more)
                stop.store(true);
        }
    };

    // The calling thread is one of the workers. If the host refuses a
    // thread, the runs go ahead on the threads it did grant.
    const std::size_t threads =
        std::min<std::size_t>(std::max(1u, jobs), count);
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < threads; ++t) {
        try {
            helpers.emplace_back(worker);
        } catch (const std::system_error &) {
            break;
        }
    }
    worker();
    for (std::thread &t : helpers)
        t.join();
    if (thrown)
        std::rethrow_exception(thrown);
}

} // namespace skipit::workloads

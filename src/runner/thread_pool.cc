#include "runner/thread_pool.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace dynaspam::runner
{

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = 1;
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; i++)
        threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        common::MutexLock lock(mutex);
        shutdown = true;
    }
    workAvailable.notifyAll();
    for (std::thread &t : threads)
        t.join();
}

unsigned
ThreadPool::defaultWorkers(unsigned fallback)
{
    // Worker-count plumbing: the thread count never reaches simulated
    // state (results are worker-invariant).
    // analyze-allow(determinism): host knob, not model state
    if (const char *env = std::getenv("DYNASPAM_JOBS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n >= 1)
            return unsigned(n);
    }
    if (fallback == 0) {
        fallback = std::thread::hardware_concurrency();
        if (fallback == 0)
            fallback = 1;
    }
    return fallback;
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        common::MutexLock lock(mutex);
        tasks.push_back(std::move(task));
    }
    workAvailable.notifyOne();
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // Per-batch completion state; several batches (from different
    // caller threads) can be in flight at once.
    struct Batch
    {
        common::Mutex mutex;
        common::CondVar done;
        std::size_t remaining GUARDED_BY(mutex);
        std::exception_ptr firstError GUARDED_BY(mutex);
    };
    auto batch = std::make_shared<Batch>();
    {
        common::MutexLock lock(batch->mutex);
        batch->remaining = n;
    }

    for (std::size_t i = 0; i < n; i++) {
        // `fn` is captured by reference: this call blocks until every
        // task has finished, so the reference outlives all of them.
        submit([batch, &fn, i] {
            try {
                fn(i);
            } catch (...) {
                common::MutexLock lock(batch->mutex);
                if (!batch->firstError)
                    batch->firstError = std::current_exception();
            }
            bool last = false;
            {
                common::MutexLock lock(batch->mutex);
                last = --batch->remaining == 0;
            }
            if (last)
                batch->done.notifyAll();
        });
    }

    common::MutexLock lock(batch->mutex);
    while (batch->remaining != 0)
        batch->done.wait(batch->mutex);
    if (batch->firstError)
        std::rethrow_exception(batch->firstError);
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            common::MutexLock lock(mutex);
            while (!shutdown && tasks.empty())
                workAvailable.wait(mutex);
            // On shutdown this drains every queued task before the
            // worker exits.
            if (tasks.empty())
                return;
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        task();
    }
}

} // namespace dynaspam::runner

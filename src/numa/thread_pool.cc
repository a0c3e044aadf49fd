#include "numa/thread_pool.h"

#include <algorithm>

namespace anc::numa {

ThreadPool::ThreadPool(size_t workers)
{
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::runChunk()
{
    for (;;) {
        size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_)
            return;
        try {
            (*fn_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        if (active_ >= maxWorkers_)
            continue; // job is capped below the full pool
        // A worker that wakes after its job was fully claimed stays out:
        // the caller may already have returned, and the next job would
        // reset next_ under a worker that read the old counter and so
        // run one of its indices twice. Inside, a worker holds the
        // caller until it leaves, so fn_ and count_ stay put.
        if (next_.load(std::memory_order_relaxed) >= count_)
            continue;
        ++active_;
        lk.unlock();
        runChunk();
        lk.lock();
        --active_;
        done_.notify_all();
    }
}

void
ThreadPool::parallelFor(size_t count, size_t maxThreads,
                        const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    if (maxThreads == 0)
        maxThreads = concurrency();
    if (workers_.empty() || maxThreads <= 1 || count == 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::lock_guard<std::mutex> job(callerMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        fn_ = &fn;
        count_ = count;
        maxWorkers_ = std::min(maxThreads - 1, workers_.size());
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        ++generation_;
    }
    wake_.notify_all();
    runChunk(); // the caller is one of the threads
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(mu_);
        done_.wait(lk, [&] {
            return active_ == 0 &&
                   next_.load(std::memory_order_relaxed) >= count_;
        });
        err = error_;
        fn_ = nullptr; // late workers see next_ >= count_ and stay out
    }
    if (err)
        std::rethrow_exception(err);
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool([] {
        unsigned hw = std::thread::hardware_concurrency();
        return hw > 1 ? size_t(hw - 1) : size_t(0);
    }());
    return pool;
}

} // namespace anc::numa

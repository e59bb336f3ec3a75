#include "common/threadpool.hh"

#include <algorithm>

#include "common/check.hh"

namespace genax {

ThreadPool::ThreadPool(unsigned workers)
{
    workers = std::max(1u, workers);
    _queues.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        _queues.push_back(std::make_unique<WorkerQueue>());
    _threads.reserve(workers);
    try {
        for (unsigned i = 0; i < workers; ++i)
            _threads.emplace_back([this, i]() { workerLoop(i); });
    } catch (...) {
        // Thread spawn failed part-way: shut down what started.
        _stop.store(true);
        _cv.notifyAll();
        for (auto &t : _threads)
            t.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        const MutexLock lk(_mu);
        _stop.store(true);
    }
    _cv.notifyAll();
    for (auto &t : _threads)
        t.join();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(resolveWidth(0));
    return pool;
}

unsigned
ThreadPool::resolveWidth(unsigned requested)
{
    // Clamp to the hardware width: on a low-core host an inflated
    // request would spawn runners that only contend on the chunk
    // cursor, and a clamped width of 1 lets parallelFor short-circuit
    // to the serial path with no region setup at all. Results are
    // width-invariant, so clamping cannot change output. The count
    // is read once: each query costs microseconds of /sys reads,
    // which small index builds would otherwise pay per call.
    static const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    if (requested == 0)
        return hw;
    return std::min(requested, hw);
}

void
ThreadPool::submit(std::function<void()> task)
{
    GENAX_CHECK(task != nullptr, "null task submitted to thread pool");
    const u64 victim = _rr.fetch_add(1, std::memory_order_relaxed) %
                       _queues.size();
    {
        const MutexLock lk(_queues[victim]->mu);
        _queues[victim]->tasks.push_back(std::move(task));
    }
    {
        // The increment must synchronize with the sleep mutex:
        // otherwise it can land inside a worker's locked
        // predicate-check window and the notify is lost.
        const MutexLock lk(_mu);
        _pending.fetch_add(1);
    }
    _cv.notifyOne();
}

std::function<void()>
ThreadPool::grab(unsigned self)
{
    // Own deque first (front: oldest local work keeps FIFO fairness
    // for fire-and-forget tasks) ...
    {
        WorkerQueue &own = *_queues[self];
        const MutexLock lk(own.mu);
        if (!own.tasks.empty()) {
            auto task = std::move(own.tasks.front());
            own.tasks.pop_front();
            return task;
        }
    }
    // ... then steal from the back of the other deques.
    for (size_t i = 1; i < _queues.size(); ++i) {
        WorkerQueue &victim = *_queues[(self + i) % _queues.size()];
        const MutexLock lk(victim.mu);
        if (!victim.tasks.empty()) {
            auto task = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            return task;
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop(unsigned id)
{
    for (;;) {
        if (auto task = grab(id)) {
            _pending.fetch_sub(1);
            task();
            continue;
        }
        const MutexLock lk(_mu);
        while (!_stop.load() &&
               _pending.load(std::memory_order_relaxed) == 0)
            _cv.wait(_mu);
        // On shutdown keep draining until every queue is empty so no
        // submitted task is silently dropped.
        if (_stop.load() && _pending.load() == 0)
            return;
    }
}

} // namespace genax

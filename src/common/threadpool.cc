#include "common/threadpool.hh"

#include <algorithm>

namespace genax {

ThreadPool::ThreadPool(unsigned workers)
{
    workers = std::max(1u, workers);
    _threads.reserve(workers);
    try {
        for (unsigned i = 0; i < workers; ++i)
            _threads.emplace_back([this]() { workerLoop(); });
    } catch (...) {
        // Thread spawn failed part-way: shut down what started.
        {
            const MutexLock lk(_mu);
            _stop = true;
        }
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
        _stop = true;
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
ThreadPool::Region::work(unsigned slot)
{
    for (;;) {
        const u64 lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= n)
            return;
        try {
            fn(slot, lo, std::min(n, lo + chunk));
        } catch (...) {
            const MutexLock g(mu);
            if (!error)
                error = std::current_exception();
        }
    }
}

void
ThreadPool::parallelFor(u64 n, unsigned width, const ChunkFn &fn,
                        u64 chunk_hint)
{
    width = static_cast<unsigned>(std::min<u64>(std::max(1u, width), n));
    if (width <= 1) {
        if (n > 0)
            fn(0, 0, n);
        return;
    }
    Region rg(fn, n,
              chunk_hint != 0 ? chunk_hint
                              : std::max<u64>(1, n / (u64{8} * width)));
    const unsigned seats = width - 1;
    unsigned wake = 0;
    {
        const MutexLock lk(_mu);
        _open.push_back({&rg, seats, 0});
        wake = std::min(seats, _idle);
    }
    for (unsigned i = 0; i < wake; ++i)
        _cv.notifyOne();

    rg.work(0);

    // Close the region: a worker that has not taken a seat by now
    // never will, so only the helpers that joined are waited for.
    unsigned joined = seats;
    {
        const MutexLock lk(_mu);
        const auto it =
            std::find_if(_open.begin(), _open.end(),
                         [&](const Seats &s) { return s.region == &rg; });
        if (it != _open.end()) {
            joined = it->taken;
            _open.erase(it);
        }
    }
    const MutexLock lk(rg.mu);
    while (rg.left != joined)
        rg.cv.wait(rg.mu);
    if (rg.error)
        std::rethrow_exception(rg.error);
}

std::vector<ThreadPool::Seats>::iterator
ThreadPool::joinable()
{
    // A region whose cursor has run out stays open until its caller
    // closes it, but a seat there would only add a helper to wait for.
    return std::find_if(_open.begin(), _open.end(), [](const Seats &s) {
        return s.region->cursor.load(std::memory_order_relaxed) <
               s.region->n;
    });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Region *rg = nullptr;
        unsigned slot = 0;
        {
            const MutexLock lk(_mu);
            auto it = joinable();
            while (!_stop && it == _open.end()) {
                ++_idle;
                _cv.wait(_mu);
                --_idle;
                it = joinable();
            }
            if (_stop)
                return;
            rg = it->region;
            slot = ++it->taken;
            if (it->taken == it->total)
                _open.erase(it);
        }
        rg->work(slot);
        // Notify under the lock: once `left` reaches the joined count
        // the caller may return and destroy the region.
        const MutexLock lk(rg->mu);
        ++rg->left;
        rg->cv.notifyOne();
    }
}

} // namespace genax

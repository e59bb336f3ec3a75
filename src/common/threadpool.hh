/**
 * @file
 * Fork-join regions on a persistent thread pool.
 *
 * One pool outlives many parallel regions, so repeated batch calls
 * (the aligner's alignAll, the GenAx system's per-segment read loop)
 * pay thread-spawn cost once per process instead of once per call.
 *
 * The pool runs regions, not tasks. A region is an atomic chunk
 * cursor over [0, n) plus width - 1 seats. Publishing it wakes at
 * most that many idle workers; each takes a seat (slot 1 .. width-1)
 * and pulls chunks, while the caller pulls chunks as slot 0. When the
 * cursor runs out the caller closes the region to late helpers and
 * waits only for the helpers that joined. So a region never waits on
 * a worker that is busy elsewhere: the caller just runs more of its
 * own chunks, and regions may nest or run from several threads at
 * once.
 *
 * Chunks are dynamic, so skewed per-item cost rebalances instead of
 * serializing on the unluckiest static share. Exceptions thrown by
 * chunk bodies are captured; every chunk is still attempted, and the
 * first captured exception is rethrown to the caller once the region
 * has drained. A slot is active on one thread at a time, so per-slot
 * state (per-worker lanes, stat shards) needs no locking.
 */

#ifndef GENAX_COMMON_THREADPOOL_HH
#define GENAX_COMMON_THREADPOOL_HH

#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/types.hh"

namespace genax {

class ThreadPool
{
  public:
    /** One chunk body: fn(slot, lo, hi). */
    using ChunkFn = std::function<void(unsigned, u64, u64)>;

    /** Spawn `workers` persistent worker threads (at least one). */
    explicit ThreadPool(unsigned workers);

    /** Joins the workers; no region may be running on the pool. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Lazily-created process-wide pool (hardware_concurrency
     *  workers) behind the free parallelFor. */
    static ThreadPool &global();

    /** Resolve a requested parallel width: 0 means "all hardware
     *  threads"; anything else is clamped to the hardware thread
     *  count (oversubscribed runners only contend, and a width of 1
     *  short-circuits parallelFor to the serial path). */
    static unsigned resolveWidth(unsigned requested);

    /**
     * Run fn over [0, n) as one region of up to `width` runners: the
     * caller as slot 0 plus whichever of the width - 1 seats idle
     * workers take. Returns once every chunk was attempted and every
     * helper that joined has left, rethrowing the first exception a
     * chunk threw. `chunk_hint` overrides the chunk size (0 picks
     * max(1, n / (8 * width))). A width of 1, after clamping to n,
     * runs fn(0, 0, n) inline.
     */
    void parallelFor(u64 n, unsigned width, const ChunkFn &fn,
                     u64 chunk_hint = 0);

  private:
    /** One region's shared state; it lives on the caller's stack. */
    struct Region
    {
        Region(const ChunkFn &body, u64 items, u64 chunk_size)
            : fn(body), n(items), chunk(chunk_size)
        {
        }

        const ChunkFn &fn;
        const u64 n;
        const u64 chunk;
        std::atomic<u64> cursor{0};
        Mutex mu;
        CondVar cv; //!< signalled as each helper leaves
        unsigned left GENAX_GUARDED_BY(mu) = 0;
        std::exception_ptr error GENAX_GUARDED_BY(mu);

        /** Pull chunks as `slot` until the cursor passes n. */
        void work(unsigned slot);
    };

    /** A published region's seats: it stays in _open until all are
     *  taken or its caller closes it. */
    struct Seats
    {
        Region *region;
        unsigned total;
        unsigned taken;
    };

    /** The first open region with chunks left, else _open.end(). */
    std::vector<Seats>::iterator joinable() GENAX_REQUIRES(_mu);

    void workerLoop();

    Mutex _mu;
    CondVar _cv; //!< wakes idle workers
    std::vector<Seats> _open GENAX_GUARDED_BY(_mu);
    unsigned _idle GENAX_GUARDED_BY(_mu) = 0;
    bool _stop GENAX_GUARDED_BY(_mu) = false;
    std::vector<std::thread> _threads;
};

/**
 * Run fn(slot, lo, hi) over [0, n) on up to `threads` runners of
 * ThreadPool::global() (0 = all hardware threads; see
 * ThreadPool::resolveWidth). The calls get disjoint subranges whose
 * union is exactly [0, n), and slot < the resolved width; `chunk`
 * overrides the chunk size. At width 1, or for n = 1, fn(0, 0, n)
 * runs inline and the pool is never created; n = 0 calls nothing. A
 * region may be entered from inside another one.
 */
template <typename Fn>
void
parallelFor(u64 n, unsigned threads, Fn &&fn, u64 chunk = 0)
{
    const unsigned width = ThreadPool::resolveWidth(threads);
    if (width > 1 && n > 1)
        ThreadPool::global().parallelFor(n, width, std::ref(fn), chunk);
    else if (n > 0)
        fn(0u, u64{0}, n);
}

} // namespace genax

#endif // GENAX_COMMON_THREADPOOL_HH

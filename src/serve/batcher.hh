/**
 * @file
 * Cross-client batch aggregator: N producer threads (one per
 * connection) submit read batches; one worker thread drains them
 * into the AlignService in arrival order.
 *
 * This is PR 5's bounded reader-queue pattern generalized to N
 * producers, with the same continuous-batching policy inference
 * servers use: requests accumulate until either the pending read
 * count reaches `batchReads` or the oldest request has waited
 * `batchWaitSeconds`, then everything pending runs as one engine
 * batch and the results are demultiplexed back to the owning
 * requests in order. Under light load the deadline bounds latency;
 * under heavy load batches fill instantly and the deadline never
 * fires — throughput approaches the offline streaming path because
 * it *is* the offline streaming path (streamBegin/streamBatch/
 * streamEnd on the shared ThreadPool) fed by many sockets instead of
 * one file.
 *
 * Admission control: the queue is bounded in reads. A submit that
 * would overflow either blocks until the worker drains (default —
 * per-connection backpressure, the socket stops reading) or is
 * rejected immediately with ResourceExhausted when
 * `rejectWhenFull` is set (load-shedding mode; the client sees a
 * clean Error frame).
 *
 * Accounting: three log-bucketed latency histograms (queue wait,
 * engine time, total) plus a per-tenant ledger in ReaderStats style.
 * Timing uses steady_clock deltas — the sanctioned profiling pattern
 * (observability output, never a determinism contract; see the
 * genax_lint wall-clock rule).
 *
 * Locking (DESIGN.md lock-order inventory): one leaf Mutex `_mu`
 * guards the queue, the histograms and the ledgers. The engine runs
 * strictly outside the lock, so producers keep queueing while a
 * batch aligns. The worker's engine calls may run pool regions, which
 * take only the pool's own leaf locks; `_mu` is never held across
 * them.
 */

#ifndef GENAX_SERVE_BATCHER_HH
#define GENAX_SERVE_BATCHER_HH

#include <chrono>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/histogram.hh"
#include "common/status.hh"
#include "io/fastq.hh"
#include "serve/service.hh"

namespace genax {

/** Batching/admission policy. */
struct BatcherConfig
{
    /** Flush when this many reads are pending. */
    u64 batchReads = 64;
    /** Flush when the oldest pending request has waited this long. */
    double batchWaitSeconds = 0.002;
    /** Admission bound: max reads queued (≥ one request's worth is
     *  always admitted so oversized requests cannot deadlock). */
    u64 queueReads = 4096;
    /** Queue-full policy: reject with ResourceExhausted instead of
     *  blocking the producer. */
    bool rejectWhenFull = false;
};

/** Per-tenant serving ledger (ReaderStats style: plain counters,
 *  folded under the stats lock). */
struct TenantStats
{
    u64 requests = 0;
    u64 reads = 0;
    u64 mapped = 0;
    u64 unmapped = 0;
    u64 degraded = 0;
    u64 rejected = 0; //!< requests shed by admission control
};

class Batcher
{
  public:
    Batcher(AlignService &service, const BatcherConfig &cfg);
    ~Batcher();

    Batcher(const Batcher &) = delete;
    Batcher &operator=(const Batcher &) = delete;

    /**
     * Submit one request and block until its batch ran: the SAM
     * lines for `reads` in order, or ResourceExhausted (admission),
     * or Unavailable (batcher stopped while the request was
     * pending). Callable from any number of threads.
     */
    StatusOr<std::vector<std::string>>
    align(const std::string &tenant, std::vector<FastqRecord> reads);

    /** Stop the worker; pending and in-flight requests complete or
     *  fail with Unavailable. Idempotent. */
    void stop();

    /** Consistent copy of the accounting state. */
    struct StatsSnapshot
    {
        LatencyHistogram queueWait; //!< submit → batch start
        LatencyHistogram engine;    //!< batch engine time (per req)
        LatencyHistogram total;     //!< submit → results ready
        std::map<std::string, TenantStats> tenants;
        u64 queuedReads = 0; //!< reads pending at snapshot time
        u64 batches = 0;
        u64 flushesBySize = 0;     //!< batch filled
        u64 flushesByDeadline = 0; //!< oldest request timed out
        u64 maxBatchReads = 0;
    };
    StatsSnapshot stats() const;

    /** Render a snapshot as the human-readable stats text the
     *  protocol's StatsReply carries. */
    static std::string statsText(const StatsSnapshot &snap);

  private:
    /** One queued request; lives in its submitter's align() frame. */
    struct Job
    {
        const std::string *tenant;
        std::vector<FastqRecord> *reads;
        std::vector<std::string> lines;
        Status status;
        bool done = false;
        u64 enqueuedNanos = 0;
    };

    void workerLoop();

    /** Monotonic nanoseconds since the batcher was created. */
    u64 nowNanos() const;

    AlignService &_service;
    const BatcherConfig _cfg;
    const std::chrono::steady_clock::time_point _epoch;

    mutable Mutex _mu;
    CondVar _pending;  //!< worker waits: work or stop
    CondVar _notFull;  //!< producers wait: queue space
    CondVar _complete; //!< producers wait: job done
    std::deque<Job *> _queue GENAX_GUARDED_BY(_mu);
    u64 _queuedReads GENAX_GUARDED_BY(_mu) = 0;
    bool _stopped GENAX_GUARDED_BY(_mu) = false;

    LatencyHistogram _queueWait GENAX_GUARDED_BY(_mu);
    LatencyHistogram _engine GENAX_GUARDED_BY(_mu);
    LatencyHistogram _total GENAX_GUARDED_BY(_mu);
    std::map<std::string, TenantStats> _tenants GENAX_GUARDED_BY(_mu);
    u64 _batches GENAX_GUARDED_BY(_mu) = 0;
    u64 _flushesBySize GENAX_GUARDED_BY(_mu) = 0;
    u64 _flushesByDeadline GENAX_GUARDED_BY(_mu) = 0;
    u64 _maxBatchReads GENAX_GUARDED_BY(_mu) = 0;

    std::thread _worker; //!< last member: starts in the ctor body
};

} // namespace genax

#endif // GENAX_SERVE_BATCHER_HH

/**
 * @file
 * parallelFor and thread-pool region contract tests plus
 * multi-threaded stress intended to run under ThreadSanitizer (the
 * tsan CMake preset): the aligner batch path, concurrent and nested
 * regions are exercised under contention, and the threaded results
 * are checked against single-threaded runs.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "swbase/bwamem_like.hh"

namespace genax {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    const u64 n = 1013; // prime, so chunks never divide evenly
    std::vector<std::atomic<u32>> hits(n);
    parallelFor(n, 7, [&](unsigned, u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i)
            ++hits[i];
    });
    for (u64 i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelFor, InlineWhenSingleThreaded)
{
    std::thread::id caller = std::this_thread::get_id();
    parallelFor(100, 1, [&](unsigned slot, u64 lo, u64 hi) {
        EXPECT_EQ(slot, 0u);
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 100u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelFor, WorkerExceptionPropagates)
{
    // A throw from a worker must surface in the caller, not
    // std::terminate the process.
    EXPECT_THROW(
        parallelFor(64, 4,
                    [](unsigned, u64 lo, u64) {
                        if (lo == 0)
                            throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error);
}

TEST(ParallelFor, AllWorkersJoinBeforeRethrow)
{
    // Every chunk runs to completion even when one throws: the
    // rethrow happens only after all workers are joined, so no work
    // is silently lost and no thread outlives the call.
    std::atomic<u64> done{0};
    try {
        parallelFor(1000, 8, [&](unsigned, u64 lo, u64 hi) {
            done += hi - lo;
            if (lo == 0)
                throw std::logic_error("first chunk");
        });
        FAIL() << "exception swallowed";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "first chunk");
    }
    EXPECT_EQ(done.load(), 1000u);
}

TEST(ParallelFor, FirstExceptionWins)
{
    // Several workers throw; exactly one exception reaches the
    // caller and it is one of the thrown ones.
    try {
        parallelFor(400, 4, [](unsigned, u64 lo, u64) {
            throw std::runtime_error("chunk " + std::to_string(lo));
        });
        FAIL() << "exception swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()).rfind("chunk ", 0), 0u);
    }
}

TEST(ParallelFor, CheckViolationCrossesThreads)
{
    // GENAX_CHECK with the throwing handler fires inside a worker
    // and still reaches the caller as a CheckViolation.
    ScopedCheckHandler guard(&throwingCheckHandler);
    EXPECT_THROW(parallelFor(32, 4,
                             [](unsigned, u64 lo, u64) {
                                 GENAX_CHECK(lo != 0,
                                             "worker invariant");
                             }),
                 CheckViolation);
}

TEST(ParallelFor, ZeroThreadsMeansAllHardwareThreads)
{
    // threads == 0 resolves to the hardware width and still covers
    // the range exactly once.
    const unsigned hw = ThreadPool::resolveWidth(0);
    EXPECT_GE(hw, 1u);
    // Explicit requests are clamped to the hardware width so a
    // low-core host never runs oversubscribed.
    EXPECT_EQ(ThreadPool::resolveWidth(3), std::min(3u, hw));
    EXPECT_EQ(ThreadPool::resolveWidth(1), 1u);
    EXPECT_EQ(ThreadPool::resolveWidth(hw + 64), hw);

    const u64 n = 777;
    std::vector<std::atomic<u32>> hits(n);
    parallelFor(n, 0, [&](unsigned, u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i)
            ++hits[i];
    });
    for (u64 i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelFor, SkewedWorkIsDynamicallyChunked)
{
    // Regression for the static-chunking pathology: with one chunk
    // per thread, an adversarial workload whose last items carry all
    // the cost serializes on the unlucky worker. Dynamic scheduling
    // hands out chunks far smaller than n / width, so no single
    // invocation can receive a static-sized share.
    const u64 n = 4096;
    const unsigned width = 8;
    const u64 static_share = n / width;
    std::vector<std::atomic<u32>> hits(n);
    std::atomic<u64> max_span{0};
    ThreadPool pool(2);
    pool.parallelFor(
        n, width, [&](unsigned slot, u64 lo, u64 hi) {
            ASSERT_LT(slot, width);
            // Adversarial skew: the tail of the range is heavy.
            volatile u64 sink = 0;
            for (u64 i = lo; i < hi; ++i) {
                ++hits[i];
                const u64 cost = i > 7 * n / 8 ? 400 : 1;
                for (u64 w = 0; w < cost; ++w)
                    sink = sink + w;
            }
            u64 span = hi - lo;
            u64 seen = max_span.load(std::memory_order_relaxed);
            while (span > seen &&
                   !max_span.compare_exchange_weak(
                       seen, span, std::memory_order_relaxed)) {
            }
        });
    for (u64 i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    // Every dispatched chunk must be the dynamic size (n / (8 *
    // width), or the range remainder) — far below a static share.
    EXPECT_LE(max_span.load(), n / (8 * width));
    EXPECT_LT(max_span.load(), static_share);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, 4, [&](unsigned slot, u64 lo, u64 hi) {
        EXPECT_LT(slot, 4u);
        for (u64 i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SingleThreadRunsInline)
{
    u64 total = 0; // no atomics needed inline
    parallelFor(100, 1,
                [&](unsigned, u64 lo, u64 hi) { total += hi - lo; });
    EXPECT_EQ(total, 100u);
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::atomic<u64> sum{0};
    parallelFor(3, 16, [&](unsigned, u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i)
            sum.fetch_add(i + 1);
    });
    EXPECT_EQ(sum.load(), 6u);
}

TEST(ParallelFor, ZeroItemsIsNoop)
{
    bool called = false;
    parallelFor(0, 4, [&](unsigned, u64, u64) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPoolDeathTest, NestedRegionsCompleteOnOneWorker)
{
    // The only worker joins the outer region and opens inner ones
    // from inside it. A pool that made the inner region wait for a
    // helper task queued behind that worker would hang, so the child
    // runs under an alarm.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            alarm(20);
            std::atomic<u64> sum{0};
            {
                ThreadPool pool(1);
                pool.parallelFor(
                    64, 2,
                    [&](unsigned, u64 lo, u64 hi) {
                        for (u64 i = lo; i < hi; ++i)
                            pool.parallelFor(
                                16, 2,
                                [&](unsigned, u64 a, u64 b) {
                                    sum.fetch_add(b - a);
                                },
                                1);
                    },
                    1);
            }
            _exit(sum.load() == 64 * 16 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(ThreadPool, RegionCompletesWhileTheOnlyWorkerIsHeld)
{
    // The pool's one worker is held inside another thread's region;
    // a second region must run on its caller alone instead of
    // waiting for that worker.
    ThreadPool pool(1);
    std::atomic<bool> held{false};
    std::atomic<bool> release{false};
    std::thread holder([&] {
        pool.parallelFor(
            1000, 2,
            [&](unsigned slot, u64, u64) {
                if (slot == 0) {
                    while (!held.load())
                        std::this_thread::yield();
                    return;
                }
                held.store(true);
                while (!release.load())
                    std::this_thread::yield();
            },
            1);
    });
    while (!held.load())
        std::this_thread::yield();

    std::atomic<u64> covered{0};
    std::atomic<bool> done{false};
    std::thread other([&] {
        pool.parallelFor(100, 2, [&](unsigned, u64 lo, u64 hi) {
            covered.fetch_add(hi - lo);
        });
        done.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const bool finished_while_held = done.load();
    release.store(true);
    other.join();
    holder.join();
    EXPECT_TRUE(finished_while_held);
    EXPECT_EQ(covered.load(), 100u);
}

TEST(ThreadPool, ConcurrentRegionsKeepEachSlotOnOneThread)
{
    // Several callers share a pool narrower than their regions.
    // Every range is covered exactly once, and within a region each
    // slot stays on one thread: `items` is written without atomics,
    // so under TSan two threads sharing a slot are a reported race.
    // Each chunk yields, so the runners of a region interleave even
    // on a host with fewer free cores than threads.
    constexpr unsigned kWidth = 4;
    constexpr u64 kItems = 97;
    constexpr int kCallers = 4;
    ThreadPool pool(2);
    std::atomic<u64> faults{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&] {
            for (int r = 0; r < 200; ++r) {
                std::vector<std::atomic<u32>> hits(kItems);
                std::array<std::atomic<std::thread::id>, kWidth> owner{};
                std::array<u64, kWidth> items{};
                pool.parallelFor(
                    kItems, kWidth,
                    [&](unsigned slot, u64 lo, u64 hi) {
                        std::thread::id none;
                        const auto self = std::this_thread::get_id();
                        if (!owner[slot].compare_exchange_strong(none,
                                                                 self) &&
                            none != self)
                            faults.fetch_add(1);
                        items[slot] += hi - lo;
                        for (u64 i = lo; i < hi; ++i)
                            hits[i].fetch_add(1);
                        std::this_thread::yield();
                    },
                    1);
                u64 total = 0;
                for (const u64 v : items)
                    total += v;
                faults.fetch_add(total != kItems);
                for (const auto &h : hits)
                    faults.fetch_add(h.load() != 1);
            }
        });
    }
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(faults.load(), 0u);
}

TEST(ParallelForStress, ContendedAccumulation)
{
    // Repeated fork/join with all workers hammering shared atomics;
    // under TSan this flags any unsynchronized access in
    // parallelFor's spawn/join/error plumbing.
    std::atomic<u64> sum{0};
    for (int round = 0; round < 50; ++round) {
        parallelFor(256, 8, [&](unsigned, u64 lo, u64 hi) {
            for (u64 i = lo; i < hi; ++i)
                sum.fetch_add(i, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(sum.load(), 50u * (255u * 256u / 2));
}

TEST(ParallelForStress, ThreadedAlignerMatchesSerial)
{
    // The full software-baseline batch path under contention: eight
    // workers share the index and reference read-only. Results must
    // be bit-identical to the single-threaded run.
    RefGenConfig ref_cfg;
    ref_cfg.length = 20000;
    ref_cfg.seed = 7;
    const Seq ref = generateReference(ref_cfg);

    ReadSimConfig read_cfg;
    read_cfg.readLen = 100;
    read_cfg.numReads = 64;
    read_cfg.seed = 11;
    const auto reads = simulateReads(ref, read_cfg);
    std::vector<Seq> batch;
    batch.reserve(reads.size());
    for (const auto &r : reads)
        batch.push_back(r.seq);

    AlignerConfig serial_cfg;
    serial_cfg.threads = 1;
    const BwaMemLike serial(ref, serial_cfg);

    AlignerConfig threaded_cfg;
    threaded_cfg.threads = 8;
    const BwaMemLike threaded(ref, threaded_cfg);

    const auto a = serial.alignAll(batch);
    const auto b = threaded.alignAll(batch);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pos, b[i].pos) << "read " << i;
        EXPECT_EQ(a[i].score, b[i].score) << "read " << i;
        EXPECT_EQ(a[i].reverse, b[i].reverse) << "read " << i;
    }
}

} // namespace
} // namespace genax

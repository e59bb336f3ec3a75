/**
 * @file
 * Microbenchmarks for the Silla machines: software simulation cost
 * of the edit, scoring and traceback machines across edit bounds.
 * (Hardware throughput is the cycle model in fig14; this measures
 * the simulator itself.)
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "tests/extension_jobs.hh"
#include "silla/silla_edit.hh"
#include "silla/silla_score.hh"
#include "silla/silla_traceback.hh"
#include "sillax/edit_machine.hh"

namespace genax {
namespace {

/** Every result field: score, ends, CIGAR and all five stats. */
bool
sameAlignment(const SillaAlignment &a, const SillaAlignment &b)
{
    return a.score == b.score && a.refEnd == b.refEnd &&
           a.qryEnd == b.qryEnd && a.cigar.str() == b.cigar.str() &&
           a.stats.streamCycles == b.stats.streamCycles &&
           a.stats.reduceCycles == b.stats.reduceCycles &&
           a.stats.collectCycles == b.stats.collectCycles &&
           a.stats.reruns == b.stats.reruns &&
           a.stats.rerunCycles == b.stats.rerunCycles;
}

struct Pair
{
    Seq ref;
    Seq qry;
};

Pair
makePair(u64 seed, size_t len, unsigned edits)
{
    Rng rng(seed);
    Pair p;
    p.ref.reserve(len);
    for (size_t i = 0; i < len; ++i)
        p.ref.push_back(static_cast<Base>(rng.below(4)));
    p.qry = p.ref;
    for (unsigned e = 0; e < edits; ++e) {
        const u64 pos = rng.below(p.qry.size());
        p.qry[pos] = static_cast<Base>((p.qry[pos] + 1 + rng.below(3)) & 3);
    }
    return p;
}

void
BM_SillaEditDistance(benchmark::State &state)
{
    const auto p = makePair(10, 101, 3);
    SillaEdit silla(static_cast<u32>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(silla.distance(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SillaEditDistance)->Arg(8)->Arg(16)->Arg(40);

void
BM_Silla3dEditDistance(benchmark::State &state)
{
    const auto p = makePair(11, 101, 3);
    Silla3D silla(static_cast<u32>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(silla.distance(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Silla3dEditDistance)->Arg(8)->Arg(16);

void
BM_StructuralEditMachine(benchmark::State &state)
{
    const auto p = makePair(12, 101, 3);
    StructuralEditMachine hw(static_cast<u32>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(hw.distance(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StructuralEditMachine)->Arg(8)->Arg(16);

void
BM_SillaScore(benchmark::State &state)
{
    const auto p = makePair(13, 101, 3);
    SillaScore machine(static_cast<u32>(state.range(0)), Scoring{});
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.run(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SillaScore)->Arg(16)->Arg(40);

void
BM_SillaTraceback(benchmark::State &state)
{
    const auto p = makePair(14, 101, 3);
    SillaTraceback machine(static_cast<u32>(state.range(0)), Scoring{});
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.align(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SillaTraceback)->Arg(16)->Arg(40);

// Event-vs-naive legs for the extension lane model: the two
// implementations are bit-identical by contract (pinned by
// test_model_equiv and re-checked here before timing), so the
// items/s ratio between the _Naive and _Event legs is exactly the
// host-side speedup the event path buys at a given edit load.
// Args are {edit bound K, edits injected into the 101bp pair}.

void
BM_SillaTracebackNaive(benchmark::State &state)
{
    const auto p = makePair(14, 101,
                            static_cast<unsigned>(state.range(1)));
    SillaTraceback machine(static_cast<u32>(state.range(0)), Scoring{});
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.alignNaive(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SillaTracebackNaive)
    ->Args({16, 3})
    ->Args({40, 3})
    ->Args({40, 12});

void
BM_SillaTracebackEvent(benchmark::State &state)
{
    const auto p = makePair(14, 101,
                            static_cast<unsigned>(state.range(1)));
    SillaTraceback machine(static_cast<u32>(state.range(0)), Scoring{});
    if (!sameAlignment(machine.alignNaive(p.ref, p.qry),
                       machine.alignEvent(p.ref, p.qry))) {
        state.SkipWithError("event path disagrees with naive oracle");
        return;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.alignEvent(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SillaTracebackEvent)
    ->Args({16, 3})
    ->Args({40, 3})
    ->Args({40, 12});

// The same two paths over extension jobs built the way GenAxSystem
// builds them (tests/extension_jobs.hh), at the system's K = 40.
// Args are {workload: 0 paper-short, 1 divergent-repeats; leg: 0
// naive, 1 event}; per_job is the wall time of one job.

void
BM_SillaTracebackJobs(benchmark::State &state)
{
    const auto workload = state.range(0) == 0
                              ? testing::JobWorkload::PaperShort
                              : testing::JobWorkload::DivergentRepeats;
    const bool event = state.range(1) != 0;
    const auto jobs = testing::makeExtensionJobs(workload, 5, 400);
    SillaTraceback machine(GenAxConfig{}.editBound, Scoring{});
    if (event) {
        for (const auto &job : jobs) {
            if (!sameAlignment(machine.alignNaive(job.ref, job.qry),
                               machine.alignEvent(job.ref, job.qry))) {
                state.SkipWithError(
                    "event path disagrees with naive oracle");
                return;
            }
        }
    }
    for (auto _ : state) {
        for (const auto &job : jobs)
            benchmark::DoNotOptimize(
                event ? machine.alignEvent(job.ref, job.qry)
                      : machine.alignNaive(job.ref, job.qry));
    }
    const auto done = static_cast<double>(state.iterations()) *
                      static_cast<double>(jobs.size());
    state.SetItemsProcessed(static_cast<i64>(done));
    state.counters["per_job"] = benchmark::Counter(
        done, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SillaTracebackJobs)
    ->ArgNames({"workload", "event"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace genax

BENCHMARK_MAIN();

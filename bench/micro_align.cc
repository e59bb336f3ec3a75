/**
 * @file
 * Microbenchmarks for the alignment substrate: full vs banded Gotoh,
 * the batched SIMD scoring and Myers kernels per dispatch tier, Myers
 * bit-vector, WFA and the classic Levenshtein automaton, on
 * Illumina-like pairs.
 */

#include <benchmark/benchmark.h>

#include "align/edit_distance.hh"
#include "align/gotoh.hh"
#include "align/lev_automaton.hh"
#include "align/myers.hh"
#include "align/simd/batch_score.hh"
#include "align/simd/dispatch.hh"
#include "align/simd/myers_batch.hh"
#include "align/wfa.hh"
#include "common/rng.hh"

namespace genax {
namespace {

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
BM_GotohFullExtend(benchmark::State &state)
{
    const auto p = makePair(1, state.range(0), 3);
    const Scoring sc;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            gotohAlign(p.ref, p.qry, sc, AlignMode::Extend));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GotohFullExtend)->Arg(101)->Arg(400);

void
BM_GotohBandedExtend(benchmark::State &state)
{
    const auto p = makePair(2, 101, 3);
    const Scoring sc;
    const u32 band = static_cast<u32>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            gotohBanded(p.ref, p.qry, sc, AlignMode::Extend, band));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GotohBandedExtend)->Arg(16)->Arg(40);

void
BM_EditDistanceDp(benchmark::State &state)
{
    const auto p = makePair(4, state.range(0), 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(editDistance(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EditDistanceDp)->Arg(101)->Arg(400);

void
BM_MyersBitVector(benchmark::State &state)
{
    const auto p = makePair(5, state.range(0), 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(myersEditDistance(p.ref, p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MyersBitVector)->Arg(101)->Arg(400);

void
BM_WfaGlobalScore(benchmark::State &state)
{
    const auto p = makePair(8, state.range(0), 3);
    const Scoring sc;
    for (auto _ : state)
        benchmark::DoNotOptimize(wfaGlobalScore(p.ref, p.qry, sc));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WfaGlobalScore)->Arg(101)->Arg(400);

/**
 * A pinned batch of extension jobs shaped like the batched scoring
 * path's workload. The benchmark arg forces the dispatch tier
 * (KernelTier values: 0 scalar, 1 sse41, 2 avx2), so one run shows
 * the whole ladder side by side; unsupported tiers skip.
 */
struct Batch
{
    std::vector<Pair> pairs;
    std::vector<PackedSeq> windows;
    std::vector<simd::ExtendJob> ext;
    std::vector<simd::MyersJob> myers;
};

Batch
makeBatch(size_t jobs, size_t len, unsigned edits)
{
    Batch b;
    b.pairs.reserve(jobs);
    for (size_t j = 0; j < jobs; ++j)
        b.pairs.push_back(makePair(100 + j, len, edits));
    for (auto &p : b.pairs)
        b.windows.push_back(
            PackedSeq::packWindow(p.ref, 0, p.ref.size()));
    for (size_t j = 0; j < jobs; ++j) {
        b.ext.push_back({&b.windows[j], &b.pairs[j].qry});
        b.myers.push_back({&b.pairs[j].qry, &b.windows[j]});
    }
    return b;
}

bool
forceTierOrSkip(benchmark::State &state)
{
    const auto tier =
        static_cast<simd::KernelTier>(state.range(0));
    if (!simd::setKernelTier(tier).ok()) {
        state.SkipWithError("tier not supported on this host");
        return false;
    }
    return true;
}

void
BM_BatchExtendScore(benchmark::State &state)
{
    if (!forceTierOrSkip(state))
        return;
    const auto b = makeBatch(64, 101, 3);
    const Scoring sc;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            simd::scoreCandidateBatch(b.ext, sc, 16));
    simd::clearKernelTierOverride();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(b.ext.size()));
}
BENCHMARK(BM_BatchExtendScore)->Arg(0)->Arg(1)->Arg(2);

void
BM_MyersBatch(benchmark::State &state)
{
    if (!forceTierOrSkip(state))
        return;
    const auto b = makeBatch(64, 256, 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            simd::myersEditDistanceBatch(b.myers));
    simd::clearKernelTierOverride();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(b.myers.size()));
}
BENCHMARK(BM_MyersBatch)->Arg(0)->Arg(1)->Arg(2);

void
BM_LevenshteinAutomaton(benchmark::State &state)
{
    const auto p = makePair(6, 101, 3);
    LevenshteinAutomaton la(p.ref, static_cast<u32>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(la.distanceTo(p.qry));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LevenshteinAutomaton)->Arg(4)->Arg(8);

} // namespace
} // namespace genax

BENCHMARK_MAIN();

/**
 * @file
 * Microbenchmarks for the seeding accelerator substrate: index
 * construction and per-read SMEM computation (exact and mutated
 * reads, against one index and against a snapshot's segment views),
 * plus the whole-read software aligner for context.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <optional>

#include "common/check.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "seed/fm_seeder.hh"
#include "seed/flat_kmer_index.hh"
#include "seed/index_snapshot.hh"
#include "seed/kmer_index.hh"
#include "seed/smem_engine.hh"
#include "swbase/bwamem_like.hh"

namespace genax {
namespace {

const Seq &
benchRef()
{
    static const Seq ref = [] {
        RefGenConfig cfg;
        cfg.length = 1 << 20;
        cfg.seed = 55;
        return generateReference(cfg);
    }();
    return ref;
}

const std::vector<SimRead> &
benchReads()
{
    static const std::vector<SimRead> reads = [] {
        ReadSimConfig rs;
        rs.numReads = 400;
        rs.seed = 56;
        rs.sampleReverse = false;
        return simulateReads(benchRef(), rs);
    }();
    return reads;
}

void
BM_KmerIndexBuild(benchmark::State &state)
{
    const u32 k = static_cast<u32>(state.range(0));
    for (auto _ : state) {
        KmerIndex index(benchRef(), k);
        benchmark::DoNotOptimize(index.maxHitListSize());
    }
    state.SetBytesProcessed(state.iterations() * benchRef().size());
}
BENCHMARK(BM_KmerIndexBuild)->Arg(10)->Arg(12);

/**
 * One lookup per read position, round-robin over the read set — the
 * access pattern the seeding loop generates. Reported per lookup, so
 * the `time` column is ns/lookup for the layout under test; the
 * `postings_bytes` counter is the average bytes a lookup touches
 * (index-structure lines plus the 4-byte postings it spans).
 */
template <typename Index>
void
runIndexLookups(benchmark::State &state, const Index &index,
                double struct_bytes_per_lookup)
{
    const auto &reads = benchReads();
    size_t r = 0, off = 0;
    u64 lookups = 0, postings = 0;
    for (auto _ : state) {
        const Seq &seq = reads[r].seq;
        const u64 key = index.packKmer(seq, off);
        const auto hits = index.lookup(key);
        benchmark::DoNotOptimize(hits.data());
        postings += hits.size();
        ++lookups;
        off += 12;
        if (off + 12 > seq.size()) {
            off = 0;
            r = (r + 1) % reads.size();
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["postings_bytes"] = benchmark::Counter(
        struct_bytes_per_lookup +
            4.0 * static_cast<double>(postings) /
                static_cast<double>(std::max<u64>(1, lookups)),
        benchmark::Counter::kDefaults);
    state.counters["host_mb"] =
        static_cast<double>(index.hostBytes()) / 1e6;
}

void
BM_IndexLookupDense(benchmark::State &state)
{
    static const KmerIndex index(benchRef(), 12);
    // A CSR lookup reads offsets[kmer] and offsets[kmer + 1]: 8
    // bytes of index structure, nearly always one cold line out of
    // the 64 MB offsets array.
    runIndexLookups(state, index, 8.0);
}
BENCHMARK(BM_IndexLookupDense);

void
BM_IndexLookupFlat(benchmark::State &state)
{
    static const FlatKmerIndex index(benchRef(), 12);
    // Average probe-chain length over the keys this bench hits.
    const auto &reads = benchReads();
    u64 probes = 0, n = 0;
    for (const auto &r : reads) {
        for (size_t off = 0; off + 12 <= r.seq.size(); off += 12) {
            probes += index.probeLength(index.packKmer(r.seq, off));
            ++n;
        }
    }
    const double entry_bytes =
        16.0 * static_cast<double>(probes) /
        static_cast<double>(std::max<u64>(1, n));
    runIndexLookups(state, index, entry_bytes);
}
BENCHMARK(BM_IndexLookupFlat);

/** A reference of `len` bases (same generator settings as
 *  benchRef()), made once per size. */
const Seq &
sizedRef(u64 len)
{
    static std::map<u64, Seq> refs;
    auto it = refs.find(len);
    if (it == refs.end()) {
        RefGenConfig cfg;
        cfg.length = len;
        cfg.seed = 55;
        it = refs.emplace(len, generateReference(cfg)).first;
    }
    return it->second;
}

/** The k = 12 build across segment-, 1 Mbp- and paper-short-sized
 *  references at build widths 1, 2, 4 and 0 (all hardware threads). */
void
BM_FlatIndexBuild(benchmark::State &state)
{
    const Seq &ref = sizedRef(static_cast<u64>(state.range(0)));
    const auto width = static_cast<unsigned>(state.range(1));
    for (auto _ : state) {
        FlatKmerIndex index(ref, 12, width);
        benchmark::DoNotOptimize(index.maxHitListSize());
    }
    state.SetBytesProcessed(state.iterations() * ref.size());
}
BENCHMARK(BM_FlatIndexBuild)
    ->ArgNames({"bases", "width"})
    ->ArgsProduct({{12'000, 1 << 20, 8'000'000}, {1, 2, 4, 0}})
    ->Unit(benchmark::kMillisecond);

void
BM_SmemSeedPerRead(benchmark::State &state)
{
    static const SeedIndex index(benchRef(), 12);
    SmemEngine engine(index, {});
    const auto &reads = benchReads();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.seed(reads[i].seq));
        i = (i + 1) % reads.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmemSeedPerRead);

void
BM_SmemSeedNoFastPath(benchmark::State &state)
{
    static const SeedIndex index(benchRef(), 12);
    SeedingConfig cfg;
    cfg.exactMatchFastPath = false;
    SmemEngine engine(index, cfg);
    const auto &reads = benchReads();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.seed(reads[i].seq));
        i = (i + 1) % reads.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmemSeedNoFastPath);

/** An 8 Mbp, 5%-repeat reference's snapshot in 8 segments at k 12
 *  (the paper-short workload's geometry) and 4,000 readsim reads
 *  with their reverse complements, made once. */
struct SegmentedWorkload
{
    std::optional<IndexSnapshot> snap;
    std::vector<Seq> oriented;
    u64 reads = 4000;
};

const SegmentedWorkload &
segmentedWorkload()
{
    static const SegmentedWorkload w = [] {
        SegmentedWorkload out;
        const Seq &ref = sizedRef(8'000'000);
        const auto dir = std::filesystem::temp_directory_path() /
                         "genax_micro_seed_segments";
        std::filesystem::create_directories(dir);
        const std::string path = (dir / "ref.gxs").string();
        SegmentConfig cfg;
        cfg.k = 12;
        cfg.segmentCount = 8;
        cfg.overlap = 256;
        GENAX_CHECK(IndexSnapshot::build(path, ref,
                                         {{"chr1", 0, ref.size()}}, cfg)
                        .ok(),
                    "snapshot build failed");
        auto snap = IndexSnapshot::open(path);
        GENAX_CHECK(snap.ok(), "snapshot open failed");
        out.snap = std::move(*snap);
        // The mapping outlives the directory entry.
        std::filesystem::remove_all(dir);
        ReadSimConfig rs;
        rs.numReads = out.reads;
        rs.seed = 57;
        for (const SimRead &r : simulateReads(ref, rs)) {
            out.oriented.push_back(r.seq);
            out.oriented.push_back(reverseComplement(r.seq));
        }
        return out;
    }();
    return w;
}

/**
 * GenAx's host seeding at width 1, as GenAxSystem runs it: each read
 * strand's k-mers are looked up once in the whole-reference index,
 * then the strand is seeded against every segment's window. Counters:
 * wall-clock µs per read (all segments, both strands; printed in µs)
 * and modelled index lookups per read.
 */
void
BM_SegmentedSeeding(benchmark::State &state)
{
    const SegmentedWorkload &w = segmentedWorkload();
    std::vector<FlatKmerIndex> windows;
    for (u64 seg = 0; seg < w.snap->segmentCount(); ++seg)
        windows.push_back(w.snap->segmentView(seg));
    const FlatKmerIndex whole = w.snap->index();
    ResolvedRead resolved;
    u64 lookups = 0;
    for (auto _ : state) {
        SmemEngine engine(whole, {});
        for (const Seq &o : w.oriented) {
            engine.resolve(o, resolved);
            for (const FlatKmerIndex &window : windows)
                benchmark::DoNotOptimize(
                    engine.seed(resolved, window).size());
        }
        lookups += engine.stats().indexLookups;
    }
    const double reads =
        static_cast<double>(state.iterations() * w.reads);
    state.counters["time_per_read"] = benchmark::Counter(
        reads, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["lookups_per_read"] =
        static_cast<double>(lookups) / reads;
}
BENCHMARK(BM_SegmentedSeeding)->Unit(benchmark::kMillisecond);

void
BM_FmIndexBuild(benchmark::State &state)
{
    for (auto _ : state) {
        FmSeeder seeder(benchRef(), 12);
        benchmark::DoNotOptimize(seeder.footprintBytes());
    }
    state.SetBytesProcessed(state.iterations() * benchRef().size());
}
BENCHMARK(BM_FmIndexBuild);

void
BM_FmSeedPerRead(benchmark::State &state)
{
    static FmSeeder seeder(benchRef(), 12);
    const auto &reads = benchReads();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(seeder.seed(reads[i].seq));
        i = (i + 1) % reads.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FmSeedPerRead);

void
BM_BwaMemLikeAlignRead(benchmark::State &state)
{
    static const BwaMemLike aligner(benchRef(), [] {
        AlignerConfig cfg;
        cfg.k = 12;
        cfg.band = 16;
        return cfg;
    }());
    const auto &reads = benchReads();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(aligner.alignAll({reads[i].seq}));
        i = (i + 1) % reads.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BwaMemLikeAlignRead);

} // namespace
} // namespace genax

BENCHMARK_MAIN();

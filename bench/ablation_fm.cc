/**
 * @file
 * Seeding-substrate ablation: FM-index (BWA-MEM's, Section IX prior
 * art) vs GenAx's segmented k-mer hash tables.
 *
 * Both produce identical SMEMs (cross-checked in the tests); what
 * differs is the memory behaviour. The FM-index performs a long
 * serialized chain of rank() lookups whose addresses depend on the
 * previous lookup — un-pipelinable random accesses — plus LF walks
 * for every located hit, while the hash engine issues independent
 * k-mer lookups that the banked SRAM can stream. This bench
 * quantifies that argument, plus the footprint trade-off that makes
 * hash tables segmentable into on-chip SRAM.
 */

#include <cstdio>

#include "bench_util.hh"
#include "seed/fm_seeder.hh"
#include "seed/kmer_index.hh"
#include "seed/smem_engine.hh"

using namespace genax;
using namespace genax::bench;

int
main()
{
    const auto w = makeWorkload(1u << 20, 800, 4711);
    const u32 k = 12;

    header("ablation.fm", "FM-index vs segmented hash seeding");
    const double build_hash =
        timeSeconds([&]() { SeedIndex tmp(w.ref, k); });
    SeedIndex kindex(w.ref, k);
    const double build_fm = timeSeconds([&]() { FmSeeder tmp(w.ref, k); });
    FmSeeder fm(w.ref, k);
    row("ablation.fm", "build_time.hash", "-", build_hash, "s");
    row("ablation.fm", "build_time.fm", "-", build_fm, "s");

    SeedingConfig cfg;
    cfg.exactMatchFastPath = false; // identical work on both sides
    SmemEngine hash_engine(kindex, cfg);

    u64 fm_smems = 0, hash_smems = 0;
    const double t_fm = timeSeconds([&]() {
        for (const auto &r : w.reads)
            fm_smems += fm.seed(r.seq).size();
    });
    const double t_hash = timeSeconds([&]() {
        for (const auto &r : w.reads)
            hash_smems += hash_engine.seed(r.seq).size();
    });
    row("ablation.fm", "smems.fm", "per run", fm_smems, "seeds");
    row("ablation.fm", "smems.hash", "per run", hash_smems, "seeds",
        "identical outputs (tested)");

    const double n = static_cast<double>(w.reads.size());
    row("ablation.fm", "fm.rank_calls", "per read",
        static_cast<double>(fm.stats().rankCalls) / n, "accesses",
        "serialized, address-dependent chain");
    row("ablation.fm", "fm.locate_steps", "per read",
        static_cast<double>(fm.stats().locateSteps) / n, "accesses");
    row("ablation.fm", "hash.index_lookups", "per read",
        static_cast<double>(hash_engine.stats().indexLookups) / n,
        "accesses", "independent, SRAM-streamable");
    row("ablation.fm", "access_ratio.fm_vs_hash", "per read",
        static_cast<double>(fm.stats().rankCalls +
                            fm.stats().locateSteps) /
            static_cast<double>(hash_engine.stats().indexLookups),
        "x", "the Section V/IX locality argument");
    row("ablation.fm", "software_time.fm", "per run", t_fm, "s");
    row("ablation.fm", "software_time.hash", "per run", t_hash, "s");

    header("ablation.fm", "memory footprint (this 1 Mbp genome)");
    row("ablation.fm", "fm.footprint", "-",
        static_cast<double>(fm.footprintBytes()) / 1e6, "MB",
        "monolithic: cannot be segmented cheaply");
    row("ablation.fm", "hash.index_table", "-",
        static_cast<double>(kindex.indexTableBytes()) / 1e6, "MB",
        "fixed 4^k entries per segment");
    row("ablation.fm", "hash.position_table", "-",
        static_cast<double>(kindex.positionTableBytes()) / 1e6, "MB",
        "scales with segment length -> fits SRAM");
    return 0;
}

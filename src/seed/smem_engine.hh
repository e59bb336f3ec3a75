/**
 * @file
 * SMEM seeding engine (Section V of the GenAx paper).
 *
 * For each pivot position in the read the engine computes the right
 * maximal exact match (RMEM) of length >= k by intersecting
 * pivot-normalized k-mer hit sets: first striding by k, then binary
 * stride refinement (k/2, k/4, ..., 1). An RMEM contained in a
 * previously discovered one is suppressed, so exactly the
 * super-maximal exact matches (SMEMs) are reported with their
 * reference hit positions.
 *
 * The four accelerator optimizations are independently toggleable so
 * the Figure 16 ablations can be regenerated:
 *
 *  - smemFilter          containment filtering (vs raw hash hits)
 *  - strideRefinement    the binary extension of match length
 *  - binarySearchFallback CAM-overflow binary search (via CamModel)
 *  - probing             choose the second k-mer with the smallest
 *                        hit set among several strides
 *  - exactMatchFastPath  whole-read k-mer intersection shortcut
 *
 * Memory: every position list and intersection scratch vector is
 * bump-allocated from an engine-owned Arena that seed() resets on
 * entry. The returned Smems therefore borrow the engine's arena —
 * they are valid until the next seed() call (or the engine's
 * destruction), which is exactly the consume-before-reseeding
 * lifetime every caller already has. Copying a Smem detaches its
 * positions to the heap (see common/arena.hh) for callers that need
 * to retain seeds longer.
 */

#ifndef GENAX_SEED_SMEM_ENGINE_HH
#define GENAX_SEED_SMEM_ENGINE_HH

#include <vector>

#include "common/arena.hh"
#include "common/dna.hh"
#include "seed/cam.hh"
#include "seed/seed_index.hh"

namespace genax {

/** Seeding configuration (accelerator optimization toggles). */
struct SeedingConfig
{
    u32 camSize = 512;
    bool smemFilter = true;
    bool strideRefinement = true;
    bool binarySearchFallback = true;
    bool probing = true;
    /** Probe lower strides when the stride-k second k-mer's hit list
     *  exceeds this size (streaming it through the CAM gets costly
     *  well before the capacity overflow). */
    u32 probeThreshold = 64;
    bool exactMatchFastPath = true;
};

/** Position list type used on the seeding hot path (arena-backed
 *  when produced by SmemEngine, heap-backed by default). */
using PosList = ArenaVector<u32>;

/** One reported seed: an SMEM and its reference hit positions. */
struct Smem
{
    u32 qryBegin = 0; //!< pivot position in the read
    u32 qryEnd = 0;   //!< one past the last matched read position
    /** Segment-local reference positions where read[qryBegin]
     *  aligns, ascending. Storage may borrow the producing engine's
     *  arena — see the lifetime note in the file header. */
    PosList positions;

    u32 length() const { return qryEnd - qryBegin; }
};

/** Per-engine accumulated statistics. */
struct SeedingStats
{
    u64 reads = 0;
    u64 exactMatchReads = 0;
    u64 indexLookups = 0;
    u64 smems = 0;
    u64 hitsReported = 0;
    CamStats cam;

    double
    avgHitsPerRead() const
    {
        return reads == 0 ? 0.0
                          : static_cast<double>(hitsReported) /
                                static_cast<double>(reads);
    }

    double
    camLookupsPerRead() const
    {
        return reads == 0 ? 0.0
                          : static_cast<double>(cam.lookups()) /
                                static_cast<double>(reads);
    }
};

/** Seeding engine bound to one segment's k-mer index. */
class SmemEngine
{
  public:
    SmemEngine(const SeedIndex &index, const SeedingConfig &cfg);

    /**
     * Compute the SMEM seeds (and hits) of one read.
     *
     * Resets the engine's arena: seeds returned by the previous
     * seed() call are invalidated.
     */
    std::vector<Smem> seed(const Seq &read);

    const SeedingStats &stats() const { return _stats; }
    void resetStats();
    const SeedingConfig &config() const { return _cfg; }

    /** The engine's bump arena (observability for tests/benches). */
    const Arena &arena() const { return _arena; }

  private:
    /** One k-mer's hit list: a view of the index's postings. */
    using Hits = std::span<const u32>;

    /** Normalize a hit list by `offset` into a fresh candidate set. */
    PosList primeCandidates(std::span<const u32> hits, u32 offset);

    /**
     * Right maximal exact match from `pivot`.
     *
     * `hits` holds the hit list of the k-mer at every read offset
     * with a whole k-mer (seed() resolves them once per read in one
     * batched pass); rmem() counts an index lookup wherever it reads
     * one. The returned span views either the index's postings array
     * or the engine's arena; it is valid until the next rmem() or
     * seed() call, so callers must materialize kept candidate sets
     * before moving on — which is the point: the vast majority of
     * RMEMs are contained in an earlier SMEM and get dropped without
     * their hit lists ever being copied.
     *
     * @return matched length L (>= k) and the pivot-normalized hit
     *         set; L == 0 when even the first k-mer has no hits.
     */
    std::pair<u32, std::span<const u32>>
    rmem(const Seq &read, u32 pivot, std::span<const Hits> hits);

    /** Whole-read exact-match shortcut; empty when not exact. */
    PosList tryExactMatch(const Seq &read, std::span<const u64> keys);

    const SeedIndex &_index;
    SeedingConfig _cfg;
    CamModel _cam;
    SeedingStats _stats;
    Arena _arena; //!< per-read scratch; reset by seed()
};

} // namespace genax

#endif // GENAX_SEED_SMEM_ENGINE_HH

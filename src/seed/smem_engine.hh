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

#include <span>
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
    /** Reference positions where read[qryBegin] aligns, relative to
     *  the start of the index's window (a segment's local positions),
     *  ascending. Storage may borrow the producing engine's arena —
     *  see the lifetime note in the file header. */
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

/** The hit list, in a whole index, of the k-mer at every offset of
 *  a read: SmemEngine::resolve() fills one, and seed() seeds it
 *  against any window of that index without a lookup of its own. */
using ResolvedRead = std::vector<std::span<const u32>>;

/** Seeding engine bound to a k-mer index or a window of one. */
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

    /**
     * Resolve the k-mer at every offset of `read` in the engine's
     * index, in one batched pass, into `out`. Counts nothing: seed()
     * counts each lookup where the algorithm makes it. Resets the
     * arena as seed() does.
     */
    void resolve(const Seq &read, ResolvedRead &out);

    /**
     * seed() of a resolved read against `window`, a window of the
     * index it was resolved in: the same SMEMs, positions and counts
     * as seed() of the read by an engine bound to `window`, with each
     * hit list cut from the resolved one instead of looked up again.
     * Resets the arena as seed() does.
     */
    std::vector<Smem> seed(const ResolvedRead &read,
                           const SeedIndex &window);

    const SeedingStats &stats() const { return _stats; }
    void resetStats();
    const SeedingConfig &config() const { return _cfg; }

  private:
    /** One k-mer's hit list: a view of the index's postings. */
    using Hits = std::span<const u32>;

    /** Pivot positions of a hit list at read offset `offset` that
     *  lie at or after `start`, as a fresh candidate set. */
    PosList primeCandidates(std::span<const u32> hits, u32 offset,
                            u64 start);

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
    rmem(u32 len, u32 pivot, std::span<const Hits> hits);

    /** The packed k-mer key at every offset of `read`. */
    ArenaVector<u64> packKeys(const Seq &read);

    /** The read offsets the exact-match shortcut looks up: 0, k,
     *  2k, ... plus a final k-mer ending at the last base. */
    ArenaVector<u32> exactOffsets(u32 len);

    /** Whole-read exact-match shortcut over the hit lists of
     *  exactOffsets(): the one whole-read SMEM of a read of `len`
     *  bases at the pivots at or after `start`, or none. */
    std::vector<Smem> tryExactMatch(std::span<const u32> offsets,
                                    std::span<const Hits> offset_hits,
                                    u32 len, u64 start);

    /** The SMEMs of a read of `len` bases from the hit lists of its
     *  read offsets, with positions relative to `start`. */
    std::vector<Smem> smems(u32 len, std::span<const Hits> hits,
                            u64 start);

    const SeedIndex &_index;
    SeedingConfig _cfg;
    CamModel _cam;
    SeedingStats _stats;
    Arena _arena; //!< per-read scratch; reset by seed()
};

} // namespace genax

#endif // GENAX_SEED_SMEM_ENGINE_HH

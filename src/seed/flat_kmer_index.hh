/**
 * @file
 * Cache-conscious k-mer index: flat open-addressing table over packed
 * 2-bit k-mers plus one contiguous postings array.
 *
 * The dense CSR KmerIndex models the paper's hardware tables exactly
 * (4^k entries, no tags), but as a *host* data structure it wastes
 * cache: at k = 12 the offsets array is 64 MB of which a segment's
 * reads touch a sparse subset, so nearly every lookup is two cold
 * cache lines plus TLB pressure. This layout stores only the k-mers
 * that occur: a power-of-two open-addressing table of
 * {key, offset, count} entries (16 bytes, linear probing, <= 50%
 * load) over a single contiguous u32 postings array. A lookup is one
 * probe sequence (almost always one cache line) and the postings for
 * a key are adjacent, in ascending position order — the same order
 * the CSR layout reports, so every downstream consumer sees identical
 * hit lists (the equivalence suite diffs the two layouts
 * exhaustively).
 *
 * A presence filter sits in front of the table: a blocked Bloom
 * filter of about one byte per distinct k-mer (its size is
 * distinctKmers() rounded up to a power of two, at least one cache
 * line), where each key sets up to four bits of one 64-bit word chosen
 * by a hash unrelated to the slot hash. It has no false negatives, so
 * lookup() answers most absent k-mers — the ones a sequencing error
 * or a variant makes — from one small, cache-resident word instead
 * of a probe of the table. lookupBatch() resolves many
 * keys at once with the filter and table misses of a group in flight
 * together.
 *
 * The build has no serial pass. On up to `threads` pool runners, a
 * counting sort of every k-mer's (key, position) word writes the
 * postings in key order and marks where each key's extent starts;
 * the table is then filled by ordered linear probing with each key's
 * first occurrence as its priority, which yields exactly the slot
 * layout of inserting the k-mers in reference order (the layout
 * snapshots store), and the same pass sets each key's filter bits.
 * The table, postings and filter are byte-identical at every width
 * (DESIGN.md §6b-bis).
 *
 * A window of the index (window()) answers only the k-mers that lie
 * wholly inside a range of reference positions: each hit list is cut
 * to that range. Postings are sorted, so a window's lists are, by
 * construction, those of an index built over the window's bases,
 * shifted by its start. GenAx's segments are windows of the one
 * whole-reference index, and the host holds no per-segment table.
 *
 * All hardware footprint reporting (indexTableBytes,
 * positionTableBytes) still models the paper's dense SRAM tables —
 * the DRAM streaming model and Table II must not change because the
 * host got a better data structure; hostBytes() reports the actual
 * malloc'd footprint for the microbenches.
 */

#ifndef GENAX_SEED_FLAT_KMER_INDEX_HH
#define GENAX_SEED_FLAT_KMER_INDEX_HH

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/dna.hh"
#include "common/types.hh"

namespace genax {

/** Additive constant of the splitmix64 slot hash. Serialized into
 *  snapshot fingerprints: a snapshot built with a different hash
 *  stream can never be probed by this build's lookup(), so the
 *  constant is part of the format identity. */
inline constexpr u64 kFlatIndexHashSeed = 0x9e3779b97f4a7c15ULL;

/** Seed of the presence filter's hash (a murmur3 finalizer, so a
 *  key's filter word is unrelated to its slot). Snapshots store the
 *  filter bits, so this and FlatKmerIndex::filterProbe are part of the
 *  GXSNAP format (kSnapshotKindVersion). */
inline constexpr u64 kFlatFilterHashSeed = 0x2545f4914f6cdd1dULL;

/** Open-addressing k-mer index of a reference, or a window of one. */
class FlatKmerIndex
{
  public:
    /**
     * Build the table for a reference.
     *
     * @param ref     the reference's bases (at most 2^31 of them)
     * @param k       k-mer length (1..13; the paper uses 12)
     * @param threads build width on ThreadPool::global(); 0 means all
     *                hardware threads. Call from a caller thread,
     *                never from inside a pool region.
     */
    FlatKmerIndex(const Seq &ref, u32 k, unsigned threads = 1);

    /** One occupied table slot: a key's postings extent. The layout
     *  is serialized verbatim into index snapshots — POD, 16 bytes,
     *  no implicit padding (static_asserts in flat_kmer_index.cc). */
    struct Entry
    {
        u64 key = kEmptyKey;
        u32 offset = 0;
        u32 count = 0;
    };

    /**
     * Non-owning view over externally held storage — the zero-copy
     * path for mmap'ed index snapshots (src/seed/index_snapshot.hh).
     * The caller guarantees the spans outlive the view, that `table`
     * is a power-of-two open-addressing table laid out exactly as
     * the building constructor produces, that every occupied
     * entry's postings extent lies inside `positions`, and that
     * `filter` has filterWords(distinct) words with every occupied
     * key's bits set (the snapshot loader validates all of this once
     * at open, after the checksum walk).
     */
    static FlatKmerIndex view(std::span<const Entry> table,
                              std::span<const u32> positions,
                              std::span<const u64> filter, u32 k,
                              u64 seg_len, u32 max_hits, u64 distinct);

    /** True when this index borrows its storage (a snapshot view or
     *  a window) rather than owning it. */
    bool borrowed() const { return _tablePtr != _table.data(); }

    /**
     * The window [start, start + len) of this whole index, borrowing
     * its storage (which must outlive the window): lookups return
     * only the postings in [start, start + len - k], the k-mers that
     * lie wholly inside the window, still in reference coordinates.
     * SmemEngine reports seeds relative to windowStart().
     */
    FlatKmerIndex window(u64 start, u64 len) const;

    /** First reference position of the window (0 for a whole
     *  index). */
    u64 windowStart() const { return _winStart; }

    /** The part of a hit list of the whole index inside this window;
     *  the list itself when this is no window. */
    std::span<const u32>
    clip(std::span<const u32> hits) const
    {
        if (hits.empty() ||
            (hits.front() >= _winStart && hits.back() < _winEnd))
            return hits;
        if (hits.back() < _winStart || hits.front() >= _winEnd)
            return {};
        const auto lo = std::lower_bound(hits.begin(), hits.end(),
                                         _winStart);
        return {lo, std::lower_bound(lo, hits.end(), _winEnd)};
    }

    // Move-only: moves transfer vector buffers, so all spans and
    // pointers stay valid; view() and window() make borrowing
    // copies.
    FlatKmerIndex(const FlatKmerIndex &) = delete;
    FlatKmerIndex &operator=(const FlatKmerIndex &) = delete;
    FlatKmerIndex(FlatKmerIndex &&other) noexcept = default;
    FlatKmerIndex &operator=(FlatKmerIndex &&other) noexcept = default;
    ~FlatKmerIndex() = default;

    /** The raw slot array (occupied and empty), for serialization. */
    std::span<const Entry>
    tableSpan() const
    {
        return {_tablePtr, _slots};
    }

    /** The contiguous postings array, for serialization. */
    std::span<const u32>
    positionsSpan() const
    {
        return {_posPtr, _posCount};
    }

    /** The presence filter's words, for serialization. */
    std::span<const u64>
    filterSpan() const
    {
        return {_filterPtr, _filterWords};
    }

    /** Words of the presence filter of an index with `distinct`
     *  keys: one byte per key rounded up to a power of two, and at
     *  least one 64-byte cache line. */
    static u64
    filterWords(u64 distinct)
    {
        return std::bit_ceil(std::max<u64>(distinct, 64)) / 8;
    }

    /** Where a key lives in a filter of `words` words (a power of
     *  two): one word, and the up-to-four bits the key sets in it. */
    struct FilterProbe
    {
        u64 word;
        u64 bits;
    };

    static FilterProbe
    filterProbe(u64 key, u64 words)
    {
        // murmur3 fmix64: the low bits pick the word, the top 24 bits
        // four bit positions in it. An index holds at most 2^31 keys,
        // so at most 2^28 words, and the two fields never overlap.
        u64 h = key ^ kFlatFilterHashSeed;
        h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
        h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
        h ^= h >> 33;
        return {h & (words - 1),
                u64{1} << (h >> 58) | u64{1} << ((h >> 52) & 63) |
                    u64{1} << ((h >> 46) & 63) |
                    u64{1} << ((h >> 40) & 63)};
    }

    /** False when the key is certainly absent; true for every present
     *  key and a few absent ones (the filter's false positives). */
    bool
    mayContain(u64 kmer) const
    {
        const FilterProbe p = filterProbe(kmer, _filterWords);
        return (_filterPtr[p.word] & p.bits) == p.bits;
    }

    /** Sorted occurrence positions of a packed k-mer (in the
     *  window, for a window). */
    std::span<const u32>
    lookup(u64 kmer) const
    {
        if (!mayContain(kmer))
            return {};
        return clip(probe(kmer));
    }

    /** Hit-list length only — the `{count}` metadata consumers use
     *  to reserve() before filling. */
    u32
    lookupCount(u64 kmer) const
    {
        return static_cast<u32>(lookup(kmer).size());
    }

    /**
     * lookup() of every key, into the parallel `hits`: the filter
     * words of a group of keys are fetched together, then the table
     * lines of the keys the filter passes, so consecutive lookups
     * overlap their cache misses instead of serializing on them.
     */
    void lookupBatch(std::span<const u64> keys,
                     std::span<std::span<const u32>> hits) const;

    /** Pack the k bases starting at s[pos] into a k-mer key. */
    u64
    packKmer(const Seq &s, size_t pos) const
    {
        u64 key = 0;
        for (u32 i = 0; i < _k; ++i)
            key |= static_cast<u64>(s[pos + i] & 3) << (2 * i);
        return key;
    }

    u32 k() const { return _k; }
    /** Bases the index covers: the reference's, or the window's. */
    u64 segmentLength() const { return _segLen; }

    /** Hardware table entry width (see KmerIndex::kEntryBytes — the
     *  footprint model is shared between both layouts). */
    static constexpr u64 kEntryBytes = 3;

    /** Hardware index-table footprint (dense 4^k entries — the SRAM
     *  the paper streams, not the host table). */
    u64
    indexTableBytes() const
    {
        return (u64{1} << (2 * _k)) * kEntryBytes;
    }

    /** Hardware position-table footprint in bytes (of the whole
     *  index, for a window, as every shape accessor below). */
    u64
    positionTableBytes() const
    {
        return _posCount * kEntryBytes;
    }

    /** Largest hit-list size in the index (CAM sizing input). */
    u32 maxHitListSize() const { return _maxHits; }

    /** Distinct k-mers present in the index. */
    u64 distinctKmers() const { return _distinct; }

    /** Actual host memory footprint (table + postings + filter),
     *  for the layout microbenches. A borrowed view reports the bytes
     *  it aliases, not bytes it malloc'd. */
    u64
    hostBytes() const
    {
        return _slots * sizeof(Entry) + _posCount * sizeof(u32) +
               _filterWords * sizeof(u64);
    }

    /** Table entries a probe for kmer examines — the probe-chain
     *  length (1 on a first-slot hit or miss), whether or not the
     *  filter spares lookup() the probe. Diagnostics and the
     *  bytes-touched microbench. */
    u32
    probeLength(u64 kmer) const
    {
        u64 slot = slotOf(kmer);
        u32 probes = 1;
        while (_tablePtr[slot].key != kmer &&
               _tablePtr[slot].key != kEmptyKey) {
            slot = (slot + 1) & _mask;
            ++probes;
        }
        return probes;
    }

    static constexpr u64 kEmptyKey = ~u64{0};

  private:
    struct Builder; //!< the building constructor's phases

    /** Ask the kernel to back [p, p + bytes) with transparent huge
     *  pages when it is big enough to gain: the build writes its
     *  arrays at random, so this cuts page faults and TLB misses.
     *  Advice only; without it (or off Linux) nothing changes. */
    static void adviseHugePages(void *p, size_t bytes);

    /** Value-initialization is a no-op, so the build sizes its arrays
     *  without touching them and the runners that fill them
     *  first-touch their own ranges; big arrays ask for huge pages. */
    template <typename T>
    struct UninitAllocator : std::allocator<T>
    {
        UninitAllocator() = default;
        template <typename U>
        UninitAllocator(const UninitAllocator<U> &) noexcept
        {
        }
        T *
        allocate(size_t n)
        {
            T *p = std::allocator<T>::allocate(n);
            adviseHugePages(p, n * sizeof(T));
            return p;
        }
        template <typename U>
        void
        construct(U *) noexcept
        {
        }
        template <typename U, typename... Args>
        void
        construct(U *p, Args &&...args)
        {
            std::construct_at(p, std::forward<Args>(args)...);
        }
    };

    FlatKmerIndex() = default; //!< storage bound by view()

    /** Point the lookup pointers at the owning vectors (after a
     *  build). */
    void
    bindOwned()
    {
        _tablePtr = _table.data();
        _slots = _table.size();
        _posPtr = _positions.data();
        _posCount = _positions.size();
        _filterPtr = _filter.data();
        _filterWords = _filter.size();
    }

    /** The table walk behind lookup(), without the filter. */
    std::span<const u32>
    probe(u64 kmer) const
    {
        u64 slot = slotOf(kmer);
        for (;;) {
            const Entry &e = _tablePtr[slot];
            if (e.key == kmer)
                return {_posPtr + e.offset, e.count};
            if (e.key == kEmptyKey)
                return {};
            slot = (slot + 1) & _mask;
        }
    }

    u64
    slotOf(u64 key) const
    {
        // splitmix64 finalizer: packed k-mers differ in low bits only
        // for near-identical sequence, so mix before masking.
        u64 h = key + kFlatIndexHashSeed;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
        return (h ^ (h >> 31)) & _mask;
    }

    u32 _k = 0;
    u64 _segLen = 0;
    /** The postings a window answers, [_winStart, _winEnd); all of
     *  them in a whole index. */
    u64 _winStart = 0;
    u64 _winEnd = kEmptyKey;
    u32 _maxHits = 0;
    u64 _distinct = 0;
    u64 _mask = 0;
    std::vector<Entry, UninitAllocator<Entry>> _table;
    /** Contiguous postings, per-key extents in ascending key order. */
    std::vector<u32, UninitAllocator<u32>> _positions;
    /** Presence filter, filterWords(_distinct) words. */
    std::vector<u64, UninitAllocator<u64>> _filter;
    // All accessors go through these; they alias the vectors above
    // when owning, or external snapshot storage when borrowed.
    const Entry *_tablePtr = nullptr;
    u64 _slots = 0;
    const u32 *_posPtr = nullptr;
    u64 _posCount = 0;
    const u64 *_filterPtr = nullptr;
    u64 _filterWords = 0;
};

} // namespace genax

#endif // GENAX_SEED_FLAT_KMER_INDEX_HH

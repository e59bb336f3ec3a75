/**
 * @file
 * k-mer index and position tables for one genome segment (Section V).
 *
 * The index table has one entry per possible k-mer (4^k entries, no
 * tags or collision handling — the reason the paper picks k = 12)
 * pointing into a position table that lists, in ascending order, the
 * reference offsets where the k-mer occurs. Both tables are built
 * offline per segment and streamed into on-chip SRAM at run time.
 */

#ifndef GENAX_SEED_KMER_INDEX_HH
#define GENAX_SEED_KMER_INDEX_HH

#include <span>
#include <vector>

#include "common/dna.hh"
#include "common/types.hh"

namespace genax {

/** Index + position tables for one reference segment. */
class KmerIndex
{
  public:
    /**
     * Build the tables for a reference segment.
     *
     * @param ref the segment's bases
     * @param k   k-mer length (1..13; the paper uses 12)
     */
    KmerIndex(const Seq &ref, u32 k);

    /** Sorted occurrence positions of a packed k-mer. */
    std::span<const u32>
    lookup(u64 kmer) const
    {
        const u32 begin = _offsets[kmer];
        const u32 end = _offsets[kmer + 1];
        return {_positions.data() + begin, _positions.data() + end};
    }

    /** Hit-list length only — the `{count}` metadata consumers use
     *  to reserve() before filling. */
    u32
    lookupCount(u64 kmer) const
    {
        return _offsets[kmer + 1] - _offsets[kmer];
    }

    /** Pack the k bases starting at p[pos] into a k-mer key. */
    u64
    packKmer(const Seq &s, size_t pos) const
    {
        u64 key = 0;
        for (u32 i = 0; i < _k; ++i)
            key |= static_cast<u64>(s[pos + i] & 3) << (2 * i);
        return key;
    }

    u32 k() const { return _k; }
    u64 segmentLength() const { return _segLen; }

    /**
     * Hardware table entry width. The paper's SRAM tables use 3-byte
     * entries (48 MB index + 18 MB positions for a 6 Mbp segment at
     * k = 12); the in-memory model uses u32 for convenience but all
     * footprint reporting assumes the hardware width.
     */
    static constexpr u64 kEntryBytes = 3;

    /** Index-table footprint in bytes (4^k entries). */
    u64 indexTableBytes() const;

    /** Position-table footprint in bytes. */
    u64 positionTableBytes() const;

    /** Largest hit-list size in this segment (CAM sizing input). */
    u32 maxHitListSize() const { return _maxHits; }

    /** Host-resident footprint of the CSR arrays (the micro benches
     *  compare this against FlatKmerIndex::hostBytes()). */
    u64
    hostBytes() const
    {
        return _offsets.size() * sizeof(u32) +
               _positions.size() * sizeof(u32);
    }

  private:
    u32 _k;
    u64 _segLen;
    u32 _maxHits = 0;
    std::vector<u32> _offsets;   //!< CSR offsets, 4^k + 1 entries
    std::vector<u32> _positions; //!< occurrence positions per k-mer
};

} // namespace genax

#endif // GENAX_SEED_KMER_INDEX_HH

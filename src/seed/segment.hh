/**
 * @file
 * Genome segmentation (Sections V and VI).
 *
 * GenAx segments the reference genome (512 segments for GRCh38) so
 * each segment's index/position tables fit in on-chip SRAM and can be
 * streamed in once per pass. Segments overlap by readLen - 1 bases so
 * every read alignment lies entirely inside at least one segment.
 *
 * Indexes are built on demand, one segment at a time — mirroring the
 * hardware, which holds exactly one segment's tables in SRAM.
 */

#ifndef GENAX_SEED_SEGMENT_HH
#define GENAX_SEED_SEGMENT_HH

#include <vector>

#include "common/dna.hh"
#include "seed/seed_index.hh"

namespace genax {

/** Segmentation parameters. */
struct SegmentConfig
{
    u64 segmentCount = 512;
    u64 overlap = 128; //!< >= readLen - 1 so no alignment is split
    u32 k = 12;
};

/** A segmented view of a reference genome. */
class GenomeSegments
{
  public:
    GenomeSegments(const Seq &ref, const SegmentConfig &cfg);

    u64 count() const { return _starts.size(); }

    /** Global start coordinate of segment i (its local position 0). */
    u64 start(u64 i) const { return _starts[i]; }

    /** Segment length including the overlap tail. */
    u64 length(u64 i) const { return _lengths[i]; }

    /** Copy of the segment's bases. */
    Seq bases(u64 i) const;

    /** Build the segment's dense hardware-model index (the per-pass
     *  SRAM streaming; also the oracle layout). */
    KmerIndex buildIndex(u64 i) const;

    /** Build the segment's seeding index (see FlatKmerIndex for the
     *  build width; 0 means all hardware threads). */
    SeedIndex buildSeedIndex(u64 i, unsigned threads = 1) const;

    /** Convert a segment-local position to a global one. */
    u64 toGlobal(u64 seg, u64 local) const { return _starts[seg] + local; }

    // ------------- table footprints for the DRAM streaming model

    /** Packed 2-bit reference bytes streamed per segment. */
    u64 refBytes(u64 i) const { return (length(i) + 3) / 4; }

    /** Index-table bytes per segment (4^k hardware entries). */
    u64
    indexTableBytes() const
    {
        return (u64{1} << (2 * _cfg.k)) * KmerIndex::kEntryBytes;
    }

    /** Position-table bytes for segment i. */
    u64
    positionTableBytes(u64 i) const
    {
        const u64 len = length(i);
        return (len >= _cfg.k ? len - _cfg.k + 1 : 0) *
               KmerIndex::kEntryBytes;
    }

    const SegmentConfig &config() const { return _cfg; }

  private:
    const Seq &_ref;
    SegmentConfig _cfg;
    std::vector<u64> _starts;
    std::vector<u64> _lengths;
};

} // namespace genax

#endif // GENAX_SEED_SEGMENT_HH

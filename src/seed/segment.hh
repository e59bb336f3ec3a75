/**
 * @file
 * Genome segmentation (Sections V and VI).
 *
 * GenAx segments the reference genome (512 segments for GRCh38) so
 * each segment's index/position tables fit in on-chip SRAM and can be
 * streamed in once per pass. Segments overlap by readLen - 1 bases so
 * every read alignment lies entirely inside at least one segment.
 *
 * The host keeps no per-segment tables: a segment is a position
 * window of the one whole-reference k-mer index
 * (FlatKmerIndex::window), and the footprint formulas below model
 * the SRAM tables the hardware streams per segment.
 */

#ifndef GENAX_SEED_SEGMENT_HH
#define GENAX_SEED_SEGMENT_HH

#include <algorithm>
#include <span>

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

/**
 * A segmented view of a reference genome: segment i starts at
 * i * base, base = ceil(reference length / cfg.segmentCount), and runs
 * cfg.overlap bases into the next one, cut at the end of the
 * reference. Segments that would start past the end are dropped, so
 * count() can fall short of cfg.segmentCount.
 */
class GenomeSegments
{
  public:
    GenomeSegments() = default;
    GenomeSegments(std::span<const Base> ref, const SegmentConfig &cfg);

    u64 count() const { return _count; }

    /** Global start coordinate of segment i (its local position 0). */
    u64 start(u64 i) const { return i * _base; }

    /** Segment length including the overlap tail. */
    u64
    length(u64 i) const
    {
        return std::min(_ref.size() - start(i), _base + _overlap);
    }

    /** Copy of the segment's bases. */
    Seq bases(u64 i) const;

    /** Convert a segment-local position to a global one. */
    u64 toGlobal(u64 seg, u64 local) const { return start(seg) + local; }

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
    std::span<const Base> _ref;
    SegmentConfig _cfg;
    u64 _base = 0;
    u64 _overlap = 0; //!< cut at the reference length
    u64 _count = 0;
};

} // namespace genax

#endif // GENAX_SEED_SEGMENT_HH

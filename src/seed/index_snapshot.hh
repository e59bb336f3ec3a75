/**
 * @file
 * On-disk whole-reference index snapshots ("GXSNAP") over the
 * crash-safe store container (io/store.hh): the concatenated
 * reference bases, the contig map, the segmentation parameters and
 * one whole-reference FlatKmerIndex — its table, postings and
 * presence filter, byte-identical to FlatKmerIndex(ref, k). genax_index
 * writes one; genax_align --index and genax_serve --index mmap it,
 * and neither engine builds an index. GenAx's segments are windows
 * of that one index.
 *
 * Every snapshot embeds an IndexFingerprint (k, slot-hash seed,
 * reference length and checksum). Loaders compare it against the
 * reference the caller actually parsed, so a snapshot can never be
 * applied to the wrong genome: a mismatch is a hard
 * FailedPrecondition, distinct from corruption or another format
 * version (InvalidInput from open()), which callers may treat as
 * "rebuild from FASTA".
 *
 * Lifetime rule for zero-copy views: IndexSnapshot owns the backing
 * bytes (mmap or owned read); every FlatKmerIndex view and span it
 * hands out aliases those bytes and must not outlive it. Moving the
 * owner keeps views valid; destroying it invalidates them.
 */

#ifndef GENAX_SEED_INDEX_SNAPSHOT_HH
#define GENAX_SEED_INDEX_SNAPSHOT_HH

#include <span>
#include <string>
#include <vector>

#include "common/dna.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "io/store.hh"
#include "seed/flat_kmer_index.hh"
#include "seed/segment.hh"

namespace genax {

// ------------------------------------------------------------------
// Fingerprint

/**
 * Identity of an index build: a snapshot is only usable against the
 * exact reference and parameters it was built from. Serialized
 * verbatim into snapshot meta sections (32-byte little-endian POD).
 */
struct IndexFingerprint
{
    u32 k = 0;
    u32 reserved = 0; //!< zero on disk
    u64 hashSeed = kFlatIndexHashSeed;
    u64 refLength = 0;
    u64 refChecksum = 0; //!< storeChecksum over the raw base bytes
};
static_assert(sizeof(IndexFingerprint) == 32);
static_assert(std::is_trivially_copyable_v<IndexFingerprint>);

/** Fingerprint of a reference sequence at k-mer length k. */
IndexFingerprint referenceFingerprint(const Seq &ref, u32 k);

/** OK when `got` matches `want` field-for-field; FailedPrecondition
 *  naming the first mismatching field otherwise. */
Status checkFingerprint(const IndexFingerprint &got,
                        const IndexFingerprint &want);

// ------------------------------------------------------------------
// Whole-reference snapshots ("GXSNAP")

/** GXSNAP format version this build writes and reads. Version 3
 *  stores one whole-reference index where version 2 stored one per
 *  segment; open() rejects any other version, so an older file takes
 *  the rebuild path instead of being misread. */
inline constexpr u32 kSnapshotKindVersion = 3;

/** Contig descriptor inside a snapshot (mirrors ContigMap::Contig
 *  without depending on the genax layer). */
struct SnapshotContig
{
    std::string name;
    u64 start = 0;  //!< concatenated-space start
    u64 length = 0; //!< bases
};

/**
 * A validated, opened whole-reference snapshot. All structural
 * validation (segmentation, table shape, postings extents, filter)
 * happens at open(), after the store layer's checksum walk — index(),
 * segmentView() and the accessors are infallible afterwards.
 */
class IndexSnapshot
{
  public:
    /**
     * Build a snapshot of `ref` under `cfg` and write it atomically
     * to `path`. Builds the whole-reference FlatKmerIndex in memory
     * first (O(reference) peak), at every hardware thread. The bytes
     * do not depend on the width. The segment count and overlap are
     * recorded for the GenAx engine; `contigs` describe the
     * concatenated layout for SAM headers.
     */
    static Status build(const std::string &path, const Seq &ref,
                        const std::vector<SnapshotContig> &contigs,
                        const SegmentConfig &cfg);

    /**
     * Open and fully validate a snapshot (mmap preferred; owned read
     * on mmap failure). The table, postings and filter are stored in
     * fixed-size slices, so the checksum walk and the table walk
     * both run on every core. Corruption and any format version but
     * kSnapshotKindVersion are InvalidInput; OS trouble is IoError.
     */
    static StatusOr<IndexSnapshot> open(const std::string &path,
                                        bool prefer_mmap = true);

    const IndexFingerprint &fingerprint() const { return _fp; }
    u32 k() const { return _fp.k; }
    u64 referenceLength() const { return _fp.refLength; }
    u64 segmentCount() const { return _segs.count(); }
    u64 segmentOverlap() const { return _segs.config().overlap; }
    const std::vector<SnapshotContig> &contigs() const
    {
        return _contigs;
    }
    bool mapped() const { return _store.mapped(); }
    const std::string &path() const { return _store.path(); }

    /** Copy of the stored reference bases (2-bit codes, one per
     *  byte — same encoding as Seq). */
    Seq referenceSequence() const;

    /** Global start / length (overlap included) of segment i. */
    u64 segmentStart(u64 i) const { return _segs.start(i); }
    u64 segmentLength(u64 i) const { return _segs.length(i); }

    /** The whole-reference index, borrowed from the file — cheap (no
     *  allocation), valid while this snapshot lives. */
    FlatKmerIndex index() const;

    /** Segment i's window of index(). */
    FlatKmerIndex segmentView(u64 i) const;

  private:
    IndexSnapshot() = default;

    StoreFile _store;
    IndexFingerprint _fp;
    GenomeSegments _segs;
    std::vector<SnapshotContig> _contigs;
    std::span<const u8> _ref;
    std::span<const FlatKmerIndex::Entry> _table;
    std::span<const u32> _positions;
    std::span<const u64> _filter;
    u64 _distinct = 0;
    u32 _maxHits = 0;
};

} // namespace genax

#endif // GENAX_SEED_INDEX_SNAPSHOT_HH

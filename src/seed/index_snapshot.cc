#include "seed/index_snapshot.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/check.hh"
#include "common/threadpool.hh"

namespace genax {

namespace {

constexpr std::string_view kSnapshotKind = "GXSNAP";

/** Contig names longer than this are rejected as corrupt. */
constexpr u64 kMaxContigName = u64{1} << 16;

/** "meta" section of a whole-reference ("GXSNAP") snapshot: the
 *  fingerprint, the segmentation and the shape of the index. */
struct SnapshotMeta
{
    IndexFingerprint fp;
    u64 segmentCount;
    u64 segmentOverlap;
    u64 contigCount;
    u64 slots;     //!< table slots
    u64 positions; //!< postings entries
    u64 distinct;  //!< occupied slots
    u32 maxHits;
    u32 pad;
};
static_assert(sizeof(SnapshotMeta) == 88);
static_assert(std::is_trivially_copyable_v<SnapshotMeta>);

/** The table, the postings and the filter are each stored as
 *  sections "tab0", "tab1", ... of this many bytes (the last one
 *  shorter), so no one core checksums or walks a whole array. */
constexpr u64 kSliceBytes = u64{8} << 20;

/** Table entries one runner of the open-time table walk takes. */
constexpr u64 kWalkEntries = u64{1} << 16;

u64
sliceCount(u64 bytes)
{
    return std::max<u64>(1, (bytes + kSliceBytes - 1) / kSliceBytes);
}

void
addSlices(StoreWriter &w, const std::string &tag, const void *data,
          u64 bytes)
{
    for (u64 i = 0; i < sliceCount(bytes); ++i) {
        const u64 at = i * kSliceBytes;
        w.addSection(tag + std::to_string(i),
                     static_cast<const u8 *>(data) + at,
                     std::min(kSliceBytes, bytes - at));
    }
}

Status
snapshotError(const std::string &path, const std::string &what)
{
    return invalidInputError("snapshot " + path + ": " + what);
}

/** The slices tag0, tag1, ... of an array of `count` T, as one span:
 *  every slice has the size the layout gives it and follows the one
 *  before directly in the file (whole slices are multiples of the
 *  store alignment, so the writer puts no padding between them). */
template <typename T>
StatusOr<std::span<const T>>
joinSlices(const StoreFile &store, const std::string &tag, u64 count)
{
    if (count > store.fileBytes() / sizeof(T))
        return snapshotError(store.path(),
                             tag + ": " + std::to_string(count) +
                                 " entries cannot fit the file");
    const u64 bytes = count * sizeof(T);
    const u8 *first = nullptr;
    for (u64 i = 0, at = 0; i < sliceCount(bytes); ++i) {
        const std::string name = tag + std::to_string(i);
        GENAX_TRY_ASSIGN(const std::span<const u8> slice,
                         store.section(name));
        if (i == 0)
            first = slice.data();
        if (slice.size() != std::min(kSliceBytes, bytes - at) ||
            slice.data() != first + at)
            return snapshotError(store.path(),
                                 "section '" + name +
                                     "' is not where the layout puts it");
        at += slice.size();
    }
    return std::span<const T>(reinterpret_cast<const T *>(first), count);
}

/**
 * Structural validation of the table against its postings array and
 * presence filter: the store checksums already rule out on-disk
 * corruption, so this is defense-in-depth against writer bugs and
 * version skew — everything lookup() would otherwise trust blindly,
 * including that the filter never hides a present key. The walk runs
 * on every core in chunks; the lowest failing chunk wins, as in a
 * serial walk.
 */
Status
validateTable(const std::string &path,
              std::span<const FlatKmerIndex::Entry> table, u64 positions,
              std::span<const u64> filter, u64 distinct, u32 max_hits)
{
    if (table.size() < 2 || !std::has_single_bit(table.size()))
        return snapshotError(path,
                             "table size " + std::to_string(table.size()) +
                                 " is not a power of two >= 2");
    const u64 chunks = (table.size() + kWalkEntries - 1) / kWalkEntries;
    std::vector<Status> errors(chunks);
    std::vector<u64> occupied(chunks, 0);
    parallelFor(chunks, 0, [&](unsigned, u64 lo, u64 hi) {
        for (u64 c = lo; c < hi; ++c) {
            const u64 end = std::min(table.size(), (c + 1) * kWalkEntries);
            u64 n = 0; // counted locally: runners share occupied's lines
            for (u64 i = c * kWalkEntries; i < end; ++i) {
                const FlatKmerIndex::Entry &e = table[i];
                if (e.key == FlatKmerIndex::kEmptyKey)
                    continue;
                ++n;
                if (u64{e.offset} + e.count > positions) {
                    errors[c] = snapshotError(
                        path, "postings extent out of bounds");
                    break;
                }
                if (e.count > max_hits) {
                    errors[c] = snapshotError(
                        path, "entry count exceeds maxHits");
                    break;
                }
                const auto p =
                    FlatKmerIndex::filterProbe(e.key, filter.size());
                if ((filter[p.word] & p.bits) != p.bits) {
                    errors[c] = snapshotError(
                        path, "filter misses key " + std::to_string(e.key));
                    break;
                }
            }
            occupied[c] = n;
        }
    });
    for (const Status &st : errors)
        GENAX_TRY(st);
    const u64 total = std::accumulate(occupied.begin(), occupied.end(),
                                      u64{0});
    if (total != distinct)
        return snapshotError(path, "occupied slots " +
                                       std::to_string(total) +
                                       " != recorded distinct count " +
                                       std::to_string(distinct));
    return okStatus();
}

Status
validateFingerprintShape(const std::string &path,
                         const IndexFingerprint &fp)
{
    if (fp.k < 1 || fp.k > 13)
        return snapshotError(path, "fingerprint k " +
                                       std::to_string(fp.k) +
                                       " out of supported range");
    if (fp.hashSeed != kFlatIndexHashSeed)
        return snapshotError(
            path,
            "built with a different slot-hash seed (incompatible)");
    return okStatus();
}

void
appendLe64(std::vector<u8> &out, u64 v)
{
    const size_t at = out.size();
    out.resize(at + 8);
    std::memcpy(out.data() + at, &v, 8);
}

} // namespace

// ------------------------------------------------------------------
// Fingerprint

IndexFingerprint
referenceFingerprint(const Seq &ref, u32 k)
{
    IndexFingerprint fp;
    fp.k = k;
    fp.refLength = ref.size();
    fp.refChecksum = storeChecksum(ref.data(), ref.size());
    return fp;
}

Status
checkFingerprint(const IndexFingerprint &got,
                 const IndexFingerprint &want)
{
    const auto fail = [](const char *field, u64 g, u64 w) {
        return failedPreconditionError(
            std::string("index fingerprint mismatch: ") + field +
            " is " + std::to_string(g) + ", expected " +
            std::to_string(w) +
            " (snapshot built from a different reference or "
            "configuration)");
    };
    if (got.k != want.k)
        return fail("k", got.k, want.k);
    if (got.hashSeed != want.hashSeed)
        return fail("hashSeed", got.hashSeed, want.hashSeed);
    if (got.refLength != want.refLength)
        return fail("refLength", got.refLength, want.refLength);
    if (got.refChecksum != want.refChecksum)
        return fail("refChecksum", got.refChecksum, want.refChecksum);
    return okStatus();
}

// ------------------------------------------------------------------
// Whole-reference snapshots

Status
IndexSnapshot::build(const std::string &path, const Seq &ref,
                     const std::vector<SnapshotContig> &contigs,
                     const SegmentConfig &cfg)
{
    GENAX_CHECK(cfg.k >= 1 && cfg.k <= 13,
                "k out of supported range: ", cfg.k);
    GENAX_CHECK(cfg.segmentCount >= 1 &&
                    cfg.segmentCount <= 100000,
                "implausible segment count: ", cfg.segmentCount);
    for (const SnapshotContig &c : contigs) {
        GENAX_CHECK(!c.name.empty() &&
                        c.name.size() <= kMaxContigName,
                    "bad contig name length: ", c.name.size());
        GENAX_CHECK(c.start <= ref.size() &&
                        c.length <= ref.size() - c.start,
                    "contig '", c.name,
                    "' extends past the reference");
    }

    const GenomeSegments segs(ref, cfg);
    const FlatKmerIndex index(ref, cfg.k, 0);
    const auto table = index.tableSpan();
    const auto pos = index.positionsSpan();
    const auto filter = index.filterSpan();
    SnapshotMeta meta{};
    meta.fp = referenceFingerprint(ref, cfg.k);
    meta.segmentCount = segs.count();
    meta.segmentOverlap = cfg.overlap;
    meta.contigCount = contigs.size();
    meta.slots = table.size();
    meta.positions = pos.size();
    meta.distinct = index.distinctKmers();
    meta.maxHits = index.maxHitListSize();

    // Contig blob: per contig {u64 start, u64 length, u64 nameLen,
    // name bytes}, unpadded and parsed with bounds-checked memcpy.
    std::vector<u8> blob;
    for (const SnapshotContig &c : contigs) {
        appendLe64(blob, c.start);
        appendLe64(blob, c.length);
        appendLe64(blob, c.name.size());
        blob.insert(blob.end(), c.name.begin(), c.name.end());
    }

    StoreWriter w(kSnapshotKind, kSnapshotKindVersion);
    w.addSection("meta", &meta, sizeof(meta));
    w.addSection("contigs", blob.data(), blob.size());
    w.addSection("ref", ref.data(), ref.size());
    addSlices(w, "tab", table.data(), table.size_bytes());
    addSlices(w, "pos", pos.data(), pos.size_bytes());
    addSlices(w, "flt", filter.data(), filter.size_bytes());
    return w.writeFile(path);
}

StatusOr<IndexSnapshot>
IndexSnapshot::open(const std::string &path, bool prefer_mmap)
{
    IndexSnapshot snap;
    GENAX_TRY_ASSIGN(snap._store, StoreFile::open(path, kSnapshotKind,
                                                  prefer_mmap));
    const StoreFile &store = snap._store;
    if (store.kindVersion() != kSnapshotKindVersion)
        return snapshotError(
            path, "format version " +
                      std::to_string(store.kindVersion()) +
                      ", this build reads version " +
                      std::to_string(kSnapshotKindVersion) +
                      " (rebuild it with genax_index)");

    GENAX_TRY_ASSIGN(const std::span<const SnapshotMeta> metas,
                     store.sectionAs<SnapshotMeta>("meta"));
    if (metas.size() != 1)
        return snapshotError(path, "malformed meta section");
    const SnapshotMeta meta = metas[0];
    GENAX_TRY(validateFingerprintShape(path, meta.fp));
    snap._fp = meta.fp;

    GENAX_TRY_ASSIGN(snap._ref, store.section("ref"));
    if (snap._ref.size() != meta.fp.refLength)
        return snapshotError(
            path, "reference section is " +
                      std::to_string(snap._ref.size()) +
                      " bytes but the fingerprint says " +
                      std::to_string(meta.fp.refLength));
    if (storeChecksum(snap._ref.data(), snap._ref.size()) !=
        meta.fp.refChecksum)
        return snapshotError(
            path, "reference bytes do not match the fingerprint");

    // Contig blob.
    GENAX_TRY_ASSIGN(const std::span<const u8> blob,
                     store.section("contigs"));
    size_t at = 0;
    for (u64 i = 0; i < meta.contigCount; ++i) {
        if (blob.size() - at < 24)
            return snapshotError(path, "truncated contig table");
        u64 start, length, name_len;
        std::memcpy(&start, blob.data() + at, 8);
        std::memcpy(&length, blob.data() + at + 8, 8);
        std::memcpy(&name_len, blob.data() + at + 16, 8);
        at += 24;
        if (name_len == 0 || name_len > kMaxContigName ||
            name_len > blob.size() - at)
            return snapshotError(path, "malformed contig name");
        if (start > meta.fp.refLength ||
            length > meta.fp.refLength - start)
            return snapshotError(
                path, "contig extends past the reference");
        SnapshotContig c;
        c.name.assign(
            reinterpret_cast<const char *>(blob.data() + at),
            name_len);
        c.start = start;
        c.length = length;
        at += name_len;
        snap._contigs.push_back(std::move(c));
    }
    if (at != blob.size())
        return snapshotError(path,
                             "trailing bytes after the contig table");

    // The segmentation, metadata for the GenAx engine.
    if (meta.segmentCount == 0 || meta.segmentCount > meta.fp.refLength)
        return snapshotError(path, "segment count " +
                                       std::to_string(meta.segmentCount) +
                                       " does not fit the reference");
    snap._segs = GenomeSegments(
        snap._ref,
        SegmentConfig{meta.segmentCount, meta.segmentOverlap, meta.fp.k});

    // The one index.
    GENAX_TRY_ASSIGN(snap._table,
                     joinSlices<FlatKmerIndex::Entry>(store, "tab",
                                                      meta.slots));
    GENAX_TRY_ASSIGN(snap._positions,
                     joinSlices<u32>(store, "pos", meta.positions));
    if (meta.distinct > meta.slots)
        return snapshotError(path, std::to_string(meta.distinct) +
                                       " keys recorded in a table of " +
                                       std::to_string(meta.slots) +
                                       " slots");
    GENAX_TRY_ASSIGN(snap._filter,
                     joinSlices<u64>(store, "flt",
                                     FlatKmerIndex::filterWords(
                                         meta.distinct)));
    snap._distinct = meta.distinct;
    snap._maxHits = meta.maxHits;
    GENAX_TRY(validateTable(path, snap._table, meta.positions,
                            snap._filter, meta.distinct, meta.maxHits));
    return snap;
}

Seq
IndexSnapshot::referenceSequence() const
{
    return Seq(_ref.begin(), _ref.end());
}

FlatKmerIndex
IndexSnapshot::index() const
{
    return FlatKmerIndex::view(_table, _positions, _filter, _fp.k,
                               _fp.refLength, _maxHits, _distinct);
}

FlatKmerIndex
IndexSnapshot::segmentView(u64 i) const
{
    GENAX_CHECK(i < segmentCount(), "segment index out of range: ", i,
                " of ", segmentCount());
    return index().window(segmentStart(i), segmentLength(i));
}

} // namespace genax

#include "seed/index_snapshot.hh"

#include <bit>
#include <cstring>

#include "common/check.hh"
#include "common/parallel.hh"

namespace genax {

namespace {

constexpr std::string_view kSnapshotKind = "GXSNAP";

/** Contig names longer than this are rejected as corrupt. */
constexpr u64 kMaxContigName = u64{1} << 16;

/** "meta" section of a whole-reference ("GXSNAP") snapshot. */
struct SnapshotMeta
{
    IndexFingerprint fp;
    u64 segmentCount;
    u64 segmentOverlap;
    u64 contigCount;
};
static_assert(sizeof(SnapshotMeta) == 56);
static_assert(std::is_trivially_copyable_v<SnapshotMeta>);

/** One element of the "segs" section: segment geometry plus the
 *  shape of its index tables. */
struct SegMeta
{
    u64 start;
    u64 length;
    u64 slots;
    u64 positions;
    u64 distinct;
    u32 maxHits;
    u32 pad;
};
static_assert(sizeof(SegMeta) == 48);
static_assert(std::is_trivially_copyable_v<SegMeta>);

Status
snapshotError(const std::string &path, const std::string &what)
{
    return invalidInputError("snapshot " + path + ": " + what);
}

/**
 * Structural validation of an index table against its postings
 * array and presence filter: the store checksums already rule out
 * on-disk corruption, so this is defense-in-depth against writer bugs
 * and version skew — everything lookup() would otherwise trust
 * blindly, including that the filter never hides a present key.
 */
Status
validateTable(const std::string &path, const std::string &what,
              std::span<const FlatKmerIndex::Entry> table,
              u64 positions, std::span<const u64> filter, u64 distinct,
              u32 max_hits)
{
    if (table.size() < 2 || !std::has_single_bit(table.size()))
        return snapshotError(
            path, what + ": table size " +
                      std::to_string(table.size()) +
                      " is not a power of two >= 2");
    if (filter.size() != FlatKmerIndex::filterWords(distinct))
        return snapshotError(
            path, what + ": filter of " +
                      std::to_string(filter.size()) + " words, want " +
                      std::to_string(FlatKmerIndex::filterWords(distinct)) +
                      " for " + std::to_string(distinct) + " keys");
    u64 occupied = 0;
    for (const FlatKmerIndex::Entry &e : table) {
        if (e.key == FlatKmerIndex::kEmptyKey)
            continue;
        ++occupied;
        if (u64{e.offset} + e.count > positions)
            return snapshotError(
                path, what + ": postings extent out of bounds");
        if (e.count > max_hits)
            return snapshotError(
                path, what + ": entry count exceeds maxHits");
        const auto p = FlatKmerIndex::filterProbe(e.key, filter.size());
        if ((filter[p.word] & p.bits) != p.bits)
            return snapshotError(
                path, what + ": filter misses key " +
                          std::to_string(e.key));
    }
    if (occupied != distinct)
        return snapshotError(
            path, what + ": occupied slots " +
                      std::to_string(occupied) +
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
    SnapshotMeta meta{};
    meta.fp = referenceFingerprint(ref, cfg.k);
    meta.segmentCount = segs.count();
    meta.segmentOverlap = cfg.overlap;
    meta.contigCount = contigs.size();

    // Contig blob: per contig {u64 start, u64 length, u64 nameLen,
    // name bytes}, unpadded and parsed with bounds-checked memcpy.
    std::vector<u8> blob;
    for (const SnapshotContig &c : contigs) {
        appendLe64(blob, c.start);
        appendLe64(blob, c.length);
        appendLe64(blob, c.name.size());
        blob.insert(blob.end(), c.name.begin(), c.name.end());
    }

    // Build every per-segment index up front, each at every hardware
    // thread, so the store is written in one atomic pass (peak memory
    // is O(reference) — see the class comment).
    std::vector<FlatKmerIndex> built;
    built.reserve(segs.count());
    std::vector<SegMeta> segmeta(segs.count());
    for (u64 i = 0; i < segs.count(); ++i) {
        const Seq bases = segs.bases(i);
        built.emplace_back(bases, cfg.k, 0);
        const FlatKmerIndex &idx = built.back();
        SegMeta &m = segmeta[i];
        m = SegMeta{};
        m.start = segs.start(i);
        m.length = segs.length(i);
        m.slots = idx.tableSpan().size();
        m.positions = idx.positionsSpan().size();
        m.distinct = idx.distinctKmers();
        m.maxHits = idx.maxHitListSize();
    }

    StoreWriter w(kSnapshotKind, kSnapshotKindVersion);
    w.addSection("meta", &meta, sizeof(meta));
    w.addSection("contigs", blob.data(), blob.size());
    w.addSection("ref", ref.data(), ref.size());
    w.addSection("segs", segmeta.data(),
                 segmeta.size() * sizeof(SegMeta));
    for (u64 i = 0; i < segs.count(); ++i) {
        const std::string tag = "seg" + std::to_string(i);
        const auto table = built[i].tableSpan();
        const auto pos = built[i].positionsSpan();
        const auto filter = built[i].filterSpan();
        w.addSection(tag + ".tab", table.data(),
                     table.size_bytes());
        w.addSection(tag + ".pos", pos.data(), pos.size_bytes());
        w.addSection(tag + ".flt", filter.data(), filter.size_bytes());
    }
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
    snap._segmentOverlap = meta.segmentOverlap;

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

    // Segment geometry and per-segment tables.
    GENAX_TRY_ASSIGN(const std::span<const SegMeta> segmeta,
                     store.sectionAs<SegMeta>("segs"));
    if (segmeta.size() != meta.segmentCount ||
        segmeta.empty())
        return snapshotError(
            path, "segment table does not match the recorded "
                  "segment count");
    // Each segment's geometry and section shapes, serially in segment
    // order; the first segment that fails a check ends the walk.
    const auto segment = [&](u64 i, SegRef &s) -> Status {
        const SegMeta &m = segmeta[i];
        const std::string what = "segment " + std::to_string(i);
        if (m.start > meta.fp.refLength ||
            m.length > meta.fp.refLength - m.start)
            return snapshotError(
                path, what + " extends past the reference");
        const std::string tag = "seg" + std::to_string(i);
        s.start = m.start;
        s.length = m.length;
        s.maxHits = m.maxHits;
        s.distinct = m.distinct;
        GENAX_TRY_ASSIGN(
            s.table,
            store.sectionAs<FlatKmerIndex::Entry>(tag + ".tab"));
        GENAX_TRY_ASSIGN(s.positions,
                         store.sectionAs<u32>(tag + ".pos"));
        GENAX_TRY_ASSIGN(s.filter, store.sectionAs<u64>(tag + ".flt"));
        if (s.table.size() != m.slots)
            return snapshotError(
                path, what + ": table section does not match the "
                             "recorded slot count");
        if (s.positions.size() != m.positions)
            return snapshotError(
                path, what + ": postings section does not match "
                             "the recorded position count");
        return okStatus();
    };
    snap._segs.reserve(segmeta.size());
    Status shape_error;
    for (u64 i = 0; i < segmeta.size() && shape_error.ok(); ++i) {
        SegRef s;
        shape_error = segment(i, s);
        if (shape_error.ok())
            snap._segs.push_back(s);
    }

    // The table and filter walks of the segments before it, on every
    // core. The lowest-index failure wins, as in a serial walk.
    std::vector<Status> tables(snap._segs.size());
    parallelFor(tables.size(), 0, [&](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i) {
            const SegRef &s = snap._segs[i];
            tables[i] = validateTable(path, "segment " + std::to_string(i),
                                      s.table, s.positions.size(),
                                      s.filter, s.distinct, s.maxHits);
        }
    });
    for (const Status &st : tables)
        GENAX_TRY(st);
    GENAX_TRY(shape_error);
    return snap;
}

Seq
IndexSnapshot::referenceSequence() const
{
    return Seq(_ref.begin(), _ref.end());
}

FlatKmerIndex
IndexSnapshot::segmentView(u64 i) const
{
    GENAX_CHECK(i < _segs.size(), "segment index out of range: ", i,
                " of ", _segs.size());
    const SegRef &s = _segs[i];
    return FlatKmerIndex::view(s.table, s.positions, s.filter, _fp.k,
                               s.length, s.maxHits, s.distinct);
}

} // namespace genax

/**
 * @file
 * Corruption-chaos suite for the crash-safe store layer: checksum
 * algebra, atomic-writer fault sweeps, container validation against
 * truncation and bit rot, index snapshots and the end-to-end
 * alignment-identity guarantee of `genax_align --index`.
 *
 * The invariant under test everywhere: no mutation of on-disk bytes
 * may crash, hang or change alignment output. Corruption surfaces as
 * a typed recoverable Status (InvalidInput from validation, IoError
 * from the OS), and the pipeline degrades to rebuild-from-FASTA with
 * identical SAM bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/faultinject.hh"
#include "common/rng.hh"
#include "genax/pipeline.hh"
#include "io/fasta.hh"
#include "io/fastq.hh"
#include "io/store.hh"
#include "seed/flat_kmer_index.hh"
#include "seed/index_snapshot.hh"
#include "serve/service.hh"
#include "store_rewrite.hh"

namespace genax {
namespace {

namespace fs = std::filesystem;

Seq
randomSeq(Rng &rng, size_t len)
{
    Seq s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(4)));
    return s;
}

/** Fresh scratch directory under the system temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------ StoreChecksum

TEST(StoreChecksum, SplitInvariantAcrossUpdateBoundaries)
{
    Rng rng(901);
    std::vector<u8> data(4097);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));

    const u64 whole = storeChecksum(data.data(), data.size());
    // Feed the same bytes in every awkward chunking: single bytes,
    // word-misaligned runs, one giant piece.
    for (const size_t step : {size_t{1}, size_t{3}, size_t{7},
                              size_t{8}, size_t{13}, size_t{4096}}) {
        StoreChecksum sum;
        for (size_t i = 0; i < data.size(); i += step)
            sum.update(data.data() + i,
                       std::min(step, data.size() - i));
        EXPECT_EQ(sum.digest(), whole) << "step " << step;
    }
}

TEST(StoreChecksum, DistinguishesContentLengthAndOrder)
{
    const u8 a[] = {1, 2, 3, 4, 5};
    const u8 b[] = {1, 2, 3, 4, 6};
    const u8 c[] = {2, 1, 3, 4, 5};
    EXPECT_NE(storeChecksum(a, 5), storeChecksum(b, 5));
    EXPECT_NE(storeChecksum(a, 5), storeChecksum(c, 5));
    EXPECT_NE(storeChecksum(a, 5), storeChecksum(a, 4));
    // Zero-length input is legal and stable.
    EXPECT_EQ(storeChecksum(nullptr, 0), storeChecksum(nullptr, 0));
    // Trailing zero bytes still change the digest (length is mixed
    // in, so zero padding cannot be silently appended).
    const u8 z[] = {1, 2, 3, 4, 5, 0};
    EXPECT_NE(storeChecksum(a, 5), storeChecksum(z, 6));
}

// --------------------------------------------------- AtomicFileWriter

TEST(AtomicWriter, CommitLandsExactBytes)
{
    const fs::path dir = scratchDir("genax_store_atomic");
    const std::string path = (dir / "blob").string();

    auto w = AtomicFileWriter::create(path);
    ASSERT_TRUE(w.ok()) << w.status().str();
    const std::string payload = "store me durably";
    ASSERT_TRUE(w->append(payload.data(), payload.size()).ok());
    // Nothing visible at the destination until commit.
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE(w->commit().ok());
    EXPECT_EQ(slurp(path), payload);
    fs::remove_all(dir);
}

TEST(AtomicWriter, FaultsLeaveOldFileOrNothing)
{
    const fs::path dir = scratchDir("genax_store_atomic_fault");
    const std::string path = (dir / "blob").string();
    const std::string old_payload = "previous generation";
    spit(path, old_payload);

    const std::string new_payload(100000, 'x');
    for (const char *site :
         {fault::kStoreShortWrite, fault::kStoreEnospc,
          fault::kStoreEio}) {
        ScopedFaultPlan plan({{site, {.fireOnNth = 1}}});
        auto w = AtomicFileWriter::create(path);
        ASSERT_TRUE(w.ok());
        Status st =
            w->append(new_payload.data(), new_payload.size());
        if (st.ok())
            st = w->commit();
        ASSERT_FALSE(st.ok()) << site;
        EXPECT_EQ(st.code(), StatusCode::IoError) << site;
        EXPECT_EQ(slurp(path), old_payload) << site;
    }
    // Abandon also keeps the destination untouched and removes the
    // temp file.
    {
        auto w = AtomicFileWriter::create(path);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE(
            w->append(new_payload.data(), new_payload.size()).ok());
        w->abandon();
    }
    EXPECT_EQ(slurp(path), old_payload);
    size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u) << "stray temp files left behind";
    fs::remove_all(dir);
}

// ------------------------------------------------- Store round trips

struct TestStore
{
    std::string path;
    std::vector<u8> alpha;
    std::vector<u32> beta;
    std::vector<u8> empty; // zero-byte section is legal
};

TestStore
buildTestStore(const fs::path &dir)
{
    TestStore t;
    t.path = (dir / "test.gxstore").string();
    Rng rng(902);
    t.alpha.resize(1001); // deliberately not a multiple of 8
    for (auto &b : t.alpha)
        b = static_cast<u8>(rng.below(256));
    t.beta.resize(300);
    for (auto &v : t.beta)
        v = static_cast<u32>(rng.next());

    StoreWriter w("TSTKND", /*kind_version=*/3);
    w.addSection("alpha", t.alpha.data(), t.alpha.size());
    w.addSection("beta", t.beta.data(),
                 t.beta.size() * sizeof(u32));
    w.addSection("empty", nullptr, 0);
    EXPECT_TRUE(w.writeFile(t.path).ok());
    return t;
}

void
expectStoreMatches(const StoreFile &store, const TestStore &t)
{
    EXPECT_EQ(store.kind(), "TSTKND");
    EXPECT_EQ(store.kindVersion(), 3u);
    ASSERT_EQ(store.sections().size(), 3u);

    auto alpha = store.section("alpha");
    ASSERT_TRUE(alpha.ok());
    ASSERT_EQ(alpha->size(), t.alpha.size());
    EXPECT_TRUE(std::equal(alpha->begin(), alpha->end(),
                           t.alpha.begin()));

    auto beta = store.sectionAs<u32>("beta");
    ASSERT_TRUE(beta.ok());
    ASSERT_EQ(beta->size(), t.beta.size());
    EXPECT_TRUE(
        std::equal(beta->begin(), beta->end(), t.beta.begin()));

    auto empty = store.section("empty");
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty->size(), 0u);

    EXPECT_FALSE(store.section("missing").ok());
    EXPECT_EQ(store.section("missing").status().code(),
              StatusCode::NotFound);
    // A section whose size is not a multiple of the element size is
    // a typed error, not a truncated span.
    EXPECT_EQ(store.sectionAs<u64>("alpha").status().code(),
              StatusCode::InvalidInput);
}

TEST(Store, RoundTripMappedAndOwned)
{
    const fs::path dir = scratchDir("genax_store_roundtrip");
    const TestStore t = buildTestStore(dir);

    auto mapped = StoreFile::open(t.path, "TSTKND");
    ASSERT_TRUE(mapped.ok()) << mapped.status().str();
    EXPECT_TRUE(mapped->mapped());
    expectStoreMatches(*mapped, t);

    auto owned = StoreFile::open(t.path, "TSTKND",
                                 /*prefer_mmap=*/false);
    ASSERT_TRUE(owned.ok());
    EXPECT_FALSE(owned->mapped());
    expectStoreMatches(*owned, t);

    // Spans survive moving the owner (mmap pointer and owned buffer
    // are both stable under move).
    StoreFile stolen = std::move(*mapped);
    expectStoreMatches(stolen, t);

    // Wrong kind and any-kind opens.
    auto wrong = StoreFile::open(t.path, "OTHERK");
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().code(), StatusCode::InvalidInput);
    EXPECT_TRUE(StoreFile::open(t.path, "").ok());
    fs::remove_all(dir);
}

TEST(Store, MmapFailureFallsBackToOwnedRead)
{
    const fs::path dir = scratchDir("genax_store_mmapfail");
    const TestStore t = buildTestStore(dir);
    ScopedFaultPlan plan(
        {{fault::kStoreMmapFail, {.fireOnNth = 1}}});
    auto store = StoreFile::open(t.path, "TSTKND");
    ASSERT_TRUE(store.ok()) << store.status().str();
    EXPECT_FALSE(store->mapped());
    expectStoreMatches(*store, t);
    fs::remove_all(dir);
}

TEST(Store, ChecksumFailureNamesTheLowestIndexSection)
{
    // The checksum walk runs sections concurrently, largest first;
    // the diagnostic must still be the serial walk's.
    const fs::path dir = scratchDir("genax_store_lowest_bad");
    const TestStore t = buildTestStore(dir);
    auto pristine = StoreFile::open(t.path, "TSTKND");
    ASSERT_TRUE(pristine.ok());
    const std::string bytes = slurp(t.path);
    const auto flip = [&](std::string b, const char *name) {
        for (const auto &s : pristine->sections())
            if (s.name == name)
                b[s.offset] = static_cast<char>(b[s.offset] ^ 1);
        return b;
    };
    const std::string path = (dir / "bad").string();
    spit(path, flip(flip(bytes, "alpha"), "beta"));
    auto both = StoreFile::open(path, "TSTKND");
    ASSERT_FALSE(both.ok());
    EXPECT_NE(both.status().str().find("section 'alpha' checksum"),
              std::string::npos)
        << both.status().str();
    spit(path, flip(bytes, "beta"));
    auto beta = StoreFile::open(path, "TSTKND");
    ASSERT_FALSE(beta.ok());
    EXPECT_NE(beta.status().str().find("section 'beta' checksum"),
              std::string::npos)
        << beta.status().str();
    fs::remove_all(dir);
}

TEST(Store, OpenRejectsMissingAndTinyFiles)
{
    const fs::path dir = scratchDir("genax_store_tiny");
    const std::string missing = (dir / "nope").string();
    auto r = StoreFile::open(missing, "");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::IoError);

    const std::string tiny = (dir / "tiny").string();
    spit(tiny, "short");
    auto t = StoreFile::open(tiny, "");
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::InvalidInput);
    fs::remove_all(dir);
}

// ----------------------------------------------------- chaos sweeps

TEST(StoreChaos, TruncationAtEverySectionBoundary)
{
    const fs::path dir = scratchDir("genax_store_trunc");
    const TestStore t = buildTestStore(dir);
    const std::string pristine = slurp(t.path);

    // Every section boundary, each off-by-one around it, plus the
    // header and table edges: all must fail with a typed Status.
    std::vector<size_t> cuts = {0, 1, sizeof(StoreHeader) - 1,
                                sizeof(StoreHeader),
                                pristine.size() - 1};
    {
        auto store = StoreFile::open(t.path, "");
        ASSERT_TRUE(store.ok());
        for (const auto &s : store->sections()) {
            for (const i64 d : {-1, 0, 1}) {
                cuts.push_back(static_cast<size_t>(
                    static_cast<i64>(s.offset) + d));
                cuts.push_back(static_cast<size_t>(
                    static_cast<i64>(s.offset + s.bytes) + d));
            }
        }
    }
    const std::string cut_path = (dir / "cut").string();
    for (const size_t cut : cuts) {
        if (cut >= pristine.size())
            continue;
        spit(cut_path, pristine.substr(0, cut));
        for (const bool prefer_mmap : {true, false}) {
            auto r = StoreFile::open(cut_path, "TSTKND",
                                     prefer_mmap);
            ASSERT_FALSE(r.ok())
                << "cut " << cut << " mmap " << prefer_mmap;
            EXPECT_EQ(r.status().code(), StatusCode::InvalidInput)
                << "cut " << cut << ": " << r.status().str();
        }
    }
    fs::remove_all(dir);
}

TEST(StoreChaos, SeededBitFlipsNeverCrashAndNeverLie)
{
    const fs::path dir = scratchDir("genax_store_bitflip");
    const TestStore t = buildTestStore(dir);
    const std::string pristine = slurp(t.path);

    // Checksummed extents: header, section table, every section. A
    // flip inside one MUST be rejected; a flip in alignment padding
    // may legally go unnoticed, but then the payload must still read
    // back identical to the pristine store.
    std::vector<std::pair<size_t, size_t>> checked = {
        {0, sizeof(StoreHeader)}};
    {
        auto store = StoreFile::open(t.path, "");
        ASSERT_TRUE(store.ok());
        checked.emplace_back(sizeof(StoreHeader),
                             store->sections().size() *
                                 sizeof(StoreSectionEntry));
        for (const auto &s : store->sections())
            checked.emplace_back(s.offset, s.bytes);
    }
    auto inChecked = [&](size_t off) {
        for (const auto &[start, bytes] : checked)
            if (off >= start && off < start + bytes)
                return true;
        return false;
    };

    Rng rng(903);
    const std::string flip_path = (dir / "flipped").string();
    int rejected = 0, benign = 0;
    for (int i = 0; i < 300; ++i) {
        const size_t off = rng.below(pristine.size());
        const u8 bit = static_cast<u8>(1u << rng.below(8));
        std::string mutant = pristine;
        mutant[off] = static_cast<char>(
            static_cast<u8>(mutant[off]) ^ bit);
        spit(flip_path, mutant);

        auto r = StoreFile::open(flip_path, "TSTKND",
                                 /*prefer_mmap=*/(i & 1) != 0);
        if (inChecked(off)) {
            ASSERT_FALSE(r.ok())
                << "flip at " << off << " bit " << int(bit)
                << " not detected";
            EXPECT_EQ(r.status().code(), StatusCode::InvalidInput)
                << r.status().str();
            ++rejected;
        } else if (r.ok()) {
            // Padding flip: contents must be indistinguishable from
            // the pristine store.
            expectStoreMatches(*r, t);
            ++benign;
        } else {
            EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
            ++rejected;
        }
    }
    // The store is dense, so nearly every flip lands in a checksummed
    // extent; the sweep is vacuous if that stops being true.
    EXPECT_GE(rejected, 250);
    fs::remove_all(dir);
}

// --------------------------------------------- whole-ref snapshots

TEST(IndexSnapshot, BuildOpenRoundTrip)
{
    const fs::path dir = scratchDir("genax_snap_roundtrip");
    const std::string path = (dir / "ref.gxs").string();

    Rng rng(905);
    const Seq ref = randomSeq(rng, 9000);
    const std::vector<SnapshotContig> contigs = {
        {"chr1", 0, 5000}, {"chr2", 5000, 4000}};
    SegmentConfig cfg;
    cfg.k = 10;
    cfg.segmentCount = 3;
    cfg.overlap = 64;
    ASSERT_TRUE(
        IndexSnapshot::build(path, ref, contigs, cfg).ok());

    auto snap = IndexSnapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().str();
    EXPECT_EQ(snap->k(), 10u);
    EXPECT_EQ(snap->referenceLength(), ref.size());
    EXPECT_EQ(snap->segmentCount(), 3u);
    EXPECT_EQ(snap->segmentOverlap(), 64u);
    EXPECT_TRUE(snap->mapped());
    ASSERT_EQ(snap->contigs().size(), 2u);
    EXPECT_EQ(snap->contigs()[0].name, "chr1");
    EXPECT_EQ(snap->contigs()[1].start, 5000u);
    EXPECT_EQ(snap->referenceSequence(), ref);

    // The one stored index is the whole reference's.
    const FlatKmerIndex whole(ref, cfg.k);
    const FlatKmerIndex stored = snap->index();
    EXPECT_TRUE(stored.borrowed());
    EXPECT_EQ(stored.maxHitListSize(), whole.maxHitListSize());
    EXPECT_EQ(stored.distinctKmers(), whole.distinctKmers());
    EXPECT_TRUE(std::ranges::equal(stored.positionsSpan(),
                                   whole.positionsSpan()));
    EXPECT_TRUE(
        std::ranges::equal(stored.filterSpan(), whole.filterSpan()));

    // Each segment's window answers what an index built over the
    // segment's bases answers, shifted by the segment's start.
    GenomeSegments segs(ref, cfg);
    ASSERT_EQ(segs.count(), snap->segmentCount());
    for (u64 i = 0; i < segs.count(); ++i) {
        EXPECT_EQ(snap->segmentStart(i), segs.start(i));
        EXPECT_EQ(snap->segmentLength(i), segs.length(i));
        const FlatKmerIndex fresh(segs.bases(i), cfg.k);
        const FlatKmerIndex view = snap->segmentView(i);
        EXPECT_TRUE(view.borrowed());
        EXPECT_EQ(view.windowStart(), segs.start(i));
        for (u64 key = 0; key < (u64{1} << (2 * cfg.k));
             key += 7) { // stride keeps the sweep fast
            const auto want = fresh.lookup(key);
            const auto got = view.lookup(key);
            ASSERT_EQ(got.size(), want.size());
            for (size_t j = 0; j < got.size(); ++j)
                ASSERT_EQ(got[j], want[j] + segs.start(i));
        }
    }

    // Fingerprint cross-checks.
    const IndexFingerprint want = referenceFingerprint(ref, cfg.k);
    EXPECT_TRUE(
        checkFingerprint(snap->fingerprint(), want).ok());
    fs::remove_all(dir);
}

TEST(IndexSnapshot, BitFlipSweepRejectsCleanly)
{
    const fs::path dir = scratchDir("genax_snap_bitflip");
    const std::string path = (dir / "ref.gxs").string();

    Rng rng(906);
    const Seq ref = randomSeq(rng, 4000);
    SegmentConfig cfg;
    cfg.k = 8;
    cfg.segmentCount = 2;
    cfg.overlap = 32;
    ASSERT_TRUE(IndexSnapshot::build(
                    path, ref, {{"c", 0, ref.size()}}, cfg)
                    .ok());
    const std::string pristine = slurp(path);

    const std::string flip_path = (dir / "flipped").string();
    for (int i = 0; i < 64; ++i) {
        const size_t off = rng.below(pristine.size());
        std::string mutant = pristine;
        mutant[off] = static_cast<char>(
            static_cast<u8>(mutant[off]) ^
            static_cast<u8>(1u << rng.below(8)));
        spit(flip_path, mutant);
        auto r = IndexSnapshot::open(flip_path);
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::InvalidInput)
                << "flip " << off << ": " << r.status().str();
        } else {
            // Padding flip — snapshot must be fully intact.
            EXPECT_EQ(r->referenceSequence(), ref);
        }
    }
    fs::remove_all(dir);
}

/** A small three-segment snapshot for the format-rule tests. */
std::string
formatTestSnapshot(const fs::path &dir)
{
    Rng rng(909);
    const Seq ref = randomSeq(rng, 5000);
    SegmentConfig cfg;
    cfg.k = 9;
    cfg.segmentCount = 3;
    cfg.overlap = 64;
    const std::string path = (dir / "ref.gxs").string();
    EXPECT_TRUE(
        IndexSnapshot::build(path, ref, {{"c", 0, ref.size()}}, cfg).ok());
    return path;
}

TEST(IndexSnapshot, OtherFormatVersionsAreRejected)
{
    const fs::path dir = scratchDir("genax_snap_version");
    const std::string path = formatTestSnapshot(dir);
    auto store = StoreFile::open(path, "GXSNAP");
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store->kindVersion(), kSnapshotKindVersion);

    // Files of the per-segment versions 1 and 2 and of a future
    // version all fail open() with a clean InvalidInput naming the
    // version.
    for (const u32 version : {1u, 2u, 4u}) {
        const std::string file =
            (dir / ("v" + std::to_string(version) + ".gxs")).string();
        ASSERT_TRUE(testing::rewriteStore(path, file, version).ok());
        auto r = IndexSnapshot::open(file);
        ASSERT_FALSE(r.ok()) << file;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
        EXPECT_NE(r.status().str().find("format version " +
                                        std::to_string(version)),
                  std::string::npos)
            << r.status().str();
    }
    fs::remove_all(dir);
}

TEST(IndexSnapshot, FilterBreakingItsRulesIsRejected)
{
    const fs::path dir = scratchDir("genax_snap_filter");
    const std::string path = formatTestSnapshot(dir);
    auto snap = IndexSnapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().str();

    // Clear the filter bits of the last occupied key of the one
    // index (its filter fits one slice, "flt0"): the checksums are
    // recomputed, so only the filter walk can catch it.
    const FlatKmerIndex index = snap->index();
    u64 key = FlatKmerIndex::kEmptyKey;
    for (const FlatKmerIndex::Entry &e : index.tableSpan())
        if (e.key != FlatKmerIndex::kEmptyKey)
            key = e.key;
    ASSERT_NE(key, FlatKmerIndex::kEmptyKey);
    const auto probe =
        FlatKmerIndex::filterProbe(key, index.filterSpan().size());
    const std::string hole = (dir / "hole.gxs").string();
    ASSERT_TRUE(testing::rewriteStore(
                    path, hole, kSnapshotKindVersion,
                    [&](const std::string &name, std::string &bytes) {
                        if (name == "flt0") {
                            u64 w;
                            std::memcpy(&w, &bytes[8 * probe.word], 8);
                            w &= ~probe.bits;
                            std::memcpy(&bytes[8 * probe.word], &w, 8);
                        }
                        return true;
                    })
                    .ok());
    auto r = IndexSnapshot::open(hole);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(r.status().str().find("filter misses key"),
              std::string::npos)
        << r.status().str();

    // A filter of any size but the one the sizing rule gives.
    const std::string doubled = (dir / "doubled.gxs").string();
    ASSERT_TRUE(testing::rewriteStore(
                    path, doubled, kSnapshotKindVersion,
                    [](const std::string &name, std::string &bytes) {
                        if (name == "flt0")
                            bytes += bytes;
                        return true;
                    })
                    .ok());
    r = IndexSnapshot::open(doubled);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(r.status().str().find("section 'flt0'"), std::string::npos)
        << r.status().str();
    fs::remove_all(dir);
}

// ------------------------------------- end-to-end pipeline identity

struct SnapWorkload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads;
    std::string snapPath;
};

SnapWorkload
snapWorkload(const fs::path &dir)
{
    SnapWorkload w;
    Rng rng(907);
    w.ref.push_back({"chrA", randomSeq(rng, 9000)});
    w.ref.push_back({"chrB", randomSeq(rng, 6000)});
    const ContigMap map(w.ref);
    const Seq &cat = map.sequence();
    for (int i = 0; i < 36; ++i) {
        const u64 pos = rng.below(cat.size() - 80);
        Seq s(cat.begin() + pos, cat.begin() + pos + 72);
        if (i % 5 == 0) // sprinkle mismatches
            s[rng.below(s.size())] =
                static_cast<Base>((s[0] + 1) & 3);
        std::vector<u8> qual(s.size(), 30);
        w.reads.push_back(
            {"r" + std::to_string(i), std::move(s), qual});
    }

    std::vector<SnapshotContig> contigs;
    for (const auto &c : map.contigs())
        contigs.push_back({c.name, c.start, c.length});
    SegmentConfig cfg;
    cfg.k = 11;
    cfg.segmentCount = 4;
    cfg.overlap = 256;
    w.snapPath = (dir / "ref.gxs").string();
    EXPECT_TRUE(IndexSnapshot::build(w.snapPath, map.sequence(),
                                     contigs, cfg)
                    .ok());
    return w;
}

struct RunOut
{
    std::string sam;
    PipelineResult res;
};

RunOut
runAligned(const SnapWorkload &w, const PipelineOptions &opts,
           u64 batch_reads)
{
    RunOut out;
    std::ostringstream sink;
    StatusOr<PipelineResult> res = [&] {
        if (batch_reads > 0) {
            std::ostringstream fastq;
            EXPECT_TRUE(writeFastq(fastq, w.reads).ok());
            std::istringstream in(fastq.str());
            FastqReader reader(in);
            PipelineOptions o = opts;
            o.batchReads = batch_reads;
            return alignStreamToSam(w.ref, reader, sink, o);
        }
        return alignToSam(w.ref, w.reads, sink, opts);
    }();
    EXPECT_TRUE(res.ok()) << res.status().str();
    if (res.ok())
        out.res = *res;
    out.sam = sink.str();
    return out;
}

/** The SAM the serving daemon's engine gives for `w`'s reads,
 *  aligned in batches of `batch` reads (0 = one batch). */
std::string
servedSam(const SnapWorkload &w, const ServiceConfig &cfg, u64 batch)
{
    auto svc = AlignService::create(w.ref, cfg);
    EXPECT_TRUE(svc.ok()) << svc.status().str();
    if (!svc.ok())
        return "";
    std::string sam = (*svc)->headerText();
    const u64 step = batch == 0 ? w.reads.size() : batch;
    for (u64 lo = 0; lo < w.reads.size(); lo += step) {
        const std::vector<FastqRecord> part(
            w.reads.begin() + static_cast<i64>(lo),
            w.reads.begin() +
                static_cast<i64>(std::min<u64>(w.reads.size(), lo + step)));
        for (const auto &line : (*svc)->alignBatch(part).samLines)
            sam += line;
    }
    (*svc)->finish();
    return sam;
}

TEST(IndexSnapshotPipeline, SamIdenticalAtAnyBatchAndThreads)
{
    const fs::path dir = scratchDir("genax_snap_pipeline");
    const SnapWorkload w = snapWorkload(dir);

    PipelineOptions base;
    base.k = 11;
    base.segments = 4;
    base.segmentOverlap = 256;

    for (const auto engine : {PipelineOptions::Engine::GenAx,
                              PipelineOptions::Engine::Software}) {
        base.engine = engine;
        for (const unsigned threads : {1u, 4u, 8u}) {
            PipelineOptions plain = base;
            plain.threads = threads;
            const RunOut want = runAligned(w, plain, 0);
            EXPECT_FALSE(want.res.indexFromSnapshot);
            const std::string what =
                std::string(engine == PipelineOptions::Engine::GenAx
                                ? "genax"
                                : "sw") +
                " threads " + std::to_string(threads);

            for (const u64 batch : {u64{0}, u64{7}, u64{64}}) {
                PipelineOptions snap = base;
                snap.threads = threads;
                snap.indexSnapshot = w.snapPath;
                const RunOut got = runAligned(w, snap, batch);
                EXPECT_EQ(got.sam, want.sam)
                    << what << " batch " << batch;
                EXPECT_TRUE(got.res.indexFromSnapshot);
                EXPECT_FALSE(got.res.indexFallback);
                EXPECT_EQ(got.res.mapped, want.res.mapped);
                EXPECT_EQ(got.res.failed, want.res.failed);
                EXPECT_EQ(got.res.perf.totalSeconds,
                          want.res.perf.totalSeconds)
                    << "modelled time must not depend on the index "
                       "source";
                EXPECT_EQ(got.res.perf.extensionJobs,
                          want.res.perf.extensionJobs);

                // Served, with and without the snapshot.
                EXPECT_EQ(servedSam(w, snap, batch), want.sam)
                    << what << " batch " << batch << " served";
                EXPECT_EQ(servedSam(w, plain, batch), want.sam)
                    << what << " batch " << batch
                    << " served without a snapshot";
            }
        }
    }
    fs::remove_all(dir);
}

TEST(IndexSnapshotPipeline, CorruptSnapshotDegradesToIdenticalRebuild)
{
    const fs::path dir = scratchDir("genax_snap_degrade");
    const SnapWorkload w = snapWorkload(dir);

    PipelineOptions base;
    base.k = 11;
    base.segments = 4;
    base.segmentOverlap = 256;
    const RunOut want = runAligned(w, base, 0);

    // Corrupt a postings byte past the header.
    const std::string bad_path = (dir / "bad.gxs").string();
    std::string bytes = slurp(w.snapPath);
    bytes[bytes.size() / 2] =
        static_cast<char>(static_cast<u8>(bytes[bytes.size() / 2]) ^
                          0x20);
    spit(bad_path, bytes);

    PipelineOptions snap = base;
    snap.indexSnapshot = bad_path;
    const RunOut got = runAligned(w, snap, 0);
    EXPECT_TRUE(got.res.indexFallback);
    EXPECT_FALSE(got.res.indexFromSnapshot);
    EXPECT_NE(got.res.indexNote.find("rebuilding from FASTA"),
              std::string::npos)
        << got.res.indexNote;
    EXPECT_EQ(got.sam, want.sam);

    // A missing snapshot file degrades the same way.
    PipelineOptions missing = base;
    missing.indexSnapshot = (dir / "nope.gxs").string();
    const RunOut got2 = runAligned(w, missing, 0);
    EXPECT_TRUE(got2.res.indexFallback);
    EXPECT_EQ(got2.sam, want.sam);
    fs::remove_all(dir);
}

TEST(IndexSnapshotPipeline, WrongReferenceIsAHardError)
{
    const fs::path dir = scratchDir("genax_snap_wrongref");
    const SnapWorkload w = snapWorkload(dir);

    // Same shape, different bases: the fingerprint must catch it.
    Rng rng(908);
    std::vector<FastaRecord> other = w.ref;
    other[0].seq = randomSeq(rng, other[0].seq.size());

    PipelineOptions opts;
    opts.k = 11;
    opts.segments = 4;
    opts.segmentOverlap = 256;
    opts.indexSnapshot = w.snapPath;
    std::ostringstream sink;
    const auto res = alignToSam(other, w.reads, sink, opts);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::FailedPrecondition);
    EXPECT_NE(res.status().str().find("fingerprint"),
              std::string::npos)
        << res.status().str();
    fs::remove_all(dir);
}

} // namespace
} // namespace genax

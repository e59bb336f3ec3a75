/**
 * @file
 * Tests for the seeding accelerator: k-mer index, CAM model, SMEM
 * engine (with all optimization ablations) and genome segmentation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "io/store.hh"
#include "readsim/refgen.hh"
#include "seed/cam.hh"
#include "seed/flat_kmer_index.hh"
#include "seed/index_snapshot.hh"
#include "seed/kmer_index.hh"
#include "seed/segment.hh"
#include "seed/smem_engine.hh"

namespace genax {
namespace {

Seq
randomSeq(Rng &rng, size_t len)
{
    Seq s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(4)));
    return s;
}

/** All positions where `pat` occurs in `ref` (brute force). */
std::vector<u32>
occurrences(const Seq &ref, const Seq &pat)
{
    std::vector<u32> out;
    if (pat.empty() || pat.size() > ref.size())
        return out;
    for (size_t r = 0; r + pat.size() <= ref.size(); ++r) {
        if (std::equal(pat.begin(), pat.end(), ref.begin() + r))
            out.push_back(static_cast<u32>(r));
    }
    return out;
}

/** Longest L >= 0 such that read[p, p+L) occurs somewhere in ref. */
u32
maxExtension(const Seq &ref, const Seq &read, u32 pivot)
{
    u32 best = 0;
    for (size_t r = 0; r < ref.size(); ++r) {
        u32 l = 0;
        while (pivot + l < read.size() && r + l < ref.size() &&
               read[pivot + l] == ref[r + l]) {
            ++l;
        }
        best = std::max(best, l);
    }
    return best;
}

// --------------------------------------------------------- KmerIndex

class KmerIndexTest : public ::testing::TestWithParam<u32>
{};

TEST_P(KmerIndexTest, LookupMatchesBruteForce)
{
    const u32 k = GetParam();
    Rng rng(700 + k);
    const Seq ref = randomSeq(rng, 3000);
    KmerIndex index(ref, k);
    for (int t = 0; t < 60; ++t) {
        const size_t pos = rng.below(ref.size() - k + 1);
        const Seq pat(ref.begin() + static_cast<i64>(pos),
                      ref.begin() + static_cast<i64>(pos + k));
        const auto hits = index.lookup(index.packKmer(pat, 0));
        const auto expect = occurrences(ref, pat);
        ASSERT_EQ(hits.size(), expect.size()) << "k=" << k;
        EXPECT_TRUE(std::equal(hits.begin(), hits.end(), expect.begin()));
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, KmerIndexTest,
                         ::testing::Values(3u, 6u, 9u, 12u));

TEST(KmerIndex, AbsentKmerHasNoHits)
{
    // A reference of all-A cannot contain any k-mer with a C.
    const Seq ref(500, kBaseA);
    KmerIndex index(ref, 8);
    const Seq pat = encode("AAAACAAA");
    EXPECT_TRUE(index.lookup(index.packKmer(pat, 0)).empty());
    // And the all-A k-mer hits every position.
    EXPECT_EQ(index.lookup(0).size(), 500u - 8 + 1);
    EXPECT_EQ(index.maxHitListSize(), 493u);
}

TEST(KmerIndex, PositionsAreSorted)
{
    Rng rng(701);
    const Seq ref = randomSeq(rng, 5000);
    KmerIndex index(ref, 5);
    for (u64 key = 0; key < (1u << 10); ++key) {
        const auto hits = index.lookup(key);
        EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
    }
}

TEST(KmerIndex, ShortReferenceHandled)
{
    const Seq ref = encode("ACG");
    KmerIndex index(ref, 8);
    EXPECT_TRUE(index.lookup(0).empty());
    EXPECT_EQ(index.positionTableBytes(), 0u);
}

TEST(KmerIndex, TableFootprints)
{
    Rng rng(702);
    const Seq ref = randomSeq(rng, 10000);
    KmerIndex index(ref, 10);
    EXPECT_EQ(index.indexTableBytes(), (u64{1} << 20) * 3);
    EXPECT_EQ(index.positionTableBytes(), (10000u - 10 + 1) * 3);
}

// ------------------------------------------------------ FlatKmerIndex
//
// The open-addressing layout must be observationally identical to the
// dense CSR layout: same hit lists (contents and order) for every key,
// same CAM-sizing and footprint metadata. These diffs are what lets
// the dense layout serve as the run-time oracle for the flat table.

class FlatKmerIndexTest : public ::testing::TestWithParam<u32>
{};

TEST_P(FlatKmerIndexTest, ExhaustivelyMatchesDenseLayout)
{
    const u32 k = GetParam();
    Rng rng(750 + k);
    const Seq ref = randomSeq(rng, 4000);
    const KmerIndex dense(ref, k);
    // Width 0 (every hardware thread) checks the parallel build too.
    for (const unsigned width : {1u, 0u}) {
        const FlatKmerIndex flat(ref, k, width);
        EXPECT_EQ(flat.k(), dense.k());
        EXPECT_EQ(flat.segmentLength(), dense.segmentLength());
        EXPECT_EQ(flat.maxHitListSize(), dense.maxHitListSize());

        u64 distinct = 0;
        for (u64 key = 0; key < (u64{1} << (2 * k)); ++key) {
            const auto d = dense.lookup(key);
            const auto f = flat.lookup(key);
            ASSERT_EQ(f.size(), d.size())
                << "key=" << key << " k=" << k << " width=" << width;
            ASSERT_TRUE(std::equal(f.begin(), f.end(), d.begin()))
                << "key=" << key << " k=" << k << " width=" << width;
            ASSERT_EQ(flat.lookupCount(key), d.size()) << "key=" << key;
            distinct += d.empty() ? 0 : 1;
        }
        EXPECT_EQ(flat.distinctKmers(), distinct);
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, FlatKmerIndexTest,
                         ::testing::Values(3u, 5u, 7u));

/** A readsim reference with 30% repeat copies (200 kbp). */
const Seq &
repeatRichReference()
{
    static const Seq ref = [] {
        RefGenConfig cfg;
        cfg.length = 200'000;
        cfg.seed = 15;
        cfg.repeatFraction = 0.30;
        return generateReference(cfg);
    }();
    return ref;
}

/** The references the width and filter suites build at k: random,
 *  repeat-rich, one repeated base, exactly one k-mer and none. */
std::vector<std::pair<std::string, Seq>>
widthTestReferences(u32 k)
{
    Rng rng(770 + k);
    std::vector<std::pair<std::string, Seq>> refs;
    refs.emplace_back("random 4 kbp", randomSeq(rng, 4000));
    refs.emplace_back("readsim 200 kbp, 30% repeats",
                      repeatRichReference());
    refs.emplace_back("poly-A", Seq(3000, kBaseA));
    refs.emplace_back("length k", randomSeq(rng, k));
    refs.emplace_back("shorter than k", randomSeq(rng, k - 1));
    return refs;
}

class FlatKmerIndexWidthTest : public ::testing::TestWithParam<u32>
{};

TEST_P(FlatKmerIndexWidthTest, BuildIsByteIdenticalAtEveryWidth)
{
    const u32 k = GetParam();
    for (const auto &[name, ref] : widthTestReferences(k)) {
        const FlatKmerIndex serial(ref, k, 1);
        const auto table = serial.tableSpan();
        const auto positions = serial.positionsSpan();
        for (const unsigned width : {2u, 3u, 0u}) {
            const FlatKmerIndex wide(ref, k, width);
            const auto t = wide.tableSpan();
            const auto p = wide.positionsSpan();
            ASSERT_EQ(t.size(), table.size()) << name << " width " << width;
            EXPECT_EQ(std::memcmp(t.data(), table.data(), t.size_bytes()), 0)
                << name << " width " << width;
            EXPECT_TRUE(std::equal(p.begin(), p.end(), positions.begin(),
                                   positions.end()))
                << name << " width " << width;
            EXPECT_TRUE(std::ranges::equal(wide.filterSpan(),
                                           serial.filterSpan()))
                << name << " width " << width;
            EXPECT_EQ(wide.maxHitListSize(), serial.maxHitListSize())
                << name << " width " << width;
            EXPECT_EQ(wide.distinctKmers(), serial.distinctKmers())
                << name << " width " << width;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, FlatKmerIndexWidthTest,
                         ::testing::Values(1u, 3u, 7u, 12u, 13u));

class FlatKmerFilterTest : public ::testing::TestWithParam<u32>
{};

// The presence filter may only ever spare lookup() a table probe: it
// has no false negatives, lookup() still matches the dense oracle,
// and it rejects at least 85% of absent keys.
TEST_P(FlatKmerFilterTest, NoFalseNegativesAndFewFalsePositives)
{
    const u32 k = GetParam();
    const u64 key_space = u64{1} << (2 * k);
    Rng rng(780 + k);
    u64 absent = 0, passed = 0;
    for (const auto &[name, ref] : widthTestReferences(k)) {
        // The dense oracle at k <= 8 (every key) and k = 12 (10^6
        // random keys); the filter rate from every key up to k = 8
        // and 10^5 random keys above.
        std::optional<KmerIndex> dense;
        if (k <= 8 || k == 12)
            dense.emplace(ref, k);
        std::vector<u64> keys;
        if (k <= 8) {
            keys.resize(key_space);
            std::iota(keys.begin(), keys.end(), u64{0});
        } else {
            keys.resize(k == 12 ? 1'000'000 : 100'000);
            for (u64 &key : keys)
                key = rng.below(key_space);
        }
        for (const unsigned width : {1u, 2u, 3u, 0u}) {
            const auto where = ::testing::Message()
                               << name << ", width " << width;
            const FlatKmerIndex flat(ref, k, width);
            EXPECT_EQ(flat.filterSpan().size(),
                      FlatKmerIndex::filterWords(flat.distinctKmers()))
                << where;
            for (size_t p = 0; p + k <= ref.size(); ++p)
                ASSERT_TRUE(flat.mayContain(flat.packKmer(ref, p)))
                    << where << ", position " << p;
            for (const u64 key : keys) {
                const auto got = flat.lookup(key);
                if (dense) {
                    const auto want = dense->lookup(key);
                    ASSERT_TRUE(std::ranges::equal(got, want))
                        << where << ", key " << key;
                }
                if (width == 1 && got.empty()) {
                    ++absent;
                    passed += flat.mayContain(key) ? 1 : 0;
                }
            }
        }
    }
    // Below k = 6 too few keys are absent for a rate to mean much.
    if (absent >= 1000) {
        EXPECT_LE(static_cast<double>(passed),
                  0.15 * static_cast<double>(absent))
            << passed << " of " << absent << " absent keys passed";
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, FlatKmerFilterTest, ::testing::Range(1u, 14u));

/** A key's first probe slot: the splitmix64 finalizer over the key
 *  plus kFlatIndexHashSeed, masked to the table. */
u64
homeSlot(u64 key, u64 mask)
{
    u64 h = key + kFlatIndexHashSeed;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return (h ^ (h >> 31)) & mask;
}

/**
 * The serial build that the parallel one replaced, kept as its layout
 * oracle: insert every k-mer in reference order by linear probing from
 * its splitmix64 home slot (so keys sit in first-occurrence order along
 * each probe run), then give the keys postings extents in ascending key
 * order and fill each extent in position order.
 */
struct SerialFlatLayout
{
    std::vector<FlatKmerIndex::Entry> table;
    std::vector<u32> positions;
    u32 maxHits = 0;
    u64 distinct = 0;
    u64 wrapped = 0;  //!< keys stored below their home slot
    u64 clusters = 0; //!< runs of two or more occupied slots

    SerialFlatLayout(const Seq &ref, u32 k)
    {
        if (ref.size() < k) {
            table.assign(2, {});
            return;
        }
        const u64 kmers = ref.size() - k + 1;
        table.assign(std::bit_ceil(std::max<u64>(16, 2 * kmers)), {});
        const u64 mask = table.size() - 1;
        auto keyAt = [&](u64 p) {
            u64 key = 0;
            for (u32 i = 0; i < k; ++i)
                key |= static_cast<u64>(ref[p + i] & 3) << (2 * i);
            return key;
        };
        // The key's slot, or the empty slot where it would go.
        auto findSlot = [&](u64 key) {
            u64 slot = homeSlot(key, mask);
            while (table[slot].key != key &&
                   table[slot].key != FlatKmerIndex::kEmptyKey)
                slot = (slot + 1) & mask;
            return slot;
        };
        for (u64 p = 0; p < kmers; ++p) {
            const u64 key = keyAt(p);
            FlatKmerIndex::Entry &e = table[findSlot(key)];
            if (e.key == key) {
                ++e.count;
                continue;
            }
            e = {key, 0, 1};
            ++distinct;
        }
        std::vector<std::pair<u64, u64>> keys; // (key, slot)
        for (u64 s = 0; s < table.size(); ++s)
            if (table[s].key != FlatKmerIndex::kEmptyKey)
                keys.emplace_back(table[s].key, s);
        std::sort(keys.begin(), keys.end());
        u32 offset = 0;
        for (const auto &[key, s] : keys) {
            table[s].offset = offset;
            offset += table[s].count;
            maxHits = std::max(maxHits, table[s].count);
            table[s].count = 0;
        }
        positions.resize(kmers);
        for (u64 p = 0; p < kmers; ++p) {
            FlatKmerIndex::Entry &e = table[findSlot(keyAt(p))];
            positions[e.offset + e.count++] = static_cast<u32>(p);
        }

        // Probe runs start after an empty slot; the load is at most 50%
        // so there is one.
        u64 first_empty = 0;
        while (table[first_empty].key != FlatKmerIndex::kEmptyKey)
            ++first_empty;
        u64 run = 0;
        for (u64 i = 1; i <= table.size(); ++i) {
            const u64 s = (first_empty + i) & mask;
            if (table[s].key == FlatKmerIndex::kEmptyKey) {
                clusters += run >= 2 ? 1 : 0;
                run = 0;
                continue;
            }
            ++run;
            wrapped += s < homeSlot(table[s].key, mask) ? 1 : 0;
        }
    }
};

// The parallel build (a counting sort, then ordered linear probing by
// first occurrence) must lay the table out exactly as the serial
// reference-order insertion did, byte for byte, at every width.
TEST(FlatKmerIndex, MatchesTheSerialReferenceOrderLayout)
{
    u64 wrapped = 0, clusters = 0;
    for (const u32 k : {1u, 2u, 3u, 7u, 12u, 13u}) {
        Rng rng(720 + k);
        const std::vector<std::pair<std::string, Seq>> refs = {
            {"random 4 kbp", randomSeq(rng, 4000)},
            {"readsim 200 kbp, 30% repeats", repeatRichReference()},
            {"poly-A", Seq(3000, kBaseA)},
            {"length k", randomSeq(rng, k)},
            {"shorter than k", randomSeq(rng, k - 1)},
        };
        for (const auto &[name, ref] : refs) {
            const SerialFlatLayout serial(ref, k);
            wrapped += serial.wrapped;
            clusters += serial.clusters;
            for (const unsigned width : {1u, 2u, 3u, 0u}) {
                const FlatKmerIndex flat(ref, k, width);
                const auto where = ::testing::Message()
                                   << name << ", k " << k << ", width "
                                   << width;
                const auto t = flat.tableSpan();
                ASSERT_EQ(t.size(), serial.table.size()) << where;
                EXPECT_EQ(std::memcmp(t.data(), serial.table.data(),
                                      t.size_bytes()),
                          0)
                    << where;
                const auto p = flat.positionsSpan();
                EXPECT_TRUE(std::equal(p.begin(), p.end(),
                                       serial.positions.begin(),
                                       serial.positions.end()))
                    << where;
                EXPECT_EQ(flat.maxHitListSize(), serial.maxHits) << where;
                EXPECT_EQ(flat.distinctKmers(), serial.distinct) << where;
            }
        }
    }
    // Displacement and wrap-around past the last slot both happened.
    EXPECT_GT(clusters, 0u);
    EXPECT_GT(wrapped, 0u);
}

TEST(FlatKmerIndex, PolyAKeyHoldsEveryPosition)
{
    const Seq ref(3000, kBaseA);
    const FlatKmerIndex flat(ref, 12, 0);
    const auto hits = flat.lookup(0);
    ASSERT_EQ(hits.size(), ref.size() - 11);
    for (u32 i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], i);
    EXPECT_EQ(flat.maxHitListSize(), ref.size() - 11);
    EXPECT_EQ(flat.distinctKmers(), 1u);
}

// Every GXSNAP file on disk depends on these bytes: the slot layout,
// the key-ordered extents and the postings. The table and postings
// checksums were recorded with the original single-threaded
// comparison-sort build; the snapshot's size and checksum with GXSNAP
// version 2, which adds each segment's presence filter.
TEST(FlatKmerIndex, GoldenBytesOfTheRecordedLayout)
{
    const Seq &ref = repeatRichReference();
    for (const unsigned width : {1u, 2u, 0u}) {
        const FlatKmerIndex flat(ref, 12, width);
        const auto t = flat.tableSpan();
        const auto p = flat.positionsSpan();
        EXPECT_EQ(storeChecksum(t.data(), t.size_bytes()),
                  0xe541ccaface7c6dfULL)
            << "width " << width;
        EXPECT_EQ(storeChecksum(p.data(), p.size_bytes()),
                  0x3957a8ecae60b875ULL)
            << "width " << width;
        EXPECT_EQ(flat.maxHitListSize(), 9u);
        EXPECT_EQ(flat.distinctKmers(), 146488u);
    }

    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "genax_flat_index_golden";
    fs::create_directories(dir);
    const std::string path = (dir / "ref.gxsnap").string();
    SegmentConfig cfg;
    cfg.k = 12;
    cfg.segmentCount = 8;
    cfg.overlap = 256;
    ASSERT_TRUE(
        IndexSnapshot::build(path, ref, {{"chr1", 0, ref.size()}}, cfg)
            .ok());
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), 9651136u);
    EXPECT_EQ(storeChecksum(bytes.data(), bytes.size()),
              0xe4267ae9071f8b6aULL)
        << std::hex << storeChecksum(bytes.data(), bytes.size());

    // The file stores the whole-reference index byte for byte.
    const auto snap = IndexSnapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().str();
    const FlatKmerIndex flat(ref, 12);
    const FlatKmerIndex stored = snap->index();
    EXPECT_TRUE(std::ranges::equal(stored.tableSpan(), flat.tableSpan(),
                                   [](const auto &a, const auto &b) {
                                       return a.key == b.key &&
                                              a.offset == b.offset &&
                                              a.count == b.count;
                                   }));
    EXPECT_TRUE(
        std::ranges::equal(stored.positionsSpan(), flat.positionsSpan()));
    EXPECT_TRUE(std::ranges::equal(stored.filterSpan(), flat.filterSpan()));
    fs::remove_all(dir);
}

TEST(FlatKmerIndex, SampledMatchAtPaperK)
{
    // k = 12 is too wide to sweep exhaustively; diff every k-mer that
    // actually occurs plus a sample of absent keys.
    Rng rng(760);
    const Seq ref = randomSeq(rng, 20000);
    const u32 k = 12;
    const KmerIndex dense(ref, k);
    const FlatKmerIndex flat(ref, k);
    for (size_t pos = 0; pos + k <= ref.size(); ++pos) {
        const u64 key = flat.packKmer(ref, pos);
        const auto d = dense.lookup(key);
        const auto f = flat.lookup(key);
        ASSERT_EQ(f.size(), d.size()) << "pos=" << pos;
        ASSERT_TRUE(std::equal(f.begin(), f.end(), d.begin()));
    }
    for (u64 key = 1; key < (u64{1} << 24); key += 65537) {
        const auto d = dense.lookup(key);
        const auto f = flat.lookup(key);
        ASSERT_EQ(f.size(), d.size()) << "key=" << key;
        ASSERT_TRUE(std::equal(f.begin(), f.end(), d.begin()));
    }
}

TEST(FlatKmerIndex, HardwareFootprintsModelTheDenseTables)
{
    Rng rng(761);
    const Seq ref = randomSeq(rng, 10000);
    const KmerIndex dense(ref, 10);
    const FlatKmerIndex flat(ref, 10);
    // Table II's streaming model must not change with the host layout.
    EXPECT_EQ(flat.indexTableBytes(), dense.indexTableBytes());
    EXPECT_EQ(flat.positionTableBytes(), dense.positionTableBytes());
    // ...but the actual host memory is far smaller than 4^k entries.
    EXPECT_LT(flat.hostBytes(), dense.hostBytes());
}

TEST(FlatKmerIndex, ProbeLengthsAreSane)
{
    Rng rng(762);
    const Seq ref = randomSeq(rng, 8000);
    const FlatKmerIndex flat(ref, 9);
    u64 total = 0, lookups = 0;
    for (size_t pos = 0; pos + 9 <= ref.size(); pos += 7) {
        const u32 p = flat.probeLength(flat.packKmer(ref, pos));
        ASSERT_GE(p, 1u);
        total += p;
        ++lookups;
    }
    // <= 50% load keeps linear probing short: average well under 2.
    EXPECT_LT(static_cast<double>(total) / lookups, 2.0);
}

TEST(FlatKmerIndex, ShortReferenceHandled)
{
    const Seq ref = encode("ACG");
    const FlatKmerIndex flat(ref, 8);
    EXPECT_TRUE(flat.lookup(0).empty());
    EXPECT_EQ(flat.lookupCount(0), 0u);
    EXPECT_EQ(flat.distinctKmers(), 0u);
    EXPECT_EQ(flat.positionTableBytes(), 0u);
}

// --------------------------------------------------------------- CAM

TEST(CamModel, IntersectionCorrectWithNormalization)
{
    CamModel cam(512);
    const std::vector<u32> cand{5, 10, 20, 100};
    const std::vector<u32> hits{2, 13, 23, 95, 103, 200};
    // offset 3: normalized hits {10, 20, 92, 100, 197} and 2 dropped.
    const auto out = cam.intersect(cand, hits, 3);
    EXPECT_EQ(out, (std::vector<u32>{10, 20, 100}));
}

TEST(CamModel, EmptyInputs)
{
    CamModel cam(512);
    EXPECT_TRUE(cam.intersect({}, std::vector<u32>{1, 2}, 0).empty());
    EXPECT_TRUE(cam.intersect({1, 2}, std::vector<u32>{}, 0).empty());
}

TEST(CamModel, RandomizedAgainstSetIntersection)
{
    Rng rng(710);
    CamModel cam(512);
    for (int t = 0; t < 50; ++t) {
        std::set<u32> a, b;
        for (int i = 0; i < 60; ++i)
            a.insert(static_cast<u32>(rng.below(500)));
        for (int i = 0; i < 60; ++i)
            b.insert(static_cast<u32>(rng.below(500)));
        const u32 off = static_cast<u32>(rng.below(20));
        std::vector<u32> cand(a.begin(), a.end());
        std::vector<u32> hits(b.begin(), b.end());
        std::vector<u32> expect;
        for (u32 h : hits)
            if (h >= off && a.count(h - off))
                expect.push_back(h - off);
        EXPECT_EQ(cam.intersect(cand, hits, off), expect);
    }
}

TEST(CamModel, CountsCamSearchesForSmallLists)
{
    CamModel cam(512);
    cam.intersect({1, 2, 3}, std::vector<u32>{1, 2, 3, 4, 5}, 0);
    EXPECT_EQ(cam.stats().loads, 5u);    // hit list into the CAM
    EXPECT_EQ(cam.stats().searches, 3u); // one per candidate
    EXPECT_EQ(cam.stats().binarySteps, 0u);
    EXPECT_EQ(cam.stats().overflowFallbacks, 0u);
}

TEST(CamModel, BinaryFallbackForOversizedLists)
{
    CamModel with_fallback(4, true);
    CamModel without_fallback(4, false);
    const std::vector<u32> cand{1, 2, 3};
    std::vector<u32> hits;
    for (u32 i = 0; i < 100; ++i)
        hits.push_back(i);
    const auto a = with_fallback.intersect(cand, hits, 0);
    const auto b = without_fallback.intersect(cand, hits, 0);
    EXPECT_EQ(a, b); // identical result, different cost path
    EXPECT_EQ(with_fallback.stats().searches, 0u);
    EXPECT_GT(with_fallback.stats().binarySteps, 0u);
    EXPECT_EQ(with_fallback.stats().overflowFallbacks, 1u);
    // 25 CAM refill passes, candidates re-streamed each pass.
    EXPECT_EQ(without_fallback.stats().searches, 25u * 3);
    // The fallback saves lookups: |cand| * log vs |hits|.
    EXPECT_LT(with_fallback.stats().lookups(),
              without_fallback.stats().lookups());
}

// -------------------------------------------------------- SMEM engine

TEST(SmemEngine, ExactReadFastPath)
{
    Rng rng(720);
    const Seq ref = randomSeq(rng, 20000);
    SeedIndex index(ref, 10);
    SmemEngine engine(index, {});
    const u32 pos = 4321, len = 101;
    const Seq read(ref.begin() + pos, ref.begin() + pos + len);
    const auto seeds = engine.seed(read);
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(seeds[0].qryBegin, 0u);
    EXPECT_EQ(seeds[0].qryEnd, len);
    ASSERT_FALSE(seeds[0].positions.empty());
    EXPECT_TRUE(std::find(seeds[0].positions.begin(),
                          seeds[0].positions.end(),
                          pos) != seeds[0].positions.end());
    EXPECT_EQ(engine.stats().exactMatchReads, 1u);
}

TEST(SmemEngine, ExactPositionsMatchBruteForce)
{
    Rng rng(721);
    // Force repeats so the exact read has multiple hits.
    Seq ref = randomSeq(rng, 5000);
    const Seq unit(ref.begin() + 100, ref.begin() + 400);
    for (int copy = 0; copy < 3; ++copy)
        ref.insert(ref.end(), unit.begin(), unit.end());
    SeedIndex index(ref, 10);
    SmemEngine engine(index, {});
    const Seq read(ref.begin() + 150, ref.begin() + 251);
    const auto seeds = engine.seed(read);
    ASSERT_EQ(seeds.size(), 1u);
    const auto expect_pos = occurrences(ref, read);
    ASSERT_EQ(seeds[0].positions.size(), expect_pos.size());
    EXPECT_TRUE(std::equal(seeds[0].positions.begin(),
                           seeds[0].positions.end(),
                           expect_pos.begin()));
}

/** Reference SMEM oracle matching the engine's reporting rule. */
std::vector<Smem>
smemOracle(const Seq &ref, const Seq &read, u32 k)
{
    std::vector<Smem> out;
    u32 max_end = 0;
    for (u32 pivot = 0; pivot + k <= read.size(); ++pivot) {
        const u32 ext = maxExtension(ref, read, pivot);
        if (ext < k)
            continue;
        const u32 end = pivot + ext;
        if (end <= max_end)
            continue;
        max_end = end;
        Smem s;
        s.qryBegin = pivot;
        s.qryEnd = end;
        const Seq pat(read.begin() + pivot, read.begin() + end);
        const auto occ = occurrences(ref, pat);
        s.positions.assign(occ.begin(), occ.end());
        out.push_back(std::move(s));
    }
    return out;
}

TEST(SmemEngine, MatchesOracleOnMutatedReads)
{
    Rng rng(722);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);
    SeedingConfig cfg;
    cfg.exactMatchFastPath = false; // exercise the pivot loop fully
    SmemEngine engine(index, cfg);
    for (int t = 0; t < 15; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        // A couple of substitutions to split the read into SMEMs.
        for (int e = 0; e < 2; ++e) {
            const u64 p = rng.below(read.size());
            read[p] = static_cast<Base>((read[p] + 1 + rng.below(3)) & 3);
        }
        const auto got = engine.seed(read);
        const auto expect = smemOracle(ref, read, 8);
        ASSERT_EQ(got.size(), expect.size()) << "t=" << t;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].qryBegin, expect[i].qryBegin);
            EXPECT_EQ(got[i].qryEnd, expect[i].qryEnd);
            EXPECT_EQ(got[i].positions, expect[i].positions)
                << "smem " << i;
        }
    }
}

TEST(SmemEngine, OptimizationsPreserveResults)
{
    Rng rng(723);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);

    SeedingConfig base;
    base.exactMatchFastPath = false;
    base.probing = false;
    base.binarySearchFallback = false;

    for (int t = 0; t < 10; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        for (int e = 0; e < 3; ++e) {
            const u64 p = rng.below(read.size());
            read[p] = static_cast<Base>((read[p] + 1 + rng.below(3)) & 3);
        }

        SmemEngine plain(index, base);
        const auto expect = plain.seed(read);

        for (int variant = 0; variant < 3; ++variant) {
            SeedingConfig cfg = base;
            if (variant == 0)
                cfg.probing = true;
            if (variant == 1)
                cfg.binarySearchFallback = true;
            if (variant == 2)
                cfg.exactMatchFastPath = true;
            SmemEngine opt(index, cfg);
            const auto got = opt.seed(read);
            ASSERT_EQ(got.size(), expect.size()) << "variant=" << variant;
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].qryBegin, expect[i].qryBegin);
                EXPECT_EQ(got[i].qryEnd, expect[i].qryEnd);
                EXPECT_EQ(got[i].positions, expect[i].positions);
            }
        }
    }
}

TEST(SmemEngine, StrideRefinementLengthensSmems)
{
    Rng rng(724);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);
    SeedingConfig with, without;
    with.exactMatchFastPath = without.exactMatchFastPath = false;
    without.strideRefinement = false;

    bool strictly_longer_somewhere = false;
    for (int t = 0; t < 10; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        const u64 p = 30 + rng.below(40);
        read[p] = static_cast<Base>((read[p] + 1 + rng.below(3)) & 3);

        SmemEngine a(index, with), b(index, without);
        const auto refined = a.seed(read);
        const auto coarse = b.seed(read);
        ASSERT_FALSE(refined.empty());
        ASSERT_FALSE(coarse.empty());
        // Both report the pivot-0 RMEM first; refinement can only
        // lengthen it.
        EXPECT_EQ(refined[0].qryBegin, 0u);
        EXPECT_EQ(coarse[0].qryBegin, 0u);
        EXPECT_GE(refined[0].length(), coarse[0].length());
        strictly_longer_somewhere |=
            refined[0].length() > coarse[0].length();
    }
    EXPECT_TRUE(strictly_longer_somewhere);
}

TEST(SmemEngine, SmemFilterReducesReportedHits)
{
    Rng rng(725);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);
    SeedingConfig filtered, raw;
    filtered.exactMatchFastPath = raw.exactMatchFastPath = false;
    raw.smemFilter = false;

    SmemEngine a(index, filtered), b(index, raw);
    for (int t = 0; t < 10; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        const Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        a.seed(read);
        b.seed(read);
    }
    EXPECT_LT(a.stats().hitsReported, b.stats().hitsReported);
    EXPECT_LT(a.stats().smems, b.stats().smems);
}

TEST(SmemEngine, BinaryFallbackCutsCamLookupsOnRepetitiveGenomes)
{
    // Poly-A stretches create the pathological hit lists the paper
    // calls out ("AA...A"); the binary fallback bounds the cost.
    Rng rng(726);
    Seq ref = randomSeq(rng, 2000);
    ref.insert(ref.end(), 40000, kBaseA);
    SeedIndex index(ref, 8);

    SeedingConfig with, without;
    with.exactMatchFastPath = without.exactMatchFastPath = false;
    without.binarySearchFallback = false;

    Seq read(101, kBaseA);
    read[50] = kBaseC; // not an exact match

    SmemEngine a(index, with), b(index, without);
    a.seed(read);
    b.seed(read);
    EXPECT_LT(a.stats().cam.lookups(), b.stats().cam.lookups());
}

TEST(SmemEngine, ShortReadProducesNoSeeds)
{
    Rng rng(727);
    const Seq ref = randomSeq(rng, 1000);
    SeedIndex index(ref, 12);
    SmemEngine engine(index, {});
    EXPECT_TRUE(engine.seed(encode("ACGTACG")).empty());
}

// ------------------------------------------------------------ segments

TEST(GenomeSegments, PartitionCoversGenomeWithOverlap)
{
    Rng rng(730);
    const Seq ref = randomSeq(rng, 100000);
    SegmentConfig cfg;
    cfg.segmentCount = 16;
    cfg.overlap = 100;
    cfg.k = 8;
    GenomeSegments segs(ref, cfg);
    ASSERT_EQ(segs.count(), 16u);
    // Contiguity: segment i+1 starts exactly base-length after i.
    EXPECT_EQ(segs.start(0), 0u);
    for (u64 i = 0; i + 1 < segs.count(); ++i)
        EXPECT_EQ(segs.start(i + 1) - segs.start(i), 6250u);
    // Every 101-window is fully inside some segment.
    for (u64 w = 0; w + 101 <= ref.size(); w += 997) {
        bool covered = false;
        for (u64 i = 0; i < segs.count(); ++i) {
            if (w >= segs.start(i) &&
                w + 101 <= segs.start(i) + segs.length(i)) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered) << "window at " << w;
    }
}

TEST(GenomeSegments, SegmentBasesMatchReference)
{
    Rng rng(731);
    const Seq ref = randomSeq(rng, 50000);
    SegmentConfig cfg;
    cfg.segmentCount = 8;
    cfg.overlap = 128;
    GenomeSegments segs(ref, cfg);
    for (u64 i = 0; i < segs.count(); ++i) {
        const Seq seg = segs.bases(i);
        for (u64 j = 0; j < seg.size(); j += 199)
            EXPECT_EQ(seg[j], ref[segs.toGlobal(i, j)]);
    }
}

TEST(GenomeSegments, SeedingThroughSegmentsFindsGlobalPosition)
{
    Rng rng(732);
    const Seq ref = randomSeq(rng, 60000);
    SegmentConfig cfg;
    cfg.segmentCount = 8;
    cfg.overlap = 128;
    cfg.k = 10;
    GenomeSegments segs(ref, cfg);

    // A read sampled deep inside segment 5.
    const u64 pos = segs.start(5) + 1000;
    const Seq read(ref.begin() + static_cast<i64>(pos),
                   ref.begin() + static_cast<i64>(pos + 101));

    bool found = false;
    const SeedIndex whole(ref, cfg.k);
    for (u64 i = 0; i < segs.count(); ++i) {
        const SeedIndex index = whole.window(segs.start(i), segs.length(i));
        SmemEngine engine(index, {});
        for (const auto &smem : engine.seed(read)) {
            for (u32 local : smem.positions) {
                if (segs.toGlobal(i, local) ==
                    pos + smem.qryBegin) {
                    found = true;
                }
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(GenomeSegments, FootprintFormulas)
{
    Rng rng(733);
    const Seq ref = randomSeq(rng, 40000);
    SegmentConfig cfg;
    cfg.segmentCount = 4;
    cfg.overlap = 100;
    cfg.k = 9;
    GenomeSegments segs(ref, cfg);
    EXPECT_EQ(segs.indexTableBytes(), (u64{1} << 18) * 3);
    const KmerIndex idx(segs.bases(1), cfg.k);
    EXPECT_EQ(segs.positionTableBytes(1), idx.positionTableBytes());
    EXPECT_EQ(segs.refBytes(1), (segs.length(1) + 3) / 4);
}

void
expectSameSmems(const std::vector<Smem> &got,
                const std::vector<Smem> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].qryBegin, want[i].qryBegin) << what;
        EXPECT_EQ(got[i].qryEnd, want[i].qryEnd) << what;
        EXPECT_TRUE(std::ranges::equal(got[i].positions, want[i].positions))
            << what << " smem " << i;
    }
}

void
expectSameStats(const SeedingStats &got, const SeedingStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.reads, want.reads) << what;
    EXPECT_EQ(got.exactMatchReads, want.exactMatchReads) << what;
    EXPECT_EQ(got.indexLookups, want.indexLookups) << what;
    EXPECT_EQ(got.smems, want.smems) << what;
    EXPECT_EQ(got.hitsReported, want.hitsReported) << what;
    EXPECT_EQ(got.cam.loads, want.cam.loads) << what;
    EXPECT_EQ(got.cam.searches, want.cam.searches) << what;
    EXPECT_EQ(got.cam.binarySteps, want.cam.binarySteps) << what;
    EXPECT_EQ(got.cam.overflowFallbacks, want.cam.overflowFallbacks)
        << what;
}

TEST(SegmentWindows, SeedingMatchesPerSegmentIndexes)
{
    // Seeding a segment as a window of the one whole-reference index
    // — by an engine bound to the window, and from a read resolved
    // once in the whole index — must equal seeding against an index
    // built over the segment's own bases: every SMEM interval and
    // position and every SeedingStats field, with a small CAM that
    // reaches the overflow fallback too. The per-segment index lives
    // on only as this oracle.
    RefGenConfig rcfg;
    rcfg.length = 12000;
    rcfg.repeatFraction = 0.30;
    rcfg.seed = 741;
    Seq ref = generateReference(rcfg);
    // A tandem repeat gives k-mers hit lists long enough for the
    // small CAM's overflow fallback; the first reads start in it.
    for (u64 p = 6000; p < 6700; ++p)
        ref[p] = ref[6000 + (p - 6000) % 7];
    Rng rng(742);
    std::vector<Seq> oriented;
    for (u64 i = 0; i < 12; ++i) {
        const u64 pos = i < 2 ? 6050 + 500 * i : rng.below(ref.size() - 101);
        Seq read(ref.begin() + static_cast<i64>(pos),
                 ref.begin() + static_cast<i64>(pos + 101));
        for (u64 e = 0; e < i % 4; ++e)
            read[rng.below(read.size())] = static_cast<Base>(rng.below(4));
        oriented.push_back(reverseComplement(read));
        oriented.push_back(std::move(read));
    }
    SeedingConfig small_cam;
    small_cam.camSize = 2;
    small_cam.probeThreshold = 2;

    u64 exact = 0, overflows = 0;
    for (const u32 k : {10u, 12u}) {
        const SeedIndex whole(ref, k);
        std::vector<ResolvedRead> resolved(oriented.size());
        for (size_t r = 0; r < oriented.size(); ++r)
            SmemEngine(whole, {}).resolve(oriented[r], resolved[r]);
        for (const u64 count : {u64{1}, u64{5}, u64{512}}) {
            for (const u64 overlap : {u64{0}, u64{64}, u64{256}}) {
                const GenomeSegments segs(ref, {count, overlap, k});
                for (const SeedingConfig &cfg : {SeedingConfig{}, small_cam}) {
                    for (u64 i = 0; i < segs.count(); ++i) {
                        const std::string what =
                            "k " + std::to_string(k) + " segments " +
                            std::to_string(count) + " overlap " +
                            std::to_string(overlap) + " cam " +
                            std::to_string(cfg.camSize) + " segment " +
                            std::to_string(i);
                        const SeedIndex own(segs.bases(i), k);
                        const SeedIndex window =
                            whole.window(segs.start(i), segs.length(i));
                        SmemEngine oracle(own, cfg), viewed(window, cfg),
                            fused(whole, cfg);
                        for (size_t r = 0; r < oriented.size(); ++r) {
                            const auto want = oracle.seed(oriented[r]);
                            expectSameSmems(viewed.seed(oriented[r]), want,
                                            what + " (window engine)");
                            expectSameSmems(fused.seed(resolved[r], window),
                                            want, what + " (resolved)");
                        }
                        expectSameStats(viewed.stats(), oracle.stats(),
                                        what + " (window engine)");
                        expectSameStats(fused.stats(), oracle.stats(),
                                        what + " (resolved)");
                        exact += oracle.stats().exactMatchReads;
                        overflows += oracle.stats().cam.overflowFallbacks;
                    }
                }
            }
        }
    }
    // The geometries reach the exact-match shortcut and the CAM
    // overflow fallback.
    EXPECT_GT(exact, 0u);
    EXPECT_GT(overflows, 0u);
}

} // namespace
} // namespace genax

/**
 * @file
 * Tests for the software baseline: anchor generation, bidirectional
 * seed extension and the BWA-MEM-like whole-genome aligner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "swbase/bwamem_like.hh"

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

// ------------------------------------------------------------ anchors

TEST(Anchors, DedupByDiagonalAndCap)
{
    std::vector<Smem> smems;
    Smem a;
    a.qryBegin = 0;
    a.qryEnd = 20;
    a.positions = {100, 200, 300};
    smems.push_back(a);
    Smem b; // same diagonals shifted: 110 - 10 == 100 - 0
    b.qryBegin = 10;
    b.qryEnd = 35;
    b.positions = {110, 400};
    smems.push_back(b);

    AnchorConfig cfg;
    const auto anchors = makeAnchors(smems, 0, false, cfg);
    // 100/200/300 from the first smem; 110 dedups onto diagonal 100;
    // 400 - 10 = 390 is new.
    ASSERT_EQ(anchors.size(), 4u);
    // Longer seeds come first.
    EXPECT_EQ(anchors[0].seedLen(), 25u);

    AnchorConfig capped;
    capped.maxAnchors = 2;
    EXPECT_EQ(makeAnchors(smems, 0, false, capped).size(), 2u);
}

TEST(Anchors, DropsUltraRepetitiveSeeds)
{
    Smem s;
    s.qryBegin = 0;
    s.qryEnd = 15;
    s.positions.resize(1000);
    for (u32 i = 0; i < 1000; ++i)
        s.positions[i] = i * 7;
    AnchorConfig cfg;
    cfg.maxHitsPerSmem = 256;
    EXPECT_TRUE(makeAnchors({s}, 0, false, cfg).empty());
}

TEST(Anchors, SegmentStartShiftsToGlobal)
{
    Smem s;
    s.qryBegin = 5;
    s.qryEnd = 25;
    s.positions = {50};
    const auto anchors = makeAnchors({s}, 10000, true, {});
    ASSERT_EQ(anchors.size(), 1u);
    EXPECT_EQ(anchors[0].refPos, 10050u);
    EXPECT_TRUE(anchors[0].reverse);
}

// ----------------------------------------------------- extendAnchor

class ExtendAnchorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(800);
        ref = randomSeq(rng, 2000);
        sc = Scoring{};
        kernel = [this](const PackedSeq &rw, const Seq &q) {
            return gotohExtendKernel(rw, q, sc, 16);
        };
    }

    Seq ref;
    Scoring sc;
    ExtendFn kernel;
};

TEST_F(ExtendAnchorTest, ExactReadFullSeed)
{
    const Seq read(ref.begin() + 500, ref.begin() + 601);
    Anchor a{0, 101, 500, false};
    const auto m = extendAnchor(ref, read, a, sc, 16, kernel);
    EXPECT_TRUE(m.mapped);
    EXPECT_EQ(m.pos, 500u);
    EXPECT_EQ(m.score, 101);
    EXPECT_EQ(m.cigar.str(), "101=");
}

TEST_F(ExtendAnchorTest, SnpOnEachSideOfSeed)
{
    Seq read(ref.begin() + 500, ref.begin() + 601);
    read[10] = static_cast<Base>((read[10] + 1) & 3);
    read[90] = static_cast<Base>((read[90] + 1) & 3);
    // Seed covers the clean middle.
    Anchor a{30, 60, 530, false};
    const auto m = extendAnchor(ref, read, a, sc, 16, kernel);
    EXPECT_EQ(m.pos, 500u);
    EXPECT_EQ(m.score, 99 - 2 * 4);
    EXPECT_EQ(m.cigar.queryLen(), 101u);
    EXPECT_EQ(m.cigar.editDistance(), 2u);
}

TEST_F(ExtendAnchorTest, DeletionLeftOfSeed)
{
    // Read skips 3 reference bases before the seed region.
    Seq read;
    read.reserve(101);
    std::copy(ref.begin() + 500, ref.begin() + 540,  // 40 bases
              std::back_inserter(read));
    std::copy(ref.begin() + 543, ref.begin() + 604,
              std::back_inserter(read));
    ASSERT_EQ(read.size(), 101u);
    Anchor a{60, 101, 563, false}; // seed inside the right part
    const auto m = extendAnchor(ref, read, a, sc, 16, kernel);
    EXPECT_EQ(m.pos, 500u);
    EXPECT_EQ(m.score, 101 - (6 + 3));
    EXPECT_EQ(m.cigar.editDistance(), 3u);
    EXPECT_EQ(m.cigar.refLen(), 104u);
}

TEST_F(ExtendAnchorTest, ClipsAtReferenceStart)
{
    // Read hangs off the reference start: head must be soft-clipped.
    Rng head_rng(801);
    Seq read = randomSeq(head_rng, 20); // junk head
    read.insert(read.end(), ref.begin(), ref.begin() + 81);
    Anchor a{20, 101, 0, false};
    const auto m = extendAnchor(ref, read, a, sc, 16, kernel);
    EXPECT_EQ(m.pos, 0u);
    ASSERT_FALSE(m.cigar.elems().empty());
    EXPECT_EQ(m.cigar.elems()[0].op, CigarOp::SoftClip);
    EXPECT_EQ(m.cigar.elems()[0].len, 20u);
    EXPECT_EQ(m.score, 81);
}

// ------------------------------------------------------- BwaMemLike

std::vector<Seq>
seqsOf(const std::vector<SimRead> &reads)
{
    std::vector<Seq> out;
    for (const auto &r : reads)
        out.push_back(r.seq);
    return out;
}

class BwaMemLikeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RefGenConfig rcfg;
        rcfg.length = 300000;
        rcfg.seed = 9;
        ref = generateReference(rcfg);
        cfg.k = 11;
        cfg.band = 16;
        aligner = std::make_unique<BwaMemLike>(ref, cfg);
    }

    Seq ref;
    AlignerConfig cfg;
    std::unique_ptr<BwaMemLike> aligner;
};

TEST_F(BwaMemLikeTest, ErrorFreeReadsMapExactly)
{
    ReadSimConfig rs;
    rs.numReads = 100;
    rs.snpRate = 0;
    rs.donorIndelRate = 0;
    rs.baseErrorRate = 0;
    rs.readIndelRate = 0;
    rs.sampleReverse = false;
    const auto reads = simulateReads(ref, rs);
    const auto maps = aligner->alignAll(seqsOf(reads));
    for (size_t i = 0; i < reads.size(); ++i) {
        const Mapping &m = maps[i];
        ASSERT_TRUE(m.mapped) << reads[i].name;
        EXPECT_EQ(m.score, 101);
        EXPECT_FALSE(m.reverse);
        // Repeats can yield a different-but-equal placement; the
        // score and cigar must still be perfect.
        EXPECT_EQ(m.cigar.str(), "101=");
    }
}

TEST_F(BwaMemLikeTest, MutatedReadsMapNearTruth)
{
    ReadSimConfig rs;
    rs.numReads = 200;
    const auto reads = simulateReads(ref, rs);
    const auto maps = aligner->alignAll(seqsOf(reads));
    u64 correct = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        const SimRead &r = reads[i];
        const Mapping &m = maps[i];
        if (!m.mapped)
            continue;
        const i64 delta = static_cast<i64>(m.pos) -
                          static_cast<i64>(r.truthPos);
        if (m.reverse == r.reverse && std::abs(delta) <= 12)
            ++correct;
    }
    EXPECT_GT(static_cast<double>(correct) / reads.size(), 0.95);
}

TEST_F(BwaMemLikeTest, ReverseStrandRecovered)
{
    ReadSimConfig rs;
    rs.numReads = 60;
    rs.snpRate = 0;
    rs.donorIndelRate = 0;
    rs.baseErrorRate = 0;
    rs.readIndelRate = 0;
    const auto reads = simulateReads(ref, rs);
    const auto maps = aligner->alignAll(seqsOf(reads));
    bool saw_reverse = false;
    for (size_t i = 0; i < reads.size(); ++i) {
        const SimRead &r = reads[i];
        const Mapping &m = maps[i];
        ASSERT_TRUE(m.mapped);
        EXPECT_EQ(m.reverse, r.reverse);
        EXPECT_EQ(m.score, 101);
        saw_reverse |= r.reverse;
    }
    EXPECT_TRUE(saw_reverse);
}

TEST_F(BwaMemLikeTest, GarbageReadIsUnmapped)
{
    // A read over a 2-letter alphabet pattern absent from the
    // reference is exceedingly unlikely to seed.
    Seq junk;
    for (int i = 0; i < 101; ++i)
        junk.push_back(i % 2 == 0 ? kBaseA : kBaseC);
    const Mapping m = aligner->alignAll({junk})[0];
    // Either unmapped or a weak partial alignment.
    if (m.mapped) {
        EXPECT_LT(m.score, 60);
    }
}

TEST_F(BwaMemLikeTest, MultithreadedMatchesSingleThreaded)
{
    ReadSimConfig rs;
    rs.numReads = 80;
    const auto reads = seqsOf(simulateReads(ref, rs));

    const auto single = aligner->alignAll(reads);
    AlignerConfig mt_cfg = cfg;
    mt_cfg.threads = 4;
    BwaMemLike mt(ref, mt_cfg);
    const auto multi = mt.alignAll(reads);
    ASSERT_EQ(single.size(), multi.size());
    for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(single[i].mapped, multi[i].mapped);
        EXPECT_EQ(single[i].pos, multi[i].pos);
        EXPECT_EQ(single[i].score, multi[i].score);
        EXPECT_EQ(single[i].cigar.str(), multi[i].cigar.str());
    }
}

TEST_F(BwaMemLikeTest, MapqReflectsUniqueness)
{
    // A read from a unique region has high MAPQ.
    const Seq unique(ref.begin() + 12345, ref.begin() + 12446);
    const Mapping m = aligner->alignAll({unique})[0];
    ASSERT_TRUE(m.mapped);
    EXPECT_GT(m.mapq, 20);

    // An artificial exact repeat gives MAPQ 0.
    Seq dup_ref = ref;
    dup_ref.insert(dup_ref.end(), ref.begin() + 50000,
                   ref.begin() + 50500);
    BwaMemLike dup_aligner(dup_ref, cfg);
    const Seq rep(ref.begin() + 50100, ref.begin() + 50201);
    const Mapping dm = dup_aligner.alignAll({rep})[0];
    ASSERT_TRUE(dm.mapped);
    EXPECT_EQ(dm.mapq, 0);
}

/** Every field of `got` equals `want`'s. */
::testing::AssertionResult
sameMapping(const Mapping &got, const Mapping &want)
{
    if (got.mapped == want.mapped && got.pos == want.pos &&
        got.reverse == want.reverse && got.score == want.score &&
        got.mapq == want.mapq && got.cigar == want.cigar)
        return ::testing::AssertionSuccess();
    const auto str = [](const Mapping &m) {
        std::ostringstream os;
        os << (m.mapped ? "" : "unmapped ") << m.pos
           << (m.reverse ? '-' : '+') << " score " << m.score << " mapq "
           << static_cast<int>(m.mapq) << " " << m.cigar.str();
        return os.str();
    };
    return ::testing::AssertionFailure()
           << "got " << str(got) << ", want " << str(want);
}

// A read's candidate list holds distinct placements in rank order,
// and its head is alignAll's winner (MAPQ aside): of the candidates at
// one placement the best-scoring, earliest one survives, which is the
// one the winner fold picks.
TEST(BwaMemLikeCandidates, DistinctRankedAndLedByTheWinner)
{
    RefGenConfig rcfg;
    rcfg.length = 200'000;
    rcfg.seed = 22;
    rcfg.repeatFraction = 0.30;
    const Seq ref = generateReference(rcfg);
    ReadSimConfig rs;
    rs.numReads = 600;
    rs.seed = 22;
    rs.baseErrorRate = 0.02;
    rs.readIndelRate = 0.001;
    const auto reads = seqsOf(simulateReads(ref, rs));

    AlignerConfig cfg;
    cfg.k = 12;
    cfg.threads = 2;
    const BwaMemLike aligner(ref, cfg);
    const auto maps = aligner.alignAll(reads);
    const auto cands = aligner.alignAllCandidates(reads, 1000);
    u64 multi = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        const auto &c = cands[i];
        ASSERT_EQ(c.empty(), !maps[i].mapped) << "read " << i;
        if (c.empty())
            continue;
        multi += c.size() > 1;
        Mapping head = c[0];
        head.mapq = maps[i].mapq;
        EXPECT_TRUE(sameMapping(head, maps[i])) << "read " << i;
        for (size_t j = 0; j + 1 < c.size(); ++j)
            EXPECT_TRUE(ranksBefore(c[j], c[j + 1]))
                << "read " << i << ", candidate " << j;
        std::set<std::pair<Pos, bool>> places;
        for (const Mapping &m : c)
            EXPECT_TRUE(places.insert({m.pos, m.reverse}).second)
                << "read " << i << " repeats " << m.pos;
        const auto capped = aligner.alignAllCandidates({reads[i]}, 2)[0];
        ASSERT_EQ(capped.size(), std::min<size_t>(2, c.size()));
        EXPECT_EQ(capped[0].pos, c[0].pos);
    }
    EXPECT_GT(multi, 100u); // the repeats give most reads a list
}

// Both batch calls score the pooled extension jobs in shards of whole
// 16-lane groups. Read counts around one lane group, one shard-sized
// batch and a serving batch put partial groups and a shard's scalar
// tail at every width; each read's mapping and candidate list must
// equal its one-read batch's.
TEST(BwaMemLikeShards, BatchesMatchOneReadBatchesAtEveryShardBoundary)
{
    RefGenConfig rcfg;
    rcfg.length = 200'000;
    rcfg.seed = 18;
    rcfg.repeatFraction = 0.30;
    const Seq ref = generateReference(rcfg);
    ReadSimConfig rs;
    rs.numReads = 4097;
    rs.seed = 18;
    rs.baseErrorRate = 0.02;
    rs.readIndelRate = 0.001;
    rs.snpRate = 0.005;
    const auto reads = seqsOf(simulateReads(ref, rs));

    AlignerConfig cfg;
    cfg.k = 12;
    const BwaMemLike serial(ref, cfg);
    std::vector<Mapping> expect;
    std::vector<std::vector<Mapping>> expect_cands;
    for (const Seq &read : reads) {
        expect.push_back(serial.alignAll({read})[0]);
        expect_cands.push_back(serial.alignAllCandidates({read})[0]);
    }

    for (const unsigned width : {1u, 2u, 3u, 0u}) {
        cfg.threads = width;
        const BwaMemLike aligner(ref, cfg);
        for (const size_t n : {1, 15, 16, 17, 255, 256, 257, 4097}) {
            const std::vector<Seq> batch(
                reads.begin(), reads.begin() + static_cast<i64>(n));
            const auto got = aligner.alignAll(batch);
            const auto got_cands = aligner.alignAllCandidates(batch);
            ASSERT_EQ(got.size(), n);
            ASSERT_EQ(got_cands.size(), n);
            for (size_t i = 0; i < n; ++i) {
                const auto where = ::testing::Message()
                                   << "width " << width << ", " << n
                                   << " reads, read " << i;
                ASSERT_TRUE(sameMapping(got[i], expect[i])) << where;
                ASSERT_EQ(got_cands[i].size(), expect_cands[i].size())
                    << where;
                for (size_t c = 0; c < got_cands[i].size(); ++c)
                    ASSERT_TRUE(sameMapping(got_cands[i][c],
                                            expect_cands[i][c]))
                        << where << ", candidate " << c;
            }
        }
    }
}

} // namespace
} // namespace genax

/**
 * @file
 * Tests for paired-end simulation and alignment: FR geometry,
 * insert-size statistics, proper-pair resolution, and repeat rescue
 * through the mate constraint.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "swbase/bwamem_like.hh"
#include "swbase/paired.hh"

namespace genax {
namespace {

// ---------------------------------------------------- pair simulation

TEST(PairSim, FrGeometryOnCleanDonor)
{
    RefGenConfig rcfg;
    rcfg.length = 100000;
    const Seq ref = generateReference(rcfg);
    ReadSimConfig cfg;
    cfg.numReads = 100;
    cfg.snpRate = 0;
    cfg.donorIndelRate = 0;
    cfg.baseErrorRate = 0;
    cfg.readIndelRate = 0;
    const auto pairs = simulatePairs(ref, cfg);
    ASSERT_EQ(pairs.size(), 100u);
    for (const auto &p : pairs) {
        ASSERT_EQ(p.r1.seq.size(), cfg.readLen);
        ASSERT_EQ(p.r2.seq.size(), cfg.readLen);
        EXPECT_FALSE(p.r1.reverse);
        EXPECT_TRUE(p.r2.reverse);
        // R1 matches the reference at its truth position.
        const Seq w1(ref.begin() + static_cast<i64>(p.r1.truthPos),
                     ref.begin() + static_cast<i64>(p.r1.truthPos) +
                         static_cast<i64>(cfg.readLen));
        EXPECT_EQ(p.r1.seq, w1);
        // R2 is the reverse complement of the fragment's 3' end.
        const Seq w2(ref.begin() + static_cast<i64>(p.r2.truthPos),
                     ref.begin() + static_cast<i64>(p.r2.truthPos) +
                         static_cast<i64>(cfg.readLen));
        EXPECT_EQ(reverseComplement(p.r2.seq), w2);
        // Geometry: R2 starts fragmentLen - readLen after R1.
        EXPECT_EQ(p.r2.truthPos - p.r1.truthPos,
                  p.fragmentLen - cfg.readLen);
    }
}

TEST(PairSim, InsertSizeDistribution)
{
    RefGenConfig rcfg;
    rcfg.length = 200000;
    const Seq ref = generateReference(rcfg);
    ReadSimConfig cfg;
    cfg.numReads = 2000;
    PairSimConfig pcfg;
    pcfg.insertMean = 350;
    pcfg.insertSd = 25;
    const auto pairs = simulatePairs(ref, cfg, pcfg);
    double sum = 0, sq = 0;
    for (const auto &p : pairs) {
        sum += static_cast<double>(p.fragmentLen);
        sq += static_cast<double>(p.fragmentLen) *
              static_cast<double>(p.fragmentLen);
    }
    const double mean = sum / pairs.size();
    const double sd = std::sqrt(sq / pairs.size() - mean * mean);
    EXPECT_NEAR(mean, 350, 3);
    EXPECT_NEAR(sd, 25, 3);
}

// ------------------- pairing over the software engine's candidates

class PairedAlignerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RefGenConfig rcfg;
        rcfg.length = 200000;
        rcfg.seed = 13;
        ref = generateReference(rcfg);
        AlignerConfig cfg;
        cfg.k = 11;
        cfg.band = 16;
        aligner = std::make_unique<BwaMemLike>(ref, cfg);
    }

    Seq ref;
    std::unique_ptr<BwaMemLike> aligner;
};

/** The pairing stage over the software engine's candidate lists. */
PairMapping
alignPair(const BwaMemLike &aligner, const Seq &r1, const Seq &r2)
{
    const auto cands = aligner.alignAllCandidates({r1, r2});
    return resolvePair(cands[0], cands[1], {});
}

TEST_F(PairedAlignerTest, CleanPairsResolveProper)
{
    ReadSimConfig cfg;
    cfg.numReads = 80;
    cfg.seed = 14;
    const auto pairs = simulatePairs(ref, cfg);
    u64 proper = 0, correct = 0;
    for (const auto &p : pairs) {
        const auto m = alignPair(*aligner, p.r1.seq, p.r2.seq);
        ASSERT_TRUE(m.r1.mapped);
        ASSERT_TRUE(m.r2.mapped);
        proper += m.proper;
        const i64 d1 = static_cast<i64>(m.r1.pos) -
                       static_cast<i64>(p.r1.truthPos);
        const i64 d2 = static_cast<i64>(m.r2.pos) -
                       static_cast<i64>(p.r2.truthPos);
        if (std::llabs(d1) <= 12 && std::llabs(d2) <= 12)
            ++correct;
        if (m.proper) {
            EXPECT_GT(m.templateLen, 0);
            EXPECT_NEAR(static_cast<double>(m.templateLen), 300, 150);
        }
    }
    EXPECT_GT(static_cast<double>(proper) / pairs.size(), 0.9);
    EXPECT_GT(static_cast<double>(correct) / pairs.size(), 0.9);
}

TEST_F(PairedAlignerTest, DistantMatesAreImproper)
{
    // Mates drawn from loci 50 kbp apart can both map but never as a
    // proper pair.
    const Seq r1(ref.begin() + 10000, ref.begin() + 10101);
    const Seq r2 =
        reverseComplement(Seq(ref.begin() + 60000, ref.begin() + 60101));
    const auto m = alignPair(*aligner, r1, r2);
    ASSERT_TRUE(m.r1.mapped);
    ASSERT_TRUE(m.r2.mapped);
    EXPECT_FALSE(m.proper);
    EXPECT_EQ(m.r1.pos, 10000u);
    EXPECT_EQ(m.r2.pos, 60000u);
}

TEST_F(PairedAlignerTest, MateRescuesRepetitiveRead)
{
    // Duplicate a 150 bp block far away: a read inside the block is
    // ambiguous alone, but its mate in the unique flank pins the
    // correct copy.
    Seq dup_ref = ref;
    const u64 src = 120000, dst = dup_ref.size();
    dup_ref.insert(dup_ref.end(), ref.begin() + src,
                   ref.begin() + src + 150);
    AlignerConfig cfg;
    cfg.k = 11;
    cfg.band = 16;
    BwaMemLike dup_aligner(dup_ref, cfg);

    // R1 entirely inside the duplicated block (maps to src or dst
    // equally well); R2 in the unique region ~300 bp before it.
    const Seq r1(dup_ref.begin() + static_cast<i64>(src) + 20,
                 dup_ref.begin() + static_cast<i64>(src) + 121);
    const u64 frag_start = src + 141 - 300; // fragment length 300
    const Seq fwd_mate(dup_ref.begin() + static_cast<i64>(frag_start),
                       dup_ref.begin() +
                           static_cast<i64>(frag_start + 101));

    // Alone, R1 is ambiguous: two equal-scoring placements.
    const auto solo = dup_aligner.alignAllCandidates({r1}, 8)[0];
    ASSERT_GE(solo.size(), 2u);
    EXPECT_EQ(solo[0].score, solo[1].score);
    EXPECT_EQ(dup_aligner.alignAll({r1})[0].mapq, 0);

    // Paired with the forward mate, the src copy must win.
    // Library geometry: fwd_mate is R1-forward, r1 acts as the
    // reverse mate of the fragment.
    const auto m =
        alignPair(dup_aligner, fwd_mate, reverseComplement(r1));
    ASSERT_TRUE(m.r1.mapped);
    ASSERT_TRUE(m.r2.mapped);
    EXPECT_TRUE(m.proper);
    EXPECT_EQ(m.r2.pos, src + 20);
    EXPECT_GT(m.r2.mapq, 0); // rescued: no longer ambiguous
    EXPECT_NE(m.r2.pos, dst + 20);
}

TEST_F(PairedAlignerTest, OneGarbageMateFallsBackToSingleEnd)
{
    const Seq good(ref.begin() + 5000, ref.begin() + 5101);
    Seq junk;
    for (int i = 0; i < 101; ++i)
        junk.push_back(i % 2 ? kBaseC : kBaseA);
    const auto m = alignPair(*aligner, good, junk);
    EXPECT_TRUE(m.r1.mapped);
    EXPECT_FALSE(m.proper);
}

} // namespace
} // namespace genax

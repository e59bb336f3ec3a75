/**
 * @file
 * Edge cases, failure injection and death tests across modules:
 * logging contracts, degenerate sequences, boundary-sized inputs, and
 * invariant violations that must abort.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "align/cigar.hh"
#include "align/edit_distance.hh"
#include "align/gotoh.hh"
#include "align/myers.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "genax/dram_model.hh"
#include "seed/smem_engine.hh"
#include "silla/silla_edit.hh"
#include "silla/silla_score.hh"
#include "silla/silla_traceback.hh"
#include "sillax/tile.hh"

namespace genax {
namespace {

// ------------------------------------------------------------ logging

TEST(LoggingDeath, PanicAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(GENAX_PANIC("invariant ", 42, " broken"),
                 "panic: invariant 42 broken");
}

TEST(LoggingDeath, FatalExits)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(GENAX_FATAL("bad config: ", "k"),
                ::testing::ExitedWithCode(1), "fatal: bad config: k");
}

TEST(LoggingDeath, AssertFiresOnlyWhenFalse)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    GENAX_ASSERT(1 + 1 == 2, "fine");
    EXPECT_DEATH(GENAX_ASSERT(1 + 1 == 3, "math"), "assertion failed");
}

// -------------------------------------------------------------- cigar

TEST(CigarDeath, ParseRejectsUnknownOp)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(Cigar::parse("10Z"), "bad cigar op");
    EXPECT_DEATH(Cigar::parse("10"), "cigar missing op");
}

TEST(CigarDeath, RescoreDetectsLyingMatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Cigar c = Cigar::parse("4=");
    EXPECT_DEATH(c.rescore(encode("AAAA"), encode("AAAT"), Scoring{}),
                 "cigar '=' on mismatching pair");
}

TEST(CigarDeath, RescoreDetectsOverrun)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Cigar c = Cigar::parse("9=");
    EXPECT_DEATH(c.rescore(encode("AAAA"), encode("AAAA"), Scoring{}),
                 "overruns");
}

// ----------------------------------------------------- degenerate DP

TEST(GotohEdge, SingleCharacterPairs)
{
    const Scoring sc;
    auto r = gotohAlign(encode("A"), encode("A"), sc, AlignMode::Global);
    EXPECT_EQ(r.score, 1);
    r = gotohAlign(encode("A"), encode("C"), sc, AlignMode::Global);
    EXPECT_EQ(r.score, -4);
    r = gotohAlign(encode("A"), encode("C"), sc, AlignMode::Extend);
    EXPECT_EQ(r.score, 0); // clip everything
    r = gotohAlign(encode("A"), encode("C"), sc, AlignMode::Local);
    EXPECT_EQ(r.score, 0);
}

TEST(GotohEdge, EmptyReferenceExtendClipsQuery)
{
    const Scoring sc;
    const auto r =
        gotohAlign(encode(""), encode("ACGT"), sc, AlignMode::Extend);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 0);
    EXPECT_EQ(r.cigar.str(), "4S");
}

TEST(GotohEdge, BandZeroIsDiagonalOnly)
{
    const Scoring sc;
    // Band 0 forbids indels entirely.
    const auto r = gotohBanded(encode("ACGTAC"), encode("ACTTAC"), sc,
                               AlignMode::Global, 0);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 5 - 4);
    EXPECT_FALSE(gotohBanded(encode("ACGT"), encode("ACG"), sc,
                             AlignMode::Global, 0)
                     .valid);
}

TEST(MyersEdge, BlockBoundaryLengths)
{
    Rng rng(901);
    for (size_t len : {64u, 65u, 127u, 128u, 129u, 192u}) {
        Seq a, b;
        for (size_t i = 0; i < len; ++i)
            a.push_back(static_cast<Base>(rng.below(4)));
        b = a;
        b[len / 2] = static_cast<Base>((b[len / 2] + 1) & 3);
        EXPECT_EQ(myersEditDistance(a, b), 1u) << len;
        EXPECT_EQ(myersEditDistance(a, a), 0u) << len;
    }
}

TEST(EditDistanceEdge, BandZero)
{
    EXPECT_EQ(editDistanceBanded(encode("ACGT"), encode("ACGT"), 0), 0u);
    EXPECT_EQ(editDistanceBanded(encode("ACGT"), encode("ACTT"), 0), 1u);
    EXPECT_FALSE(
        editDistanceBanded(encode("ACGT"), encode("ACG"), 0).has_value());
}

// ----------------------------------------------------- Silla machines

TEST(SillaEdge, EmptyQueryScoresZero)
{
    const Scoring sc;
    SillaScore score(4, sc);
    EXPECT_EQ(score.run(encode("ACGT"), encode("")).best, 0);
    SillaTraceback tb(4, sc);
    const auto a = tb.align(encode("ACGT"), encode(""));
    EXPECT_EQ(a.score, 0);
    EXPECT_TRUE(a.cigar.empty());
}

TEST(SillaEdge, EmptyReferenceFullyClips)
{
    const Scoring sc;
    SillaTraceback tb(4, sc);
    const auto a = tb.align(encode(""), encode("ACGT"));
    EXPECT_EQ(a.score, 0);
    EXPECT_EQ(a.cigar.str(), "4S");
}

TEST(SillaEdge, BothEmpty)
{
    SillaEdit edit(2);
    EXPECT_EQ(edit.distance(encode(""), encode("")), 0u);
    const Scoring sc;
    SillaTraceback tb(2, sc);
    const auto a = tb.align(encode(""), encode(""));
    EXPECT_EQ(a.score, 0);
}

TEST(SillaEdge, QueryMuchLongerThanReference)
{
    // Reference window shorter than the read: the tail must clip.
    const Scoring sc;
    SillaTraceback tb(8, sc);
    Rng rng(902);
    Seq ref;
    for (int i = 0; i < 30; ++i)
        ref.push_back(static_cast<Base>(rng.below(4)));
    Seq qry = ref;
    for (int i = 0; i < 40; ++i)
        qry.push_back(static_cast<Base>(rng.below(4)));
    const auto a = tb.align(ref, qry);
    EXPECT_GE(a.score, 30);
    EXPECT_EQ(a.cigar.queryLen(), qry.size());
    EXPECT_LE(a.refEnd, ref.size());
}

// -------------------------------------------------------------- seed

TEST(SeedEdge, ReadExactlyKLong)
{
    Rng rng(903);
    Seq ref;
    for (int i = 0; i < 4000; ++i)
        ref.push_back(static_cast<Base>(rng.below(4)));
    SeedIndex index(ref, 8);
    SmemEngine engine(index, {});
    const Seq read(ref.begin() + 100, ref.begin() + 108);
    const auto seeds = engine.seed(read);
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(seeds[0].qryBegin, 0u);
    EXPECT_EQ(seeds[0].qryEnd, 8u);
}

TEST(SeedEdge, CamCapacityOne)
{
    // The engine must stay functionally correct with a degenerate
    // CAM (every oversized list falls back or multi-passes).
    Rng rng(904);
    Seq ref;
    for (int i = 0; i < 4000; ++i)
        ref.push_back(static_cast<Base>(rng.below(4)));
    SeedIndex index(ref, 8);
    SeedingConfig tiny;
    tiny.camSize = 1;
    SeedingConfig normal;
    SmemEngine a(index, tiny), b(index, normal);
    const Seq read(ref.begin() + 500, ref.begin() + 601);
    const auto sa = a.seed(read);
    const auto sb = b.seed(read);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i)
        EXPECT_EQ(sa[i].positions, sb[i].positions);
}

// ------------------------------------------------------------- system

TEST(DramEdge, ZeroLatencyConfig)
{
    DramConfig cfg;
    cfg.transferLatencyUs = 0;
    cfg.streamEfficiency = 1.0;
    DramModel dram(cfg);
    EXPECT_DOUBLE_EQ(dram.streamSeconds(8 * 19'200'000'000ULL), 1.0);
}

TEST(TileEdge, SingleTileArray)
{
    TileArray arr(16, 1, 1);
    EXPECT_EQ(arr.maxP(), 1u);
    EXPECT_EQ(arr.composedBound(1), 16u);
    EXPECT_TRUE(arr.configure({1}));
    EXPECT_FALSE(arr.configure({2}));
    EXPECT_EQ(arr.engines().size(), 1u);
}

TEST(RngEdge, BelowOneAlwaysZero)
{
    Rng rng(905);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

} // namespace
} // namespace genax

/**
 * @file
 * Unit and property tests for the alignment substrate: CIGAR, edit
 * distance oracles, Gotoh full/banded, Myers bit-vector, classic
 * Levenshtein automaton.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "align/cigar.hh"
#include "align/edit_distance.hh"
#include "align/gotoh.hh"
#include "align/lev_automaton.hh"
#include "align/myers.hh"
#include "align/ula.hh"
#include "align/wfa.hh"
#include "common/rng.hh"

namespace genax {
namespace {

Seq
randomSeq(Rng &rng, size_t len, unsigned alphabet = 4)
{
    Seq s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(alphabet)));
    return s;
}

/** Apply approximately num_edits random edits to a copy of s. */
Seq
mutateSeq(Rng &rng, const Seq &s, unsigned num_edits)
{
    Seq out = s;
    for (unsigned e = 0; e < num_edits && !out.empty(); ++e) {
        const u64 pos = rng.below(out.size());
        switch (rng.below(3)) {
          case 0: // substitution
            out[pos] = static_cast<Base>((out[pos] + 1 + rng.below(3)) & 3);
            break;
          case 1: // insertion
            out.insert(out.begin() + static_cast<i64>(pos),
                       static_cast<Base>(rng.below(4)));
            break;
          default: // deletion
            out.erase(out.begin() + static_cast<i64>(pos));
            break;
        }
    }
    return out;
}

// ---------------------------------------------------------------- Cigar

TEST(Cigar, PushMergesRuns)
{
    Cigar c;
    c.push(CigarOp::Match, 3);
    c.push(CigarOp::Match, 2);
    c.push(CigarOp::Ins);
    ASSERT_EQ(c.elems().size(), 2u);
    EXPECT_EQ(c.elems()[0], (CigarElem{CigarOp::Match, 5}));
    EXPECT_EQ(c.str(), "5=1I");
}

TEST(Cigar, PushZeroIsNoop)
{
    Cigar c;
    c.push(CigarOp::Del, 0);
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.str(), "*");
}

TEST(Cigar, ParseRoundTrip)
{
    const std::string s = "10=2X3I4D5S";
    EXPECT_EQ(Cigar::parse(s).str(), s);
    EXPECT_TRUE(Cigar::parse("*").empty());
}

TEST(Cigar, Lengths)
{
    const Cigar c = Cigar::parse("10=2X3I4D5S");
    EXPECT_EQ(c.queryLen(), 10u + 2 + 3 + 5);
    EXPECT_EQ(c.refLen(), 10u + 2 + 4);
    EXPECT_EQ(c.alignedQueryLen(), 15u);
    EXPECT_EQ(c.editDistance(), 2u + 3 + 4);
}

TEST(Cigar, SamMStyle)
{
    EXPECT_EQ(Cigar::parse("5=1X4=2I3=").strSamM(), "10M2I3M");
    EXPECT_EQ(Cigar::parse("2S3=").strSamM(), "2S3M");
}

TEST(Cigar, AppendAndReverse)
{
    Cigar a = Cigar::parse("3=1I");
    const Cigar b = Cigar::parse("2I4=");
    a.append(b);
    EXPECT_EQ(a.str(), "3=3I4=");
    a.reverse();
    EXPECT_EQ(a.str(), "4=3I3=");
}

TEST(Cigar, RescoreAffine)
{
    const Scoring sc; // 1 / -4 / -6 / -1
    const Seq ref = encode("ACGTACGT");
    const Seq qry = encode("ACGTTACGT"); // one inserted T
    const Cigar c = Cigar::parse("4=1I4=");
    EXPECT_EQ(c.rescore(ref, qry, sc), 8 * 1 - 7);
}

// ----------------------------------------------------- Edit distance DP

TEST(EditDistance, HandCases)
{
    EXPECT_EQ(editDistance(encode(""), encode("")), 0u);
    EXPECT_EQ(editDistance(encode("ACGT"), encode("ACGT")), 0u);
    EXPECT_EQ(editDistance(encode("ACGT"), encode("")), 4u);
    EXPECT_EQ(editDistance(encode(""), encode("AC")), 2u);
    EXPECT_EQ(editDistance(encode("ACGT"), encode("AGGT")), 1u);
    EXPECT_EQ(editDistance(encode("ACGT"), encode("AACGT")), 1u);
    EXPECT_EQ(editDistance(encode("ACGT"), encode("CGT")), 1u);
    // The paper's Figure 3 example: AxBCD vs yABCD -> 2 edits.
    EXPECT_EQ(editDistance(encode("ATGCG"), encode("TAGCG")), 2u);
}

TEST(EditDistance, SymmetricProperty)
{
    Rng rng(21);
    for (int t = 0; t < 50; ++t) {
        const Seq a = randomSeq(rng, rng.below(40));
        const Seq b = randomSeq(rng, rng.below(40));
        EXPECT_EQ(editDistance(a, b), editDistance(b, a));
    }
}

TEST(EditDistance, MutationUpperBound)
{
    Rng rng(22);
    for (int t = 0; t < 50; ++t) {
        const Seq a = randomSeq(rng, 50 + rng.below(50));
        const unsigned edits = static_cast<unsigned>(rng.below(8));
        const Seq b = mutateSeq(rng, a, edits);
        EXPECT_LE(editDistance(a, b), edits);
    }
}

TEST(EditDistanceBanded, MatchesFullWhenBandCovers)
{
    Rng rng(23);
    for (int t = 0; t < 60; ++t) {
        const Seq a = randomSeq(rng, rng.below(30));
        const Seq b = randomSeq(rng, rng.below(30));
        const u64 d = editDistance(a, b);
        const auto banded =
            editDistanceBanded(a, b, std::max(a.size(), b.size()));
        ASSERT_TRUE(banded.has_value());
        EXPECT_EQ(*banded, d);
    }
}

TEST(EditDistanceBanded, RejectsLengthSkewBeyondBand)
{
    EXPECT_FALSE(
        editDistanceBanded(encode("AAAAAAAA"), encode("AA"), 2).has_value());
}

TEST(EditDistanceBounded, ExactIffWithinBound)
{
    Rng rng(24);
    for (int t = 0; t < 80; ++t) {
        const Seq a = randomSeq(rng, 20 + rng.below(40));
        const Seq b = mutateSeq(rng, a, static_cast<unsigned>(rng.below(10)));
        const u64 d = editDistance(a, b);
        for (u64 k : {u64{0}, u64{2}, u64{5}, u64{9}, u64{15}}) {
            const auto r = editDistanceBounded(a, b, k);
            if (d <= k) {
                ASSERT_TRUE(r.has_value()) << "d=" << d << " k=" << k;
                EXPECT_EQ(*r, d);
            } else {
                EXPECT_FALSE(r.has_value()) << "d=" << d << " k=" << k;
            }
        }
    }
}

// ------------------------------------------------------------- Gotoh

TEST(Gotoh, GlobalIdentical)
{
    const Scoring sc;
    const Seq s = encode("ACGTACGTAC");
    const auto r = gotohAlign(s, s, sc, AlignMode::Global);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 10);
    EXPECT_EQ(r.cigar.str(), "10=");
}

TEST(Gotoh, GlobalSingleSub)
{
    const Scoring sc;
    const auto r = gotohAlign(encode("ACGTACGT"), encode("ACGAACGT"), sc,
                              AlignMode::Global);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 7 - 4);
    EXPECT_EQ(r.cigar.str(), "3=1X4=");
}

TEST(Gotoh, GlobalAffineGapPreferredOverScatter)
{
    const Scoring sc;
    // 3-base deletion: one gap open (6) + 3 extends = -9, vs 3
    // scattered mismatches would need alignment shifts anyway.
    const auto r = gotohAlign(encode("ACGTTTACGT"), encode("ACGACGT"), sc,
                              AlignMode::Global);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 7 * 1 - (6 + 3));
    EXPECT_EQ(r.cigar.refLen(), 10u);
    EXPECT_EQ(r.cigar.queryLen(), 7u);
    EXPECT_EQ(r.cigar.editDistance(), 3u);
}

TEST(Gotoh, GlobalEmptyQuery)
{
    const Scoring sc;
    const auto r =
        gotohAlign(encode("ACG"), encode(""), sc, AlignMode::Global);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, sc.gapCost(3));
    EXPECT_EQ(r.cigar.str(), "3D");
}

TEST(Gotoh, GlobalBothEmpty)
{
    const Scoring sc;
    const auto r = gotohAlign(encode(""), encode(""), sc, AlignMode::Global);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 0);
    EXPECT_TRUE(r.cigar.empty());
}

TEST(Gotoh, UnitScoringGlobalEqualsNegEditDistance)
{
    const Scoring unit = Scoring::unitEdit();
    Rng rng(31);
    for (int t = 0; t < 60; ++t) {
        const Seq a = randomSeq(rng, rng.below(40));
        const Seq b = randomSeq(rng, rng.below(40));
        const auto r = gotohAlign(a, b, unit, AlignMode::Global);
        ASSERT_TRUE(r.valid);
        EXPECT_EQ(-r.score, static_cast<i32>(editDistance(a, b)));
    }
}

TEST(Gotoh, CigarConsistencyProperty)
{
    const Scoring sc;
    Rng rng(32);
    for (int t = 0; t < 60; ++t) {
        const Seq ref = randomSeq(rng, 20 + rng.below(60));
        const Seq qry = mutateSeq(rng, ref,
                                  static_cast<unsigned>(rng.below(6)));
        for (AlignMode mode :
             {AlignMode::Global, AlignMode::Local, AlignMode::Extend}) {
            const auto r = gotohAlign(ref, qry, sc, mode);
            ASSERT_TRUE(r.valid);
            EXPECT_EQ(r.cigar.queryLen(), qry.size());
            EXPECT_EQ(r.cigar.refLen(), r.refEnd - r.refBegin);
            // Re-scoring the aligned part reproduces the DP score.
            const Seq ref_window(ref.begin() + static_cast<i64>(r.refBegin),
                                 ref.begin() + static_cast<i64>(r.refEnd));
            Cigar aligned;
            for (const auto &e : r.cigar.elems())
                if (e.op != CigarOp::SoftClip)
                    aligned.push(e.op, e.len);
            const Seq qry_aligned(qry.begin() + static_cast<i64>(r.qryBegin),
                                  qry.begin() + static_cast<i64>(r.qryEnd));
            EXPECT_EQ(aligned.rescore(ref_window, qry_aligned, sc), r.score)
                << "mode=" << static_cast<int>(mode)
                << " cigar=" << r.cigar.str();
        }
    }
}

TEST(Gotoh, ExtendClipsToAnchorWhenNothingMatches)
{
    const Scoring sc;
    // Completely different strings: best extension is empty, fully
    // soft-clipped, score 0.
    const auto r = gotohAlign(encode("AAAAAAAA"), encode("GGGGGGGG"), sc,
                              AlignMode::Extend);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 0);
    EXPECT_EQ(r.qryEnd, 0u);
    EXPECT_EQ(r.cigar.str(), "8S");
}

TEST(Gotoh, ExtendClipsNoisyTail)
{
    const Scoring sc;
    // First 10 match, tail completely diverges: clipping should stop
    // the alignment after the matching prefix.
    const Seq ref = encode("ACGTACGTACTTTTTTTT");
    const Seq qry = encode("ACGTACGTACGGGGGGGG");
    const auto r = gotohAlign(ref, qry, sc, AlignMode::Extend);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 10); // the ACGTACGTAC prefix
    EXPECT_EQ(r.qryBegin, 0u);
    EXPECT_EQ(r.qryEnd, 10u);
}

TEST(Gotoh, LocalFindsEmbeddedMatch)
{
    const Scoring sc;
    const Seq ref = encode("TTTTTACGTACGTTTTTT");
    const Seq qry = encode("GGACGTACGTGG");
    const auto r = gotohAlign(ref, qry, sc, AlignMode::Local);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.score, 8); // the embedded ACGTACGT
    EXPECT_EQ(r.qryBegin, 2u);
}

TEST(GotohBanded, MatchesFullWhenBandCovers)
{
    const Scoring sc;
    Rng rng(33);
    for (int t = 0; t < 50; ++t) {
        const Seq ref = randomSeq(rng, 10 + rng.below(50));
        const Seq qry = mutateSeq(rng, ref,
                                  static_cast<unsigned>(rng.below(6)));
        const u32 band =
            static_cast<u32>(std::max(ref.size(), qry.size()));
        for (AlignMode mode :
             {AlignMode::Global, AlignMode::Local, AlignMode::Extend}) {
            const auto full = gotohAlign(ref, qry, sc, mode);
            const auto banded = gotohBanded(ref, qry, sc, mode, band);
            ASSERT_TRUE(full.valid);
            ASSERT_TRUE(banded.valid);
            EXPECT_EQ(banded.score, full.score)
                << "mode=" << static_cast<int>(mode);
        }
    }
}

TEST(GotohBanded, ExtendMatchesFullForSmallEditReads)
{
    // With few edits, a generous band preserves the optimum: this is
    // the K-band assumption SillaX relies on (Section IV).
    const Scoring sc;
    Rng rng(34);
    for (int t = 0; t < 50; ++t) {
        const Seq ref = randomSeq(rng, 101);
        const unsigned edits = static_cast<unsigned>(rng.below(5));
        const Seq qry = mutateSeq(rng, ref, edits);
        const auto full = gotohAlign(ref, qry, sc, AlignMode::Extend);
        const auto banded = gotohBanded(ref, qry, sc, AlignMode::Extend, 20);
        ASSERT_TRUE(banded.valid);
        EXPECT_EQ(banded.score, full.score);
    }
}

TEST(GotohBanded, GlobalInvalidWhenBandTooSmall)
{
    const Scoring sc;
    const auto r = gotohBanded(encode("AAAAAAAAAA"), encode("AA"), sc,
                               AlignMode::Global, 3);
    EXPECT_FALSE(r.valid);
}

// ------------------------------------------------------------- Myers

TEST(Myers, HandCases)
{
    EXPECT_EQ(myersEditDistance(encode(""), encode("ACG")), 3u);
    EXPECT_EQ(myersEditDistance(encode("ACG"), encode("")), 3u);
    EXPECT_EQ(myersEditDistance(encode("ACGT"), encode("ACGT")), 0u);
    EXPECT_EQ(myersEditDistance(encode("ACGT"), encode("AGT")), 1u);
}

class MyersRandomTest : public ::testing::TestWithParam<
                            std::tuple<size_t, size_t>>
{};

TEST_P(MyersRandomTest, MatchesDp)
{
    const auto [pat_len, txt_len] = GetParam();
    Rng rng(1000 + pat_len * 131 + txt_len);
    for (int t = 0; t < 20; ++t) {
        const Seq p = randomSeq(rng, pat_len);
        const Seq x = t % 2 == 0
                          ? randomSeq(rng, txt_len)
                          : mutateSeq(rng, p, static_cast<unsigned>(
                                                  rng.below(6)));
        EXPECT_EQ(myersEditDistance(p, x), editDistance(p, x))
            << "pat=" << decode(p) << " txt=" << decode(x);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, MyersRandomTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(5, 9),
                      std::make_tuple(63, 64), std::make_tuple(64, 64),
                      std::make_tuple(65, 70), std::make_tuple(101, 101),
                      std::make_tuple(128, 130), std::make_tuple(200, 150),
                      std::make_tuple(300, 300)));

// ----------------------------------------------- Levenshtein automaton

TEST(LevAutomaton, StateCountIsKTimesN)
{
    const LevenshteinAutomaton la(encode("ACGTACGT"), 3);
    EXPECT_EQ(la.stateCount(), 9u * 4u);
}

TEST(LevAutomaton, AcceptsExactPattern)
{
    LevenshteinAutomaton la(encode("ACGTAC"), 2);
    const auto d = la.distanceTo(encode("ACGTAC"));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, 0u);
}

TEST(LevAutomaton, RejectsBeyondK)
{
    LevenshteinAutomaton la(encode("AAAAAA"), 2);
    EXPECT_FALSE(la.distanceTo(encode("TTTTTT")).has_value());
}

class LevAutomatonRandomTest
    : public ::testing::TestWithParam<std::tuple<size_t, u32>>
{};

TEST_P(LevAutomatonRandomTest, MatchesBoundedDp)
{
    const auto [len, k] = GetParam();
    Rng rng(2000 + len * 17 + k);
    for (int t = 0; t < 25; ++t) {
        const Seq pat = randomSeq(rng, len);
        const Seq txt = mutateSeq(rng, pat,
                                  static_cast<unsigned>(rng.below(k + 3)));
        LevenshteinAutomaton la(pat, k);
        const auto got = la.distanceTo(txt);
        const u64 d = editDistance(pat, txt);
        if (d <= k) {
            ASSERT_TRUE(got.has_value())
                << "pat=" << decode(pat) << " txt=" << decode(txt)
                << " d=" << d;
            EXPECT_EQ(*got, d);
        } else {
            EXPECT_FALSE(got.has_value());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LevAutomatonRandomTest,
    ::testing::Combine(::testing::Values<size_t>(4, 16, 63, 64, 65, 100),
                       ::testing::Values<u32>(0, 1, 2, 4, 8)));

// -------------------------------------------------- gap-affine WFA

TEST(Wfa, UnitPenaltiesEqualEditDistance)
{
    // mismatch 1, open 0, extend 1 degenerates WFA to Levenshtein.
    const WfaPenalties unit{1, 0, 1};
    Rng rng(4300);
    for (int t = 0; t < 40; ++t) {
        const Seq a = randomSeq(rng, 1 + rng.below(60));
        const Seq b = t % 2 == 0
                          ? randomSeq(rng, 1 + rng.below(60))
                          : mutateSeq(rng, a, static_cast<unsigned>(
                                                  rng.below(6)));
        const auto p = wfaGlobalPenalty(a, b, unit, a.size() + b.size());
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(*p, editDistance(a, b));
    }
}

TEST(Wfa, BoundedPenaltyReturnsNulloptBeyondCap)
{
    const WfaPenalties p{4, 6, 2};
    const auto r =
        wfaGlobalPenalty(encode("AAAA"), encode("TTTT"), p, 3);
    EXPECT_FALSE(r.has_value());
}

TEST(Wfa, GlobalScoreMatchesGotoh)
{
    Rng rng(4400);
    for (int t = 0; t < 60; ++t) {
        Scoring sc;
        sc.match = 1 + static_cast<i32>(rng.below(2));
        sc.mismatch = 1 + static_cast<i32>(rng.below(5));
        sc.gapOpen = static_cast<i32>(rng.below(7));
        sc.gapExtend = 1 + static_cast<i32>(rng.below(3));
        const Seq a = randomSeq(rng, 1 + rng.below(80));
        const Seq b = t % 2 == 0
                          ? mutateSeq(rng, a, static_cast<unsigned>(
                                                  rng.below(8)))
                          : randomSeq(rng, 1 + rng.below(80));
        if (b.empty())
            continue;
        const auto gotoh = gotohAlign(a, b, sc, AlignMode::Global);
        EXPECT_EQ(wfaGlobalScore(a, b, sc), gotoh.score)
            << "a=" << decode(a) << " b=" << decode(b)
            << " scheme=" << sc.match << "/" << sc.mismatch << "/"
            << sc.gapOpen << "/" << sc.gapExtend;
    }
}

TEST(Wfa, PenaltyScalesWithDivergenceNotLength)
{
    // The WFA promise (shared with Silla): cost tracks divergence.
    Rng rng(4500);
    const Seq a = randomSeq(rng, 2000);
    const Seq b = mutateSeq(rng, a, 4);
    const WfaPenalties p{4, 6, 2};
    const auto r = wfaGlobalPenalty(a, b, p, 400);
    ASSERT_TRUE(r.has_value());
    EXPECT_LE(*r, 4u * (6 + 2 + 4));
}

// ------------------------------------- universal Levenshtein automaton

TEST(Ula, HandCases)
{
    UniversalLevAutomaton ula(2);
    EXPECT_EQ(ula.distance(encode("ACGT"), encode("ACGT")), 0u);
    EXPECT_EQ(ula.distance(encode("ACGT"), encode("AGGT")), 1u);
    EXPECT_EQ(ula.distance(encode("ACGT"), encode("ACT")), 1u);
    EXPECT_EQ(ula.distance(encode("ACT"), encode("ACGT")), 1u);
    EXPECT_EQ(ula.distance(encode("ATGCG"), encode("TAGCG")), 2u);
    EXPECT_FALSE(
        ula.distance(encode("AAAA"), encode("TTTT")).has_value());
}

TEST(Ula, EmptyAndDegenerate)
{
    UniversalLevAutomaton ula(2);
    EXPECT_EQ(ula.distance(encode(""), encode("")), 0u);
    EXPECT_EQ(ula.distance(encode("AC"), encode("")), 2u);
    EXPECT_EQ(ula.distance(encode(""), encode("AG")), 2u);
    EXPECT_FALSE(ula.distance(encode("AAA"), encode("")).has_value());
}

class UlaRandomTest
    : public ::testing::TestWithParam<std::tuple<size_t, u32>>
{};

TEST_P(UlaRandomTest, MatchesBoundedDp)
{
    const auto [len, k] = GetParam();
    Rng rng(3000 + len * 11 + k);
    UniversalLevAutomaton ula(k);
    for (int t = 0; t < 25; ++t) {
        const Seq pat = randomSeq(rng, len);
        const Seq txt = t % 3 == 0
                            ? randomSeq(rng, len)
                            : mutateSeq(rng, pat, static_cast<unsigned>(
                                                      rng.below(k + 3)));
        const auto oracle = editDistanceBounded(pat, txt, k);
        const auto got = ula.distance(pat, txt);
        ASSERT_EQ(got.has_value(), oracle.has_value())
            << "pat=" << decode(pat) << " txt=" << decode(txt)
            << " k=" << k;
        if (oracle) {
            EXPECT_EQ(static_cast<u64>(*got), *oracle);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UlaRandomTest,
    ::testing::Combine(::testing::Values<size_t>(1, 6, 20, 64, 101),
                       ::testing::Values<u32>(0, 1, 2, 4, 6)));

TEST(Ula, StringIndependentReuse)
{
    UniversalLevAutomaton ula(2);
    EXPECT_EQ(ula.distance(encode("ACGTACGT"), encode("ACGTACGT")), 0u);
    EXPECT_EQ(ula.distance(encode("TTTT"), encode("TTAT")), 1u);
    EXPECT_EQ(ula.distance(encode("ACGTACGT"), encode("ACGTACGT")), 0u);
}

TEST(Ula, FanoutGrowsWithKUnlikeSilla)
{
    // The paper's motivation for Silla: ULA deletion edges jump up
    // to K positions, so its communication is non-local.
    Rng rng(3100);
    const Seq pat = randomSeq(rng, 64);
    const Seq txt = mutateSeq(rng, pat, 6);
    u32 prev_reach = 0;
    for (u32 k : {2u, 4u, 8u}) {
        UniversalLevAutomaton ula(k);
        ula.distance(pat, txt);
        EXPECT_GE(ula.lastMaxDeltaReach(), prev_reach);
        prev_reach = ula.lastMaxDeltaReach();
    }
    EXPECT_GT(prev_reach, 1u); // non-local jumps actually occur
}

TEST(LevAutomaton, ReusableAcrossTexts)
{
    LevenshteinAutomaton la(encode("ACGTACGTAC"), 2);
    EXPECT_TRUE(la.distanceTo(encode("ACGTACGTAC")).has_value());
    EXPECT_TRUE(la.distanceTo(encode("ACGTTCGTAC")).has_value());
    EXPECT_FALSE(la.distanceTo(encode("TTTTTTTTTT")).has_value());
    // And again exact after rejections (reset correctness).
    const auto d = la.distanceTo(encode("ACGTACGTAC"));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, 0u);
}

} // namespace
} // namespace genax

/**
 * @file
 * Tests for the SillaX hardware model: systolic comparator array,
 * structural edit machine, technology model, composable tiles and
 * lane accounting.
 */

#include <gtest/gtest.h>

#include "align/edit_distance.hh"
#include "common/rng.hh"
#include "silla/silla_edit.hh"
#include "sillax/comparator_array.hh"
#include "sillax/edit_machine.hh"
#include "silla/silla_score.hh"
#include "sillax/lane.hh"
#include "sillax/scoring_machine.hh"
#include "sillax/tech_model.hh"
#include "sillax/tile.hh"

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

Seq
mutateSeq(Rng &rng, const Seq &s, unsigned num_edits)
{
    Seq out = s;
    for (unsigned e = 0; e < num_edits && !out.empty(); ++e) {
        const u64 pos = rng.below(out.size());
        switch (rng.below(3)) {
          case 0:
            out[pos] = static_cast<Base>((out[pos] + 1 + rng.below(3)) & 3);
            break;
          case 1:
            out.insert(out.begin() + static_cast<i64>(pos),
                       static_cast<Base>(rng.below(4)));
            break;
          default:
            out.erase(out.begin() + static_cast<i64>(pos));
            break;
        }
    }
    return out;
}

// ------------------------------------------------- comparator array

TEST(ComparatorArray, MatchesDirectRetroComparison)
{
    // The systolic property of Section IV-A: peripheral comparison +
    // diagonal latch forwarding reproduces R[c-i] == Q[c-d] at every
    // state, every cycle.
    Rng rng(600);
    for (u32 k : {1u, 4u, 9u}) {
        ComparatorArray arr(k);
        const Seq r = randomSeq(rng, 60);
        const Seq q = randomSeq(rng, 55);
        for (u64 c = 0; c < 70; ++c) {
            arr.step(c < r.size() ? r[c] : ComparatorArray::kPadR,
                     c < q.size() ? q[c] : ComparatorArray::kPadQ);
            for (u32 i = 0; i <= k; ++i) {
                for (u32 d = 0; d <= k; ++d) {
                    // The latch chain for (i, d) is warm only once
                    // c >= min(i, d); states are never consulted
                    // earlier.
                    if (c < std::min(i, d))
                        continue;
                    EXPECT_EQ(arr.compare(i, d),
                              retroCompare(r, q, c, i, d))
                        << "k=" << k << " c=" << c << " i=" << i
                        << " d=" << d;
                }
            }
        }
    }
}

TEST(ComparatorArray, PadsNeverMatch)
{
    ComparatorArray arr(2);
    // Stream pads only: everything must mismatch, including pad-pad.
    for (int c = 0; c < 8; ++c) {
        arr.step(ComparatorArray::kPadR, ComparatorArray::kPadQ);
        for (u32 i = 0; i <= 2; ++i)
            for (u32 d = 0; d <= 2; ++d)
                EXPECT_FALSE(arr.compare(i, d));
    }
}

TEST(ComparatorArray, ComparatorCountIs2KPlus1)
{
    EXPECT_EQ(ComparatorArray(40).comparatorCount(), 81u);
    EXPECT_EQ(ComparatorArray(0).comparatorCount(), 1u);
}

// --------------------------------------------- structural edit machine

TEST(StructuralEditMachine, MatchesFunctionalSilla)
{
    Rng rng(601);
    for (u32 k : {0u, 1u, 2u, 4u, 8u}) {
        StructuralEditMachine hw(k);
        SillaEdit sw(k);
        for (int t = 0; t < 30; ++t) {
            const Seq a = randomSeq(rng, 5 + rng.below(60));
            const Seq b = mutateSeq(
                rng, a, static_cast<unsigned>(rng.below(k + 3)));
            EXPECT_EQ(hw.distance(a, b), sw.distance(a, b))
                << "k=" << k << " a=" << decode(a)
                << " b=" << decode(b);
        }
    }
}

TEST(StructuralEditMachine, MatchesDpOracle)
{
    Rng rng(602);
    StructuralEditMachine hw(6);
    for (int t = 0; t < 40; ++t) {
        const Seq a = randomSeq(rng, 40);
        const Seq b =
            mutateSeq(rng, a, static_cast<unsigned>(rng.below(9)));
        const auto oracle = editDistanceBounded(a, b, 6);
        const auto got = hw.distance(a, b);
        ASSERT_EQ(got.has_value(), oracle.has_value());
        if (oracle) {
            EXPECT_EQ(static_cast<u64>(*got), *oracle);
        }
    }
}

// ------------------------------------------- structural scoring machine

TEST(StructuralScoringMachine, MatchesFunctionalScoringMachine)
{
    const Scoring sc;
    Rng rng(606);
    for (u32 k : {4u, 8u, 16u}) {
        StructuralScoringMachine hw(k, sc);
        SillaScore sw(k, sc);
        for (int t = 0; t < 25; ++t) {
            const Seq ref = randomSeq(rng, 60 + rng.below(60));
            const Seq qry = mutateSeq(
                rng, ref, static_cast<unsigned>(rng.below(6)));
            const auto a = hw.run(ref, qry);
            const auto b = sw.run(ref, qry);
            EXPECT_EQ(a.best, b.best) << "k=" << k;
            EXPECT_EQ(a.refEnd, b.refEnd);
            EXPECT_EQ(a.qryEnd, b.qryEnd);
            EXPECT_EQ(a.streamCycles, b.streamCycles);
        }
    }
}

TEST(StructuralScoringMachine, BackPropagationReachesGlobalBest)
{
    // Phase 2 of Section IV-B: the clipped maximum is reduced to
    // PE (0,0) using only nearest-neighbour links, within the grid
    // diameter's worth of cycles.
    const Scoring sc;
    Rng rng(608);
    for (u32 k : {4u, 12u}) {
        StructuralScoringMachine hw(k, sc);
        for (int t = 0; t < 15; ++t) {
            const Seq ref = randomSeq(rng, 80);
            const Seq qry = mutateSeq(
                rng, ref, static_cast<unsigned>(rng.below(6)));
            const auto res = hw.run(ref, qry);
            const auto [best, cycles] = hw.backPropagateBest();
            EXPECT_EQ(best, res.best);
            EXPECT_LE(cycles, 2u * k + 1);
        }
    }
}

TEST(StructuralScoringMachine, PerfectAndHopelessPairs)
{
    const Scoring sc;
    StructuralScoringMachine hw(8, sc);
    Rng rng(607);
    const Seq s = randomSeq(rng, 101);
    EXPECT_EQ(hw.run(s, s).best, 101);
    EXPECT_EQ(hw.run(Seq(50, kBaseA), Seq(50, kBaseG)).best, 0);
}

// ----------------------------------------------------------- tech model

TEST(TechModel, EditMachineCalibrationPoint)
{
    // Section VIII-A: edit machine at 2 GHz = 0.012 mm^2 / 0.047 W.
    const double area = TechModel::machineAreaMm2(PeType::Edit, 40, 2.0);
    const double power = TechModel::machinePowerW(PeType::Edit, 40, 2.0);
    EXPECT_NEAR(area, 0.012, 0.002);
    EXPECT_NEAR(power, 0.047, 0.005);
    EXPECT_NEAR(TechModel::peLatencyNs(PeType::Edit, 2.0), 0.17, 0.01);
}

TEST(TechModel, TracebackMachineCalibrationPoint)
{
    const double area =
        TechModel::machineAreaMm2(PeType::Traceback, 40, 2.0);
    const double power =
        TechModel::machinePowerW(PeType::Traceback, 40, 2.0);
    EXPECT_NEAR(area, 1.41, 0.1);
    EXPECT_NEAR(power, 1.54, 0.1);
    EXPECT_NEAR(TechModel::peLatencyNs(PeType::Traceback, 2.0), 0.33, 0.01);
}

TEST(TechModel, EditPeAt5GhzNear9p7Um2)
{
    EXPECT_NEAR(TechModel::peAreaUm2(PeType::Edit, 5.0), 9.7, 0.5);
}

TEST(TechModel, BandedSwPeIs30xLargerThanEditPe)
{
    // Section VIII-C: 300 um^2 vs 9.7 um^2 at 5 GHz.
    const double ratio = TechModel::bandedSwPeAreaUm2(5.0) /
                         TechModel::peAreaUm2(PeType::Edit, 5.0);
    EXPECT_NEAR(ratio, 30.9, 1.5);
}

TEST(TechModel, AreaAndPowerMonotoneInFrequency)
{
    for (PeType t :
         {PeType::Edit, PeType::Scoring, PeType::Traceback}) {
        double prev_a = 0, prev_p = 0;
        for (double f = 1.0; f <= 8.0; f += 0.5) {
            const double a = TechModel::peAreaUm2(t, f);
            const double p = TechModel::pePowerW(t, f);
            EXPECT_GT(a, prev_a);
            EXPECT_GT(p, prev_p);
            prev_a = a;
            prev_p = p;
        }
    }
}

TEST(TechModel, LatencyDecreasesWithFrequencyTarget)
{
    EXPECT_GT(TechModel::peLatencyNs(PeType::Edit, 1.0),
              TechModel::peLatencyNs(PeType::Edit, 6.0));
    // The edit machine reaches 6 GHz; scoring/traceback do not.
    EXPECT_GE(TechModel::maxFrequencyGhz(PeType::Edit), 6.0);
    EXPECT_LT(TechModel::maxFrequencyGhz(PeType::Traceback), 4.0);
}

TEST(TechModel, GateCounts)
{
    EXPECT_EQ(TechModel::peGates(PeType::Edit), 13u);
    EXPECT_GT(TechModel::peGates(PeType::Scoring),
              TechModel::peGates(PeType::Edit));
    EXPECT_GT(TechModel::peGates(PeType::Traceback),
              TechModel::peGates(PeType::Scoring));
}

TEST(TechModel, PeCountFormula)
{
    EXPECT_EQ(TechModel::peCount(40), 1681u); // Section VIII-A
}

// -------------------------------------------------------------- tiles

TEST(TileArray, DefaultConfigIsAllSingles)
{
    TileArray arr(40, 2, 3);
    EXPECT_EQ(arr.engines().size(), 6u);
    for (const auto &e : arr.engines()) {
        EXPECT_EQ(e.p, 1u);
        EXPECT_EQ(e.editBound, 40u);
    }
}

TEST(TileArray, ComposeOne2x2Engine)
{
    TileArray arr(40, 2, 3);
    ASSERT_TRUE(arr.configure({2}));
    // One 2x2 engine + two leftover singles.
    ASSERT_EQ(arr.engines().size(), 3u);
    u32 composed = 0, singles = 0;
    for (const auto &e : arr.engines()) {
        if (e.p == 2) {
            ++composed;
            EXPECT_EQ(e.editBound, 81u); // 2*(40+1)-1
        } else {
            ++singles;
        }
    }
    EXPECT_EQ(composed, 1u);
    EXPECT_EQ(singles, 2u);
}

TEST(TileArray, RejectsInfeasibleRequests)
{
    TileArray arr(40, 2, 2);
    EXPECT_FALSE(arr.configure({3}));    // larger than the grid
    EXPECT_FALSE(arr.configure({2, 2})); // two 2x2 in a 2x2 grid
    EXPECT_FALSE(arr.configure({0}));
    // A failed configure keeps the previous (all-singles) state.
    EXPECT_EQ(arr.engines().size(), 4u);
}

TEST(TileArray, PackingPlacesLargestFirst)
{
    TileArray arr(20, 4, 4);
    ASSERT_TRUE(arr.configure({2, 2, 2, 2}));
    EXPECT_EQ(arr.engines().size(), 4u);
    ASSERT_TRUE(arr.configure({3, 1}));
    // One 3x3 engine + 7 singles.
    EXPECT_EQ(arr.engines().size(), 8u);
}

TEST(TileArray, ComposedEngineAlignsBeyondTileBound)
{
    // Functional check of the reconfiguration payoff: a pair needing
    // more edits than one tile supports is handled by the composed
    // engine.
    TileArray arr(4, 2, 2);
    ASSERT_TRUE(arr.configure({2}));
    const u32 big_k = arr.engines()[0].editBound;
    EXPECT_EQ(big_k, 9u);

    Rng rng(603);
    const Seq a = randomSeq(rng, 60);
    const Seq b = mutateSeq(rng, a, 7); // up to 7 edits > tile K of 4

    SillaEdit small(4), big(big_k);
    const u64 d = editDistance(a, b);
    if (d > 4 && d <= 9) {
        EXPECT_FALSE(small.distance(a, b).has_value());
        ASSERT_TRUE(big.distance(a, b).has_value());
        EXPECT_EQ(*big.distance(a, b), d);
    }
}

TEST(TileArray, MuxOverheadIsSmall)
{
    TileArray arr(40, 2, 2);
    const double tiles_alone =
        4 * TechModel::machineAreaMm2(PeType::Traceback, 40, 2.0);
    const double with_mux = arr.areaMm2(PeType::Traceback, 2.0);
    EXPECT_GT(with_mux, tiles_alone);
    EXPECT_LT(with_mux, tiles_alone * 1.05);
}

// --------------------------------------------------------------- lane

TEST(SillaXLane, AccumulatesStatsAndThroughput)
{
    const Scoring sc;
    SillaXLane lane(12, sc, 2.0);
    Rng rng(604);
    for (int t = 0; t < 50; ++t) {
        const Seq ref = randomSeq(rng, 110);
        const Seq read = mutateSeq(rng, randomSeq(rng, 101),
                                   static_cast<unsigned>(rng.below(3)));
        lane.extend(ref, read);
    }
    const LaneStats &st = lane.stats();
    EXPECT_EQ(st.jobs, 50u);
    EXPECT_GT(st.streamCycles, 0u);
    EXPECT_GT(st.cyclesPerJob(), 101.0); // at least the stream phase
    EXPECT_LT(st.cyclesPerJob(), 400.0); // but O(N + K), not O(N^2)
    // Millions of 101 bp extensions per second at 2 GHz.
    EXPECT_GT(st.jobsPerSecond(2.0), 5e6);
}

TEST(SillaXLane, ExtendReturnsSameAlignmentAsMachine)
{
    const Scoring sc;
    SillaXLane lane(8, sc);
    SillaTraceback machine(8, sc);
    Rng rng(605);
    const Seq ref = randomSeq(rng, 101);
    const Seq read = mutateSeq(rng, ref, 2);
    const auto a = lane.extend(ref, read);
    const auto b = machine.align(ref, read);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.cigar.str(), b.cigar.str());
}

TEST(SillaXLane, ResetStats)
{
    const Scoring sc;
    SillaXLane lane(4, sc);
    lane.extend(encode("ACGTACGT"), encode("ACGTACGT"));
    EXPECT_EQ(lane.stats().jobs, 1u);
    lane.resetStats();
    EXPECT_EQ(lane.stats().jobs, 0u);
}

} // namespace
} // namespace genax

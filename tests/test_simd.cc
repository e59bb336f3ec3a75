/**
 * @file
 * SIMD kernel subsystem tests: dispatch-tier selection and forcing,
 * and bit-identity of every vectorized kernel against its scalar
 * reference oracle across all tiers the host supports — randomized
 * fuzz plus the adversarial shapes called out in the kernel
 * contracts (overflow-forcing high-identity reads, gate-busting
 * scoring schemes, degenerate N-dense windows, empty and 1-bp
 * sequences).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "align/gotoh.hh"
#include "align/myers.hh"
#include "align/simd/batch_score.hh"
#include "align/simd/dispatch.hh"
#include "align/simd/myers_batch.hh"
#include "common/rng.hh"

namespace genax {
namespace {

using simd::ExtendJob;
using simd::KernelTier;
using simd::MyersJob;

/** Clears any forced tier when a test scope ends. */
struct TierGuard
{
    ~TierGuard() { simd::clearKernelTierOverride(); }
};

std::vector<KernelTier>
supportedTiers()
{
    std::vector<KernelTier> out;
    for (KernelTier t : {KernelTier::Scalar, KernelTier::Sse41,
                         KernelTier::Avx2}) {
        if (simd::kernelTierSupported(t))
            out.push_back(t);
    }
    return out;
}

Seq
randomSeq(Rng &rng, size_t len)
{
    Seq s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(4)));
    return s;
}

/** Copy with a few random substitutions/indels (high identity). */
Seq
mutate(Rng &rng, const Seq &src, unsigned edits)
{
    Seq s = src;
    for (unsigned e = 0; e < edits && !s.empty(); ++e) {
        const size_t pos = rng.below(s.size());
        switch (rng.below(3)) {
          case 0:
            s[pos] = static_cast<Base>(rng.below(4));
            break;
          case 1:
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
                     static_cast<Base>(rng.below(4)));
            break;
          default:
            s.erase(s.begin() + static_cast<std::ptrdiff_t>(pos));
            break;
        }
    }
    return s;
}

// ---------------------------------------------------------------------
// Dispatch.

TEST(SimdDispatch, TierNamesRoundTrip)
{
    EXPECT_STREQ(simd::kernelTierName(KernelTier::Scalar), "scalar");
    EXPECT_STREQ(simd::kernelTierName(KernelTier::Sse41), "sse41");
    EXPECT_STREQ(simd::kernelTierName(KernelTier::Avx2), "avx2");
}

TEST(SimdDispatch, ScalarAlwaysSupported)
{
    EXPECT_TRUE(simd::kernelTierCompiled(KernelTier::Scalar));
    EXPECT_TRUE(simd::kernelTierSupported(KernelTier::Scalar));
}

TEST(SimdDispatch, ForceAndClear)
{
    TierGuard guard;
    for (KernelTier t : supportedTiers()) {
        ASSERT_TRUE(simd::setKernelTier(t).ok());
        EXPECT_EQ(simd::activeKernelTier(), t);
    }
    simd::clearKernelTierOverride();
    EXPECT_EQ(simd::activeKernelTier(), simd::detectKernelTier());
}

TEST(SimdDispatch, ByNameParsesAndRejects)
{
    TierGuard guard;
    ASSERT_TRUE(simd::setKernelTierByName("scalar").ok());
    EXPECT_EQ(simd::activeKernelTier(), KernelTier::Scalar);
    ASSERT_TRUE(simd::setKernelTierByName("auto").ok());
    EXPECT_EQ(simd::activeKernelTier(), simd::detectKernelTier());

    const Status bad = simd::setKernelTierByName("avx512");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), StatusCode::InvalidInput);
}

TEST(SimdDispatch, EnvForcesScalarDetection)
{
    TierGuard guard;
    ASSERT_EQ(setenv("GENAX_FORCE_SCALAR", "1", 1), 0);
    EXPECT_EQ(simd::detectKernelTier(), KernelTier::Scalar);
    EXPECT_EQ(simd::activeKernelTier(), KernelTier::Scalar);
    // "0" and empty mean not forced.
    ASSERT_EQ(setenv("GENAX_FORCE_SCALAR", "0", 1), 0);
    const KernelTier t0 = simd::detectKernelTier();
    ASSERT_EQ(unsetenv("GENAX_FORCE_SCALAR"), 0);
    EXPECT_EQ(simd::detectKernelTier(), t0);
}

// ---------------------------------------------------------------------
// Banded Extend batch vs gotohBandedExtendScore.

void
expectBatchMatchesScalar(const std::vector<PackedSeq> &refs,
                         const std::vector<Seq> &qrys, const Scoring &sc,
                         u32 band)
{
    ASSERT_EQ(refs.size(), qrys.size());
    std::vector<ExtendJob> jobs(refs.size());
    for (size_t i = 0; i < refs.size(); ++i)
        jobs[i] = {&refs[i], &qrys[i]};

    std::vector<BandedExtendScore> want(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        want[i] = gotohBandedExtendScore(refs[i], qrys[i], sc, band);

    TierGuard guard;
    for (KernelTier t : supportedTiers()) {
        ASSERT_TRUE(simd::setKernelTier(t).ok());
        const auto got = simd::scoreCandidateBatch(jobs, sc, band);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].score, want[i].score)
                << "tier=" << simd::kernelTierName(t) << " job=" << i;
            EXPECT_EQ(got[i].refEnd, want[i].refEnd)
                << "tier=" << simd::kernelTierName(t) << " job=" << i;
            EXPECT_EQ(got[i].qryEnd, want[i].qryEnd)
                << "tier=" << simd::kernelTierName(t) << " job=" << i;
        }
    }
}

TEST(SimdBatchScore, RandomizedFuzzAllTiers)
{
    Rng rng(20240806);
    for (u32 band : {4u, 8u, 16u, 32u}) {
        for (int round = 0; round < 6; ++round) {
            std::vector<PackedSeq> refs;
            std::vector<Seq> qrys;
            for (int i = 0; i < 41; ++i) {
                const size_t qlen = rng.below(140);
                Seq q = randomSeq(rng, qlen);
                // Mix related and unrelated windows.
                Seq r = rng.chance(0.5) ? mutate(rng, q, 4)
                                        : randomSeq(rng, rng.below(200));
                refs.emplace_back(r);
                qrys.push_back(std::move(q));
            }
            expectBatchMatchesScalar(refs, qrys, Scoring{}, band);
        }
    }
}

TEST(SimdBatchScore, AdversarialShapes)
{
    Rng rng(7);
    std::vector<PackedSeq> refs;
    std::vector<Seq> qrys;
    auto add = [&](Seq r, Seq q) {
        refs.emplace_back(r);
        qrys.push_back(std::move(q));
    };
    add({}, {});                                 // both empty
    add({}, randomSeq(rng, 30));                 // empty window
    add(randomSeq(rng, 30), {});                 // empty query
    add({kBaseA}, {kBaseA});                     // 1 bp each
    add({kBaseC}, {kBaseG});                     // 1 bp mismatch
    add(Seq(120, kBaseA), Seq(100, kBaseA));     // N-dense (N -> A)
    add(Seq(3, kBaseT), Seq(90, kBaseT));        // query >> window
    // High-identity long pair: every cell on the diagonal is a max
    // candidate, stressing the tie-break replication.
    const Seq base = randomSeq(rng, 1000);
    add(base, mutate(rng, base, 3));
    expectBatchMatchesScalar(refs, qrys, Scoring{}, 16);
}

TEST(SimdBatchScore, ScoringVariantsIncludingGateBusters)
{
    Rng rng(99);
    std::vector<PackedSeq> refs;
    std::vector<Seq> qrys;
    for (int i = 0; i < 17; ++i) {
        const Seq q = randomSeq(rng, 60 + rng.below(60));
        refs.emplace_back(mutate(rng, q, 5));
        qrys.push_back(q);
    }
    // Long high-identity read that overflows the 16-bit value gate
    // (m * match > 12000) and must take the scalar re-run path.
    {
        const Seq q = randomSeq(rng, 900);
        refs.emplace_back(mutate(rng, q, 4));
        qrys.push_back(q);
    }

    const Scoring schemes[] = {
        Scoring{},                  // BWA-MEM defaults
        Scoring::unitEdit(),        // {0, 1, 0, 1}
        Scoring{2, 3, 5, 2},
        Scoring{1000, 4000, 4000, 1000}, // busts the product gate
        Scoring{5000, 1, 1, 1},          // busts the param gate
    };
    for (const Scoring &sc : schemes)
        expectBatchMatchesScalar(refs, qrys, sc, 8);
}

TEST(SimdBatchScore, LongJobsBustLengthGate)
{
    Rng rng(11);
    std::vector<PackedSeq> refs;
    std::vector<Seq> qrys;
    // n + m + 2 > 8000: scalar re-run path, mixed with short eligible
    // jobs in the same batch.
    const Seq longQ = randomSeq(rng, 5000);
    refs.emplace_back(mutate(rng, longQ, 10));
    qrys.push_back(longQ);
    for (int i = 0; i < 9; ++i) {
        const Seq q = randomSeq(rng, 80);
        refs.emplace_back(mutate(rng, q, 3));
        qrys.push_back(q);
    }
    expectBatchMatchesScalar(refs, qrys, Scoring::unitEdit(), 8);
}

TEST(SimdBatchScore, TruncatedRerunReproducesFullResult)
{
    // The winner-only traceback contract: re-running the banded DP on
    // the (refEnd, qryEnd) prefix reproduces the full Extend result.
    Rng rng(5);
    for (int round = 0; round < 40; ++round) {
        const Seq q = randomSeq(rng, 10 + rng.below(120));
        const PackedSeq r(mutate(rng, q, 4));
        const u32 band = 12;
        const auto hint = gotohBandedExtendScore(r, q, Scoring{}, band);
        const AlignResult full =
            gotohBanded(r, q, Scoring{}, AlignMode::Extend, band);
        ASSERT_TRUE(full.valid);
        EXPECT_EQ(hint.score, full.score);
        EXPECT_EQ(hint.refEnd, full.refEnd);
        EXPECT_EQ(hint.qryEnd, full.qryEnd);

        const PackedSeq rTrunc = r.prefix(hint.refEnd);
        const Seq qTrunc(q.begin(),
                         q.begin() + static_cast<std::ptrdiff_t>(
                                         hint.qryEnd));
        const AlignResult rerun = gotohBanded(rTrunc, qTrunc, Scoring{},
                                              AlignMode::Extend, band);
        ASSERT_TRUE(rerun.valid);
        EXPECT_EQ(rerun.score, full.score);
        EXPECT_EQ(rerun.refEnd, full.refEnd);
        EXPECT_EQ(rerun.qryEnd, full.qryEnd);
        // Same path, modulo the soft-clip the full run appends for
        // the untruncated query tail.
        Cigar fullCore;
        for (const auto &el : full.cigar.elems()) {
            if (el.op != CigarOp::SoftClip)
                fullCore.push(el.op, el.len);
        }
        Cigar rerunCore;
        for (const auto &el : rerun.cigar.elems()) {
            if (el.op != CigarOp::SoftClip)
                rerunCore.push(el.op, el.len);
        }
        EXPECT_EQ(fullCore.str(), rerunCore.str());
    }
}

// ---------------------------------------------------------------------
// Batched Myers edit distance vs myersEditDistance.

void
expectMyersMatches(const std::vector<Seq> &pats,
                   const std::vector<PackedSeq> &texts)
{
    ASSERT_EQ(pats.size(), texts.size());
    std::vector<MyersJob> jobs(pats.size());
    for (size_t i = 0; i < pats.size(); ++i)
        jobs[i] = {&pats[i], &texts[i]};
    std::vector<u64> want(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        want[i] = myersEditDistance(pats[i], texts[i]);

    TierGuard guard;
    for (KernelTier t : supportedTiers()) {
        ASSERT_TRUE(simd::setKernelTier(t).ok());
        const auto got = simd::myersEditDistanceBatch(jobs);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << "tier=" << simd::kernelTierName(t) << " job=" << i
                << " m=" << pats[i].size() << " n=" << texts[i].size();
        }
    }
}

TEST(SimdMyers, RandomizedFuzzAllTiers)
{
    Rng rng(20240808);
    for (int round = 0; round < 8; ++round) {
        std::vector<Seq> pats;
        std::vector<PackedSeq> texts;
        for (int i = 0; i < 23; ++i) {
            // Spread across 1..4 blocks to exercise the multi-block
            // carry chain.
            const size_t m = 1 + rng.below(250);
            Seq p = randomSeq(rng, m);
            Seq t = rng.chance(0.5) ? mutate(rng, p, 8)
                                    : randomSeq(rng, rng.below(300));
            pats.push_back(std::move(p));
            texts.emplace_back(t);
        }
        expectMyersMatches(pats, texts);
    }
}

TEST(SimdMyers, DegenerateAndBlockBoundaryShapes)
{
    Rng rng(12);
    std::vector<Seq> pats;
    std::vector<PackedSeq> texts;
    auto add = [&](Seq p, Seq t) {
        pats.push_back(std::move(p));
        texts.emplace_back(t);
    };
    add({}, {});                              // both empty
    add({}, randomSeq(rng, 40));              // empty pattern
    add(randomSeq(rng, 40), {});              // empty text
    add({kBaseA}, {kBaseT});                  // 1 bp
    add(Seq(64, kBaseA), Seq(64, kBaseA));    // exact block boundary
    add(Seq(65, kBaseA), Seq(64, kBaseA));    // one past the boundary
    add(randomSeq(rng, 128), randomSeq(rng, 128));
    add(Seq(200, kBaseA), Seq(10, kBaseA));   // N-dense, m >> n
    const Seq big = randomSeq(rng, 400);      // 7-block pattern
    add(big, mutate(rng, big, 12));
    expectMyersMatches(pats, texts);
}

} // namespace
} // namespace genax

/**
 * @file
 * Randomized cross-implementation consistency sweeps ("fuzz" tests):
 *
 *  - seven independent edit-distance implementations must agree on
 *    random pairs over 2- and 4-letter alphabets (small alphabets
 *    maximize accidental repeats and tie-rich cases),
 *  - the scoring machines must agree with banded Gotoh under
 *    randomized affine scoring schemes (the "programmable scoring
 *    logic" of Figure 7),
 *  - every traceback the hardware model produces must re-score to
 *    exactly its claimed value,
 *  - chaos sweeps: with fault-injection sites armed across the IO,
 *    DRAM, CAM and SillaX layers, the pipeline must complete without
 *    aborting and its outcome ledger must stay balanced.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "align/edit_distance.hh"
#include "align/gotoh.hh"
#include "align/lev_automaton.hh"
#include "align/myers.hh"
#include "align/ula.hh"
#include "align/wfa.hh"
#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/rng.hh"
#include "genax/pipeline.hh"
#include "io/fastq.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "silla/silla_edit.hh"
#include "silla/silla_score.hh"
#include "silla/silla_traceback.hh"
#include "sillax/edit_machine.hh"
#include "sillax/scoring_machine.hh"
#include "sillax/tile.hh"

namespace genax {
namespace {

Seq
randomSeq(Rng &rng, size_t len, unsigned alphabet)
{
    Seq s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(alphabet)));
    return s;
}

Seq
mutateSeq(Rng &rng, const Seq &s, unsigned num_edits, unsigned alphabet)
{
    Seq out = s;
    for (unsigned e = 0; e < num_edits && !out.empty(); ++e) {
        const u64 pos = rng.below(out.size());
        switch (rng.below(3)) {
          case 0:
            out[pos] = static_cast<Base>(rng.below(alphabet));
            break;
          case 1:
            out.insert(out.begin() + static_cast<i64>(pos),
                       static_cast<Base>(rng.below(alphabet)));
            break;
          default:
            out.erase(out.begin() + static_cast<i64>(pos));
            break;
        }
    }
    return out;
}

TEST(Fuzz, SevenEditDistanceImplementationsAgree)
{
    Rng rng(77001);
    const u32 k = 6;
    SillaEdit silla(k);
    Silla3D silla3d(k);
    StructuralEditMachine structural(k);
    UniversalLevAutomaton ula(k);

    for (int t = 0; t < 250; ++t) {
        const unsigned alphabet = t % 3 == 0 ? 2 : 4;
        const size_t len = rng.below(60);
        const Seq a = randomSeq(rng, len, alphabet);
        const Seq b = t % 2 == 0
                          ? randomSeq(rng, rng.below(60), alphabet)
                          : mutateSeq(rng, a,
                                      static_cast<unsigned>(rng.below(9)),
                                      alphabet);

        const u64 truth = editDistance(a, b);
        EXPECT_EQ(myersEditDistance(a, b), truth);
        // Unit penalties (mismatch 1, open 0, extend 1) make WFA's
        // minimum penalty the edit distance.
        EXPECT_EQ(wfaGlobalPenalty(a, b, {1, 0, 1}, a.size() + b.size()),
                  truth);

        const auto bounded = editDistanceBounded(a, b, k);
        ASSERT_EQ(bounded.has_value(), truth <= k);

        const auto s2 = silla.distance(a, b);
        const auto s3 = silla3d.distance(a, b);
        const auto hw = structural.distance(a, b);
        const auto u = ula.distance(a, b);
        if (truth <= k) {
            ASSERT_TRUE(s2 && s3 && hw && u)
                << "a=" << decode(a) << " b=" << decode(b);
            EXPECT_EQ(*s2, truth);
            EXPECT_EQ(*s3, truth);
            EXPECT_EQ(*hw, truth);
            EXPECT_EQ(*u, truth);
        } else {
            EXPECT_FALSE(s2.has_value());
            EXPECT_FALSE(s3.has_value());
            EXPECT_FALSE(hw.has_value());
            EXPECT_FALSE(u.has_value());
        }

        // The classic LA is string-dependent: built per pattern.
        if (len <= 40) {
            LevenshteinAutomaton la(a, k);
            const auto l = la.distanceTo(b);
            ASSERT_EQ(l.has_value(), truth <= k);
            if (l) {
                EXPECT_EQ(*l, truth);
            }
        }
    }
}

TEST(Fuzz, ScoringMachinesAgreeUnderRandomSchemes)
{
    Rng rng(77002);
    for (int t = 0; t < 120; ++t) {
        Scoring sc;
        sc.match = 1 + static_cast<i32>(rng.below(3));
        sc.mismatch = 1 + static_cast<i32>(rng.below(6));
        sc.gapOpen = static_cast<i32>(rng.below(9));
        sc.gapExtend = 1 + static_cast<i32>(rng.below(3));

        const u32 k = 4 + static_cast<u32>(rng.below(10));
        const unsigned alphabet = t % 4 == 0 ? 2 : 4;
        const Seq ref = randomSeq(rng, 30 + rng.below(90), alphabet);
        const Seq qry = mutateSeq(
            rng, ref, static_cast<unsigned>(rng.below(k / 2 + 1)),
            alphabet);

        const auto oracle =
            gotohBanded(ref, qry, sc, AlignMode::Extend, k);
        ASSERT_TRUE(oracle.valid);

        SillaScore score(k, sc);
        StructuralScoringMachine structural(k, sc);
        SillaTraceback traceback(k, sc);

        const auto s = score.run(ref, qry);
        const auto h = structural.run(ref, qry);
        const auto tb = traceback.align(ref, qry);
        EXPECT_EQ(s.best, oracle.score)
            << "t=" << t << " k=" << k << " match=" << sc.match
            << " mis=" << sc.mismatch << " go=" << sc.gapOpen
            << " ge=" << sc.gapExtend;
        EXPECT_EQ(h.best, oracle.score);
        EXPECT_EQ(tb.score, oracle.score);

        // The recovered path must re-score to exactly the claim.
        Cigar aligned;
        for (const auto &e : tb.cigar.elems())
            if (e.op != CigarOp::SoftClip)
                aligned.push(e.op, e.len);
        const Seq ref_win(ref.begin(),
                          ref.begin() + static_cast<i64>(tb.refEnd));
        const Seq qry_win(qry.begin(),
                          qry.begin() + static_cast<i64>(tb.qryEnd));
        EXPECT_EQ(aligned.rescore(ref_win, qry_win, sc), tb.score)
            << tb.cigar.str();
    }
}

TEST(Fuzz, TracebackValidOnAdversarialTandemRepeats)
{
    // Tandem repeats create massive tie ambiguity in gap placement —
    // the classic trap for traceback implementations.
    Rng rng(77003);
    const Scoring sc;
    SillaTraceback machine(12, sc);
    for (int t = 0; t < 60; ++t) {
        const u32 unit = 1 + static_cast<u32>(rng.below(6));
        Seq ref;
        const Seq u = randomSeq(rng, unit, 4);
        while (ref.size() < 80)
            ref.insert(ref.end(), u.begin(), u.end());
        Seq qry =
            mutateSeq(rng, ref, static_cast<unsigned>(rng.below(6)), 4);

        const auto got = machine.align(ref, qry);
        const auto oracle =
            gotohBanded(ref, qry, sc, AlignMode::Extend, 12);
        EXPECT_EQ(got.score, oracle.score) << "unit=" << unit;
        EXPECT_EQ(got.cigar.queryLen(), qry.size());
        Cigar aligned;
        for (const auto &e : got.cigar.elems())
            if (e.op != CigarOp::SoftClip)
                aligned.push(e.op, e.len);
        const Seq ref_win(ref.begin(),
                          ref.begin() + static_cast<i64>(got.refEnd));
        const Seq qry_win(qry.begin(),
                          qry.begin() + static_cast<i64>(got.qryEnd));
        EXPECT_EQ(aligned.rescore(ref_win, qry_win, sc), got.score);
    }
}

// The invariant layer must actually catch corrupted hardware
// configurations: with the throwing handler installed, constructing
// a SillaX tile array from impossible parameters surfaces as a
// CheckViolation instead of silently building a broken model.
TEST(CheckFuzz, CorruptTileConfigurationIsCaught)
{
    ScopedCheckHandler guard(&throwingCheckHandler);
    EXPECT_THROW(TileArray(0, 4, 4), CheckViolation);   // K = 0
    EXPECT_THROW(TileArray(3, 0, 8), CheckViolation);   // no rows
    EXPECT_THROW(TileArray(3, 8, 0), CheckViolation);   // no columns
    EXPECT_THROW(TileArray(1u << 20, 4, 4), CheckViolation);
    // A sane configuration still constructs under the same handler.
    EXPECT_NO_THROW(TileArray(3, 4, 4));
}

TEST(CheckFuzz, CorruptScoringSchemeIsCaught)
{
    ScopedCheckHandler guard(&throwingCheckHandler);
    Scoring sc;
    sc.mismatch = 0; // free mismatches: every alignment degenerate
    EXPECT_THROW(SillaScore(8, sc), CheckViolation);
    EXPECT_THROW(SillaTraceback(8, sc), CheckViolation);
}

// ------------------------------------------------------------- chaos

namespace {

struct ChaosWorkload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads;
};

ChaosWorkload
chaosWorkload(u64 seed, u64 num_reads)
{
    ChaosWorkload w;
    RefGenConfig rc;
    rc.length = 40000;
    rc.seed = seed;
    w.ref.push_back({"chr1", generateReference(rc)});
    ReadSimConfig rs;
    rs.numReads = num_reads;
    rs.seed = seed + 1;
    for (const auto &r : simulateReads(w.ref[0].seq, rs))
        w.reads.push_back({r.name, r.seq, r.qual});
    return w;
}

PipelineOptions
chaosOptions()
{
    PipelineOptions opts;
    opts.k = 11;
    opts.band = 16;
    opts.segments = 4;
    return opts;
}

} // namespace

TEST(Chaos, LaneIssueFaultsDegradeToSoftwareKernel)
{
    const auto w = chaosWorkload(8801, 30);

    std::ostringstream clean_sam;
    const auto clean =
        alignToSam(w.ref, w.reads, clean_sam, chaosOptions());
    ASSERT_TRUE(clean.ok());

    ScopedFaultPlan plan(
        {{fault::kLaneIssue, {.probability = 0.2, .seed = 5}}});
    std::ostringstream sam;
    const auto res = alignToSam(w.ref, w.reads, sam, chaosOptions());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->ledgerBalanced());
    EXPECT_GT(res->perf.laneFaults, 0u);
    EXPECT_EQ(res->perf.degradedJobs, res->perf.laneFaults);
    EXPECT_GT(res->degraded, 0u);
    // The Gotoh fallback kernel is score-equivalent to the lanes:
    // degraded reads still align, so total placed reads match the
    // clean run.
    EXPECT_EQ(res->mapped + res->degraded,
              clean->mapped + clean->degraded);
}

TEST(Chaos, DramStreamFaultsAreAbsorbed)
{
    const auto w = chaosWorkload(8802, 20);
    ScopedFaultPlan plan(
        {{fault::kDramStream, {.probability = 0.8, .seed = 3}}});
    std::ostringstream sam;
    const auto res = alignToSam(w.ref, w.reads, sam, chaosOptions());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->ledgerBalanced());
    // Retried or estimated streams cost extra modelled time but
    // never lose reads.
    EXPECT_EQ(res->failed, 0u);
    EXPECT_GT(res->mapped, 0u);
}

TEST(Chaos, CamOverflowFaultsForceTheFallbackDatapath)
{
    const auto w = chaosWorkload(8803, 20);

    std::ostringstream clean_sam, sam;
    const auto clean =
        alignToSam(w.ref, w.reads, clean_sam, chaosOptions());
    ASSERT_TRUE(clean.ok());
    ScopedFaultPlan plan(
        {{fault::kCamOverflow, {.probability = 0.5, .seed = 11}}});
    const auto res = alignToSam(w.ref, w.reads, sam, chaosOptions());
    ASSERT_TRUE(res.ok());
    // The binary-search fallback is a correct (slower) datapath, so
    // forcing it must not change what maps.
    EXPECT_EQ(res->mapped, clean->mapped);
    EXPECT_GT(res->perf.seeding.cam.overflowFallbacks,
              clean->perf.seeding.cam.overflowFallbacks);
}

TEST(Chaos, PipelineReadFaultsBecomeFailedLedgerEntries)
{
    const auto w = chaosWorkload(8804, 25);
    ScopedFaultPlan plan(
        {{fault::kPipelineRead, {.probability = 0.25, .seed = 17}}});
    std::ostringstream sam;
    const auto res = alignToSam(w.ref, w.reads, sam, chaosOptions());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->ledgerBalanced());
    EXPECT_GT(res->failed, 0u);
    EXPECT_LT(res->failed, res->reads);
    // Failed reads still produce (unmapped) SAM records.
    std::istringstream in(sam.str());
    std::string line;
    u64 records = 0;
    while (std::getline(in, line))
        records += !line.empty() && line[0] != '@';
    EXPECT_EQ(records, res->reads);
}

TEST(Chaos, FastqIoFaultsSurfaceAsIoError)
{
    // A reader hit by an injected IO fault reports IoError through
    // its Status channel instead of aborting or fabricating records.
    std::string text;
    for (int i = 0; i < 50; ++i)
        text += "@r" + std::to_string(i) + "\nACGTACGT\n+\nIIIIIIII\n";
    ScopedFaultPlan plan(
        {{fault::kFastqRecord, {.fireOnNth = 10}}});
    std::istringstream in(text);
    const auto recs = readFastq(in);
    ASSERT_FALSE(recs.ok());
    EXPECT_EQ(recs.status().code(), StatusCode::IoError);
    EXPECT_NE(recs.status().message().find(fault::kFastqRecord),
              std::string::npos);
}

TEST(Chaos, CombinedFaultStormStillBalancesTheLedger)
{
    const auto w = chaosWorkload(8805, 40);
    ScopedFaultPlan plan({
        {fault::kLaneIssue, {.probability = 0.1, .seed = 1}},
        {fault::kDramStream, {.probability = 0.3, .seed = 2}},
        {fault::kCamOverflow, {.probability = 0.2, .seed = 3}},
        {fault::kPipelineRead, {.probability = 0.1, .seed = 4}},
    });
    std::ostringstream sam;
    const auto res = alignToSam(w.ref, w.reads, sam, chaosOptions());
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->ledgerBalanced());
    EXPECT_EQ(res->mapped + res->unmapped + res->degraded +
                  res->failed,
              res->reads);
    // Determinism: the same fault plan replays to the same ledger.
    ScopedFaultPlan replay({
        {fault::kLaneIssue, {.probability = 0.1, .seed = 1}},
        {fault::kDramStream, {.probability = 0.3, .seed = 2}},
        {fault::kCamOverflow, {.probability = 0.2, .seed = 3}},
        {fault::kPipelineRead, {.probability = 0.1, .seed = 4}},
    });
    std::ostringstream sam2;
    const auto res2 = alignToSam(w.ref, w.reads, sam2, chaosOptions());
    ASSERT_TRUE(res2.ok());
    EXPECT_EQ(res2->mapped, res->mapped);
    EXPECT_EQ(res2->degraded, res->degraded);
    EXPECT_EQ(res2->failed, res->failed);
    EXPECT_EQ(sam2.str(), sam.str());
}

TEST(Fuzz, FastqBatchRefillMatchesWholeParseUnderCorruption)
{
    // Random FASTQ files with random corruption (bad separators,
    // length mismatches, stray garbage, CRLF, truncation) parsed two
    // ways: one whole-stream pass vs nextBatch() refills at several
    // batch sizes. Record streams and malformed counts must agree —
    // the refill boundary can land anywhere, including mid-recovery.
    Rng rng(9906);
    for (int round = 0; round < 20; ++round) {
        std::string text;
        const int n = 3 + static_cast<int>(rng.below(40));
        for (int i = 0; i < n; ++i) {
            const size_t len = 4 + rng.below(30);
            std::string bases, quals;
            for (size_t j = 0; j < len; ++j) {
                bases += "ACGT"[rng.below(4)];
                quals += static_cast<char>('!' + rng.below(40));
            }
            const std::string eol = rng.below(4) == 0 ? "\r\n" : "\n";
            switch (rng.below(8)) {
            case 0: // bad separator: framing slips, resync needed
                text += "@r" + std::to_string(i) + eol + bases + eol +
                        "oops" + eol + quals + eol;
                break;
            case 1: // length mismatch
                text += "@r" + std::to_string(i) + eol + bases + eol +
                        "+" + eol + quals + "JJ" + eol;
                break;
            case 2: // stray garbage between records
                text += "not a header" + eol;
                break;
            default:
                text += "@r" + std::to_string(i) + eol + bases + eol +
                        "+" + eol + quals + eol;
            }
        }
        if (rng.below(3) == 0 && !text.empty())
            text.pop_back(); // missing final newline

        ReaderOptions opts;
        opts.maxMalformed = 1000;
        std::istringstream whole(text);
        ReaderStats whole_stats;
        const auto all = readFastq(whole, opts, &whole_stats);
        ASSERT_TRUE(all.ok()) << all.status().str();

        for (const u64 batch_size : {u64{1}, u64{2}, u64{7}}) {
            std::istringstream in(text);
            FastqReader reader(in, opts);
            std::vector<FastqRecord> got;
            for (;;) {
                auto batch = reader.nextBatch(batch_size);
                ASSERT_TRUE(batch.ok()) << batch.status().str();
                if (batch->empty())
                    break;
                ASSERT_LE(batch->size(), batch_size);
                for (auto &rec : *batch)
                    got.push_back(std::move(rec));
            }
            ASSERT_EQ(got.size(), all->size())
                << "round=" << round << " batch=" << batch_size;
            for (size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].name, (*all)[i].name);
                ASSERT_EQ(got[i].seq, (*all)[i].seq);
                ASSERT_EQ(got[i].qual, (*all)[i].qual);
            }
            EXPECT_EQ(reader.stats().records, whole_stats.records);
            EXPECT_EQ(reader.stats().malformed, whole_stats.malformed);
        }
    }
}

TEST(Chaos, StreamingPipelineMatchesLoadAllUnderFaultStorm)
{
    // The streaming pipeline replays an armed fault plan to the very
    // same SAM bytes and ledger as the load-all path, at any batch
    // size: admission, seeding and lane fault sites must see the
    // same per-read keys and per-site ordinals either way.
    const auto w = chaosWorkload(8806, 48);
    const auto opts = chaosOptions();

    std::ostringstream fastq_text;
    ASSERT_TRUE(writeFastq(fastq_text, w.reads).ok());
    const std::string fastq = fastq_text.str();

    std::string base_sam;
    PipelineResult base_res;
    {
        ScopedFaultPlan plan({
            {fault::kLaneIssue, {.probability = 0.1, .seed = 1}},
            {fault::kCamOverflow, {.probability = 0.2, .seed = 3}},
            {fault::kPipelineRead, {.probability = 0.1, .seed = 4}},
        });
        std::ostringstream sam;
        const auto res = alignToSam(w.ref, w.reads, sam, opts);
        ASSERT_TRUE(res.ok());
        base_sam = sam.str();
        base_res = *res;
    }

    for (const u64 batch : {u64{5}, u64{1000}}) {
        ScopedFaultPlan plan({
            {fault::kLaneIssue, {.probability = 0.1, .seed = 1}},
            {fault::kCamOverflow, {.probability = 0.2, .seed = 3}},
            {fault::kPipelineRead, {.probability = 0.1, .seed = 4}},
        });
        std::istringstream in(fastq);
        FastqReader reader(in);
        std::ostringstream sam;
        auto sopts = opts;
        sopts.batchReads = batch;
        const auto res = alignStreamToSam(w.ref, reader, sam, sopts);
        ASSERT_TRUE(res.ok()) << res.status().str();
        EXPECT_EQ(sam.str(), base_sam) << "batch=" << batch;
        EXPECT_EQ(res->mapped, base_res.mapped);
        EXPECT_EQ(res->unmapped, base_res.unmapped);
        EXPECT_EQ(res->degraded, base_res.degraded);
        EXPECT_EQ(res->failed, base_res.failed);
        EXPECT_EQ(res->reads, base_res.reads);
    }
}

} // namespace
} // namespace genax

/**
 * @file
 * Model-equivalence pins for the event-driven accelerator model: the
 * seeding-lane simulator's and the traceback machine's event paths
 * must be bit-identical to their lock-step oracles, and the
 * end-to-end modelled numbers must be invariant to every
 * host-execution knob (threads, batch size). The oracle and the
 * production path are both always compiled, and this file diffs them
 * directly; the golden pins hold results recorded from the oracles,
 * so a later bug that both paths share still fails. The structural
 * edit and scoring machines have one implementation each, pinned
 * here by golden results. test_seeding_sim runs each of its
 * assertions on both seeding-lane paths.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "align/simd/dispatch.hh"
#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/rng.hh"
#include "extension_jobs.hh"
#include "genax/pipeline.hh"
#include "genax/seeding_sim.hh"
#include "genax/system.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "seed/index_snapshot.hh"
#include "seed/seed_index.hh"
#include "seed/smem_engine.hh"
#include "silla/silla_traceback.hh"
#include "sillax/edit_machine.hh"
#include "sillax/scoring_machine.hh"

namespace genax {
namespace {

// ------------------------------------------ seeding lane simulator

void
expectSimEqual(const SeedingSimConfig &cfg,
               const std::vector<LaneWork> &work, const char *what)
{
    const SeedingLaneSim sim(cfg);
    const auto naive = sim.simulateNaive(work);
    const auto event = sim.simulateEvent(work);
    EXPECT_EQ(naive.cycles, event.cycles)
        << what << " lanes=" << cfg.lanes << " banks=" << cfg.banks
        << " width=" << cfg.issueWidth << " lat=" << cfg.sramLatency;
    EXPECT_EQ(naive.grants, event.grants) << what;
    EXPECT_EQ(naive.bankConflicts, event.bankConflicts) << what;
}

std::vector<LaneWork>
randomWork(Rng &rng, u64 reads, u64 max_lookups, u64 max_cam)
{
    std::vector<LaneWork> work(reads);
    for (auto &w : work) {
        // Leave a healthy share of degenerate reads in the mix:
        // zero-lookup (CAM only), zero-CAM, and fully empty reads
        // exercise the event paths that skip issue cycles entirely.
        const u64 shape = rng.below(10);
        w.indexLookups = shape < 2 ? 0 : rng.below(max_lookups + 1);
        w.camOps = shape == 2 ? 0 : rng.below(max_cam + 1);
    }
    return work;
}

TEST(ModelEquiv, SeedingSimEventMatchesNaiveAcrossConfigs)
{
    Rng rng(9001);
    for (const u32 lanes : {1u, 3u, 8u, 128u}) {
        for (const u32 banks : {1u, 2u, 32u}) {
            for (const u32 width : {1u, 4u}) {
                SeedingSimConfig cfg;
                cfg.lanes = lanes;
                cfg.banks = banks;
                cfg.issueWidth = width;
                cfg.sramLatency = 1 + static_cast<u32>(rng.below(4));
                cfg.seed = 1 + rng.below(1000);
                const auto work =
                    randomWork(rng, 2 * lanes + 7, 60, 40);
                expectSimEqual(cfg, work, "config sweep");
            }
        }
    }
}

TEST(ModelEquiv, SeedingSimDegenerateWorkloads)
{
    SeedingSimConfig cfg;
    cfg.lanes = 8;
    cfg.banks = 2;

    expectSimEqual(cfg, {}, "empty work list");
    expectSimEqual(cfg, std::vector<LaneWork>(20, LaneWork{0, 0}),
                   "all-empty reads");
    expectSimEqual(cfg, std::vector<LaneWork>(20, LaneWork{0, 13}),
                   "CAM-only reads");
    expectSimEqual(cfg, std::vector<LaneWork>(20, LaneWork{17, 0}),
                   "lookup-only reads");
    expectSimEqual(cfg, {{1, 0}}, "single one-lookup read");

    // Fewer reads than lanes: some lanes never work at all.
    cfg.lanes = 128;
    expectSimEqual(cfg, {{5, 3}, {0, 0}, {9, 1}},
                   "mostly idle lane array");
}

TEST(ModelEquiv, SeedingSimHeavyContention)
{
    // Long runs through a single bank maximize the stretches the
    // event path must collapse to closed form while every issue
    // attempt conflicts.
    SeedingSimConfig cfg;
    cfg.lanes = 16;
    cfg.banks = 1;
    cfg.issueWidth = 4;
    Rng rng(424);
    expectSimEqual(cfg, randomWork(rng, 64, 120, 20),
                   "single-bank contention");

    cfg.banks = 32;
    cfg.lanes = 128;
    expectSimEqual(cfg, randomWork(rng, 300, 80, 60),
                   "full-array contention");
}

TEST(ModelEquiv, SeedingSimSeedSensitivity)
{
    // Identical config + work + seed must replay exactly; a
    // different seed draws a different bank-address stream. (The
    // second half is a sanity check that the pin is not vacuous.)
    SeedingSimConfig cfg;
    cfg.lanes = 32;
    cfg.banks = 4;
    Rng rng(77);
    const auto work = randomWork(rng, 100, 50, 30);

    for (const u64 seed : {1ull, 2ull, 999ull}) {
        cfg.seed = seed;
        expectSimEqual(cfg, work, "seed sweep");
    }

    cfg.seed = 1;
    const auto a = SeedingLaneSim(cfg).simulateEvent(work);
    cfg.seed = 2;
    const auto b = SeedingLaneSim(cfg).simulateEvent(work);
    EXPECT_NE(a.bankConflicts, b.bankConflicts)
        << "different bank-address streams should conflict "
           "differently";
}

// ---------------------------------------------- extension machines

Seq
randomSeq(Rng &rng, size_t len)
{
    Seq s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(4)));
    return s;
}

/** Mutate `qry` in place with `edits` random substitutions and
 *  occasional single-base indels — enough path diversity to exercise
 *  gap adoptions and broken-trail reruns in the traceback machine. */
void
mutate(Rng &rng, Seq &qry, unsigned edits)
{
    for (unsigned e = 0; e < edits && !qry.empty(); ++e) {
        const auto pos = static_cast<std::ptrdiff_t>(
            rng.below(qry.size()));
        switch (rng.below(6)) {
          case 0:
            qry.erase(qry.begin() + pos);
            break;
          case 1:
            qry.insert(qry.begin() + pos,
                       static_cast<Base>(rng.below(4)));
            break;
          default:
            qry[static_cast<size_t>(pos)] = static_cast<Base>(
                (qry[static_cast<size_t>(pos)] + 1 + rng.below(3)) & 3);
            break;
        }
    }
}

void
expectSameAlignment(const SillaAlignment &a, const SillaAlignment &b,
                    const std::string &what)
{
    EXPECT_EQ(a.score, b.score) << what;
    EXPECT_EQ(a.refEnd, b.refEnd) << what;
    EXPECT_EQ(a.qryEnd, b.qryEnd) << what;
    EXPECT_EQ(a.cigar.str(), b.cigar.str()) << what;
    EXPECT_EQ(a.stats.streamCycles, b.stats.streamCycles) << what;
    EXPECT_EQ(a.stats.reduceCycles, b.stats.reduceCycles) << what;
    EXPECT_EQ(a.stats.collectCycles, b.stats.collectCycles) << what;
    EXPECT_EQ(a.stats.reruns, b.stats.reruns) << what;
    EXPECT_EQ(a.stats.rerunCycles, b.stats.rerunCycles) << what;
}

TEST(ModelEquiv, TracebackEventMatchesNaiveAcrossJobs)
{
    // The region sweep must reproduce the full-grid oracle
    // bit-for-bit — scores, CIGARs and the modelled cycle / rerun
    // accounting — across edit bounds and job sizes, including clean
    // reads (a small region) and heavily edited ones (a region up to
    // the whole array).
    Rng rng(2468);
    for (const u32 k : {8u, 16u, 40u}) {
        SillaTraceback naive_m(k, Scoring{}), event_m(k, Scoring{});
        for (const size_t len : {size_t{24}, size_t{101}, size_t{150}}) {
            for (const unsigned edits : {0u, 1u, 3u, 9u}) {
                for (int t = 0; t < 4; ++t) {
                    const Seq ref = randomSeq(rng, len);
                    Seq qry = ref;
                    mutate(rng, qry, edits);
                    expectSameAlignment(
                        naive_m.alignNaive(ref, qry),
                        event_m.alignEvent(ref, qry),
                        "k=" + std::to_string(k) +
                            " len=" + std::to_string(len) +
                            " edits=" + std::to_string(edits));
                }
            }
        }
    }
}

/** RerunStatisticsAreBounded's (test_silla) mutation mix: equal odds
 *  of substitution, insertion and deletion. Its 101 bp pairs at up to
 *  four edits are the rerun-heavy set. */
Seq
mutateEvenly(Rng &rng, const Seq &s, unsigned edits)
{
    Seq out = s;
    for (unsigned e = 0; e < edits && !out.empty(); ++e) {
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

constexpr u64 kFnvBasis = 0xcbf29ce484222325ULL;

/** One FNV-1a step. */
void
hashByte(u64 &h, u8 b)
{
    h ^= b;
    h *= 0x100000001b3ULL;
}

/** FNV-1a over the eight bytes of v, low byte first. */
void
hashWord(u64 &h, u64 v)
{
    for (int b = 0; b < 8; ++b)
        hashByte(h, static_cast<u8>(v >> (8 * b)));
}

/** FNV-1a over every result field of an alignment: score, both ends,
 *  the CIGAR string and all five SillaTraceStats fields. */
void
hashAlignment(u64 &h, const SillaAlignment &a)
{
    hashWord(h, static_cast<u64>(static_cast<i64>(a.score)));
    hashWord(h, a.refEnd);
    hashWord(h, a.qryEnd);
    const std::string cigar = a.cigar.str();
    hashWord(h, cigar.size());
    for (const char ch : cigar)
        hashByte(h, static_cast<u8>(ch));
    hashWord(h, a.stats.streamCycles);
    hashWord(h, a.stats.reduceCycles);
    hashWord(h, a.stats.collectCycles);
    hashWord(h, a.stats.reruns);
    hashWord(h, a.stats.rerunCycles);
}

/** FNV-1a over a scoring-machine run — every SillaScoreResult field —
 *  and the value and cycle count of the back-propagation after it. */
void
hashScoringRun(u64 &h, StructuralScoringMachine &m, const Seq &ref,
               const Seq &qry)
{
    const SillaScoreResult r = m.run(ref, qry);
    hashWord(h, static_cast<u64>(static_cast<i64>(r.best)));
    hashWord(h, r.winnerI);
    hashWord(h, r.winnerD);
    hashWord(h, r.bestCycle);
    hashWord(h, r.refEnd);
    hashWord(h, r.qryEnd);
    hashWord(h, r.streamCycles);
    const auto [best, cycles] = m.backPropagateBest();
    EXPECT_EQ(best, r.best);
    hashWord(h, static_cast<u64>(static_cast<i64>(best)));
    hashWord(h, cycles);
}

TEST(ModelEquiv, TracebackGoldenResults)
{
    // alignNaive and alignEvent share their sweep and collection
    // code, so diffing one against the other cannot catch a bug they
    // both carry. This pins both against results recorded with the
    // per-PE adoption vectors and the escalating square subgrid. The
    // heavily edited pairs and the two schemes whose mismatch costs
    // more than an insertion plus a deletion make both gap lanes beat
    // the diagonal at once, so the Ins/Del precedence of the recorded
    // pointer is on the winning path.
    std::vector<std::pair<Seq, Seq>> jobs;
    Rng rng(1357911);
    for (const size_t len : {size_t{24}, size_t{101}, size_t{150}}) {
        for (const unsigned edits : {0u, 1u, 3u, 9u}) {
            for (int t = 0; t < 2; ++t) {
                Seq ref = randomSeq(rng, len);
                Seq qry = ref;
                mutate(rng, qry, edits);
                jobs.emplace_back(std::move(ref), std::move(qry));
            }
        }
    }
    Rng rerun_rng(502);
    for (int t = 0; t < 48; ++t) {
        Seq ref = randomSeq(rerun_rng, 101);
        Seq qry = mutateEvenly(rerun_rng, ref,
                               static_cast<unsigned>(rerun_rng.below(5)));
        jobs.emplace_back(std::move(ref), std::move(qry));
    }
    Rng heavy_rng(97);
    for (int t = 0; t < 96; ++t) {
        Seq ref = randomSeq(heavy_rng, 60 + heavy_rng.below(100));
        Seq qry = mutateEvenly(heavy_rng, ref,
                               static_cast<unsigned>(heavy_rng.below(28)));
        jobs.emplace_back(std::move(ref), std::move(qry));
    }
    for (auto &job : testing::makeExtensionJobs(
             testing::JobWorkload::DivergentRepeats, 5, 48))
        jobs.emplace_back(std::move(job.ref), std::move(job.qry));

    u64 naive_hash = kFnvBasis;
    u64 event_hash = naive_hash;
    u64 with_rerun = 0;
    for (const Scoring &sc : {Scoring{}, Scoring{2, 3, 5, 2},
                              Scoring{1, 19, 1, 1}, Scoring{1, 9, 2, 1}}) {
        for (const u32 k : {8u, 16u, 40u}) {
            SillaTraceback m(k, sc);
            for (const auto &[ref, qry] : jobs) {
                const SillaAlignment naive = m.alignNaive(ref, qry);
                hashAlignment(naive_hash, naive);
                hashAlignment(event_hash, m.alignEvent(ref, qry));
                with_rerun += naive.stats.reruns > 0;
            }
        }
    }
    EXPECT_GT(with_rerun, 0u) << "the golden set must exercise reruns";
    EXPECT_EQ(naive_hash, 0x9cce3656494e4656ULL) << std::hex << naive_hash;
    EXPECT_EQ(event_hash, 0x9cce3656494e4656ULL) << std::hex << event_hash;
}

TEST(ModelEquiv, ScoringMachineGoldenResults)
{
    // The structural scoring machine's results and modelled cycles,
    // back-propagation included, pinned over two job sets: random
    // substitutions and indels at k 8/16/40, and substitution-only
    // pairs at k 4/8/16.
    u64 mixed_hash = kFnvBasis;
    Rng rng(8642);
    for (const u32 k : {8u, 16u, 40u}) {
        StructuralScoringMachine m(k, Scoring{});
        for (int t = 0; t < 16; ++t) {
            const Seq ref = randomSeq(rng, 30 + rng.below(120));
            Seq qry = ref;
            mutate(rng, qry, static_cast<unsigned>(rng.below(10)));
            hashScoringRun(mixed_hash, m, ref, qry);
        }
    }
    u64 sub_hash = kFnvBasis;
    Rng sub_rng(1331);
    for (const u32 k : {4u, 8u, 16u}) {
        StructuralScoringMachine m(k, Scoring{});
        for (int t = 0; t < 20; ++t) {
            const Seq ref = randomSeq(sub_rng, 40 + sub_rng.below(80));
            Seq qry = ref;
            for (u64 e = sub_rng.below(8); e > 0 && !qry.empty(); --e)
                qry[sub_rng.below(qry.size())] =
                    static_cast<Base>(sub_rng.below(4));
            hashScoringRun(sub_hash, m, ref, qry);
        }
    }
    EXPECT_EQ(mixed_hash, 0x4bb091c92e82dd87ULL) << std::hex << mixed_hash;
    EXPECT_EQ(sub_hash, 0x7811822dce1924f1ULL) << std::hex << sub_hash;
}

TEST(ModelEquiv, EditMachineGoldenResults)
{
    // The structural edit machine's distances and run stats (cycles,
    // peak and total activations), pinned over pairs with up to k + 3
    // random edits at k 4/8/16/40, so both in-bound and out-of-bound
    // pairs are covered.
    u64 hash = kFnvBasis;
    u64 within = 0, total = 0;
    Rng rng(1357);
    for (const u32 k : {4u, 8u, 16u, 40u}) {
        StructuralEditMachine m(k);
        for (int t = 0; t < 24; ++t) {
            const Seq ref = randomSeq(rng, 20 + rng.below(130));
            Seq qry = ref;
            mutate(rng, qry, static_cast<unsigned>(rng.below(k + 4)));
            const std::optional<u32> d = m.distance(ref, qry);
            within += d.has_value();
            ++total;
            hashWord(hash, d ? *d : ~u64{0});
            const SillaRunStats &s = m.lastStats();
            hashWord(hash, s.cycles);
            hashWord(hash, s.peakActive);
            hashWord(hash, s.totalActivations);
        }
    }
    EXPECT_GT(within, 0u);
    EXPECT_LT(within, total);
    EXPECT_EQ(hash, 0xffb64e60524403bbULL) << std::hex << hash;
}

/** Runs fn(tier name) once per kernel tier of the traceback row sweep
 *  the host can execute (scalar always, AVX2 when compiled and
 *  present), with that tier forced. */
template <typename Fn>
void
forEachTracebackTier(Fn &&fn)
{
    namespace simd = genax::simd;
    struct TierGuard
    {
        ~TierGuard() { simd::clearKernelTierOverride(); }
    } guard;
    for (const auto tier : {simd::KernelTier::Scalar,
                            simd::KernelTier::Avx2}) {
        if (!simd::kernelTierSupported(tier))
            continue;
        GENAX_CHECK(simd::setKernelTier(tier).ok(),
                    "forcing tier must succeed");
        fn(std::string(simd::kernelTierName(tier)));
    }
}

TEST(ModelEquiv, TracebackEventMatchesNaiveOnGenAxJobs)
{
    // Jobs as GenAxSystem issues them on the divergent-repeats model:
    // clean and gapped extensions, hopeless ones (best score <= 0,
    // the empty extension wins) and jobs whose provable region
    // reaches the array edge K.
    const auto jobs = testing::makeExtensionJobs(
        testing::JobWorkload::DivergentRepeats, 6, 300);
    ASSERT_EQ(jobs.size(), 300u);
    const Scoring sc;
    const u32 k = GenAxConfig{}.editBound;

    u64 hopeless = 0, reaches_k = 0;
    forEachTracebackTier([&](const std::string &tier) {
        SillaTraceback naive_m(k, sc), event_m(k, sc);
        for (size_t j = 0; j < jobs.size(); ++j) {
            const auto &[ref, qry] = jobs[j];
            const SillaAlignment naive = naive_m.alignNaive(ref, qry);
            expectSameAlignment(naive, event_m.alignEvent(ref, qry),
                                tier + " job " + std::to_string(j));
            if (naive.score != 0)
                continue;
            // A best score <= 0 pins the lower bound at 0, so the
            // region reaches K where a PE at i = K or d = K can still
            // score 0.
            ++hopeless;
            const i64 n = static_cast<i64>(ref.size());
            const i64 m = static_cast<i64>(qry.size());
            const i64 gap_k = sc.gapOpen + i64{k} * sc.gapExtend;
            reaches_k += sc.match * std::min(n - k, m) >= gap_k ||
                         sc.match * std::min(n, m - k) >= gap_k;
        }
    });
    EXPECT_GT(hopeless, 0u) << "no job with best score <= 0";
    EXPECT_GT(reaches_k, 0u) << "no job whose region reaches K";
}

TEST(ModelEquiv, TracebackEventMatchesNaiveAcrossSchemes)
{
    // The region alignEvent sweeps depends on the scoring scheme and
    // on both lengths, so the pin crosses schemes with edit bounds
    // over the degenerate shapes: empty sides, jobs shorter than K,
    // queries longer than their reference, and reference windows
    // longer than the query by more than K.
    Rng rng(86420);
    std::vector<std::pair<Seq, Seq>> jobs = {
        {{}, {}}, {randomSeq(rng, 5), {}}, {{}, randomSeq(rng, 5)}};
    for (const size_t len : {size_t{1}, size_t{3}, size_t{7},
                             size_t{24}, size_t{101}}) {
        for (const unsigned edits : {0u, 2u, 5u, 12u}) {
            const Seq ref = randomSeq(rng, len);
            Seq qry = ref;
            mutate(rng, qry, edits);
            jobs.emplace_back(ref, qry);
            jobs.emplace_back(Seq(ref.begin(), ref.begin() +
                                                   static_cast<i64>(
                                                       len / 2)),
                              qry);
            Seq window = ref;
            const Seq tail = randomSeq(rng, 1 + rng.below(50));
            window.insert(window.end(), tail.begin(), tail.end());
            jobs.emplace_back(std::move(window), std::move(qry));
        }
    }

    const Scoring schemes[] = {Scoring{}, Scoring::unitEdit(),
                               Scoring{2, 3, 5, 2}, Scoring{0, 2, 3, 1},
                               Scoring{1, 1, 0, 1}};
    forEachTracebackTier([&](const std::string &tier) {
        for (const Scoring &sc : schemes) {
            for (const u32 k : {1u, 2u, 5u, 16u, 40u}) {
                SillaTraceback naive_m(k, sc), event_m(k, sc);
                for (size_t j = 0; j < jobs.size(); ++j) {
                    const auto &[ref, qry] = jobs[j];
                    expectSameAlignment(
                        naive_m.alignNaive(ref, qry),
                        event_m.alignEvent(ref, qry),
                        tier + " scheme {" + std::to_string(sc.match) +
                            "," + std::to_string(sc.mismatch) + "," +
                            std::to_string(sc.gapOpen) + "," +
                            std::to_string(sc.gapExtend) +
                            "} k=" + std::to_string(k) + " job " +
                            std::to_string(j));
                }
            }
        }
    });
}

TEST(ModelEquiv, KernelTierSweepAvx2MatchesScalar)
{
    // The traceback machine's AVX2 row kernel must be bit-identical
    // to the scalar reference through the public machine — forced-tier
    // runs of the event path are diffed field by field. Skipped (not
    // silently passed) when the host or build cannot run AVX2.
    namespace simd = genax::simd;
    if (!simd::kernelTierSupported(simd::KernelTier::Avx2))
        GTEST_SKIP() << "AVX2 tier not compiled or not supported here";
    struct TierGuard
    {
        ~TierGuard() { simd::clearKernelTierOverride(); }
    } guard;

    Rng rng(97531);
    std::vector<std::pair<Seq, Seq>> jobs;
    for (int t = 0; t < 12; ++t) {
        Seq ref = randomSeq(rng, 40 + rng.below(110));
        Seq qry = ref;
        mutate(rng, qry, static_cast<unsigned>(rng.below(8)));
        jobs.emplace_back(std::move(ref), std::move(qry));
    }

    auto run_tier = [&](simd::KernelTier tier) {
        GENAX_CHECK(simd::setKernelTier(tier).ok(),
                    "forcing tier must succeed");
        std::vector<SillaAlignment> aligns;
        SillaTraceback trace_m(40, Scoring{});
        for (const auto &[ref, qry] : jobs)
            aligns.push_back(trace_m.alignEvent(ref, qry));
        return aligns;
    };

    const auto scalar = run_tier(simd::KernelTier::Scalar);
    const auto avx2 = run_tier(simd::KernelTier::Avx2);
    for (size_t j = 0; j < jobs.size(); ++j)
        expectSameAlignment(scalar[j], avx2[j],
                            "job " + std::to_string(j));
}

// ------------------------------------------- end-to-end invariance

struct Workload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads;
};

Workload
makeWorkload()
{
    RefGenConfig rcfg;
    rcfg.length = 24000;
    rcfg.seed = 4321;
    const Seq ref = generateReference(rcfg);

    ReadSimConfig rs;
    rs.numReads = 90;
    rs.seed = 8765;
    const auto sim = simulateReads(ref, rs);

    Workload w;
    w.ref.resize(1);
    w.ref[0].name = "equiv_ref";
    w.ref[0].seq = ref;
    w.reads.resize(sim.size());
    for (size_t i = 0; i < sim.size(); ++i) {
        w.reads[i].name = "r" + std::to_string(i);
        w.reads[i].seq = sim[i].seq;
        w.reads[i].qual = sim[i].qual;
    }
    return w;
}

struct RunOutput
{
    std::string sam;
    PipelineResult res;
};

RunOutput
runPipeline(const Workload &w, unsigned threads, u64 batch_reads)
{
    PipelineOptions opts;
    opts.engine = PipelineOptions::Engine::GenAx;
    opts.segments = 5;
    opts.threads = threads;
    opts.batchReads = batch_reads;

    std::ostringstream sink;
    const auto res = [&]() -> StatusOr<PipelineResult> {
        if (batch_reads > 0) {
            std::ostringstream fastq;
            GENAX_TRY(writeFastq(fastq, w.reads));
            std::istringstream in(fastq.str());
            FastqReader reader(in);
            return alignStreamToSam(w.ref, reader, sink, opts);
        }
        return alignToSam(w.ref, w.reads, sink, opts);
    }();
    EXPECT_TRUE(res.ok()) << res.status().str();
    return {sink.str(), res.ok() ? *res : PipelineResult{}};
}

void
expectSameModel(const RunOutput &a, const RunOutput &b,
                const std::string &what)
{
    EXPECT_EQ(a.sam, b.sam) << what;
    EXPECT_EQ(a.res.mapped, b.res.mapped) << what;
    EXPECT_EQ(a.res.degraded, b.res.degraded) << what;
    // The modelled report must be bit-identical — the doubles are
    // derived from slot-ordered u64 sums, so exact equality is the
    // contract, not a tolerance.
    EXPECT_EQ(a.res.perf.seedingSeconds, b.res.perf.seedingSeconds)
        << what;
    EXPECT_EQ(a.res.perf.extensionSeconds, b.res.perf.extensionSeconds)
        << what;
    EXPECT_EQ(a.res.perf.dramSeconds, b.res.perf.dramSeconds) << what;
    EXPECT_EQ(a.res.perf.totalSeconds, b.res.perf.totalSeconds) << what;
    EXPECT_EQ(a.res.perf.seeding.indexLookups,
              b.res.perf.seeding.indexLookups)
        << what;
    EXPECT_EQ(a.res.perf.lanes.streamCycles,
              b.res.perf.lanes.streamCycles)
        << what;
}

TEST(ModelEquiv, PipelineInvariantToThreadsAndBatch)
{
    const Workload w = makeWorkload();
    const RunOutput base = runPipeline(w, 1, 0);
    EXPECT_GT(base.res.mapped, 0u);
    for (const unsigned threads : {1u, 8u}) {
        for (const u64 batch : {u64{7}, u64{64}}) {
            const RunOutput run = runPipeline(w, threads, batch);
            expectSameModel(base, run,
                            "threads=" + std::to_string(threads) +
                                " batch=" + std::to_string(batch));
        }
    }
}

TEST(ModelEquiv, PipelineInvariantUnderArmedFaults)
{
    // With seeding-phase (CAM overflow) and extension-phase (lane
    // issue) faults armed, the keyed fault scopes must make every
    // firing decision a pure function of (segment, read) — so the SAM
    // bytes, outcome ledger and modelled report stay identical at any
    // threads × batch combination even while faults bite. One scope
    // per (read, segment) covers both the seeding and the extension
    // site, whose per-site ordinals do not interact.
    const Workload w = makeWorkload();
    FaultSpec lane;
    lane.probability = 0.25;
    lane.seed = 99;
    FaultSpec cam;
    cam.probability = 0.15;
    cam.seed = 7;
    ScopedFaultPlan plan{{fault::kLaneIssue, lane},
                         {fault::kCamOverflow, cam}};

    const RunOutput base = runPipeline(w, 1, 0);
    EXPECT_GT(FaultInjector::instance().fires(fault::kLaneIssue), 0u)
        << "fault plan never bit; the sweep would be vacuous";
    for (const unsigned threads : {1u, 8u}) {
        for (const u64 batch : {u64{7}, u64{64}}) {
            const RunOutput run = runPipeline(w, threads, batch);
            expectSameModel(base, run,
                            "faults armed, threads=" +
                                std::to_string(threads) +
                                " batch=" + std::to_string(batch));
        }
    }
}

TEST(ModelEquiv, SimulatedSeedingLanesInvariantToThreads)
{
    // With simulateSeedingLanes on, streamEnd() shards the
    // per-segment lane simulations across the worker pool; each
    // simulation is a pure function of (segment seed, work list), so
    // the modelled cycles must not depend on the shard layout.
    RefGenConfig rcfg;
    rcfg.length = 60000;
    rcfg.seed = 31;
    const Seq ref = generateReference(rcfg);
    ReadSimConfig rs;
    rs.numReads = 80;
    rs.seed = 32;
    const auto sim_reads = simulateReads(ref, rs);
    std::vector<Seq> reads;
    for (const auto &r : sim_reads)
        reads.push_back(r.seq);

    GenAxConfig cfg;
    cfg.segmentCount = 6;
    cfg.simulateSeedingLanes = true;

    GenAxPerf base;
    std::vector<Mapping> base_maps;
    for (const unsigned threads : {1u, 8u, 0u}) {
        cfg.threads = threads;
        GenAxSystem sys(ref, cfg);
        const auto maps = sys.alignAll(reads);
        if (threads == 1) {
            base = sys.perf();
            base_maps = maps;
            EXPECT_GT(base.seedingSeconds, 0.0);
            continue;
        }
        const std::string what = "threads=" + std::to_string(threads);
        EXPECT_EQ(sys.perf().seedingSeconds, base.seedingSeconds)
            << what;
        EXPECT_EQ(sys.perf().totalSeconds, base.totalSeconds) << what;
        ASSERT_EQ(maps.size(), base_maps.size());
        for (size_t i = 0; i < maps.size(); ++i) {
            EXPECT_EQ(maps[i].pos, base_maps[i].pos) << what;
            EXPECT_EQ(maps[i].score, base_maps[i].score) << what;
        }
    }
}

TEST(ModelEquiv, SimulatedSeedingLanesGolden)
{
    // perf().seedingSeconds is the only place the simulated lane
    // cycles surface. These bits were recorded with simulate() on the
    // lock-step oracle and on the event path, which agreed, so they
    // pin the model's specification rather than either path.
    struct Run
    {
        u64 length;
        double repeatFraction;
        u64 segments, k, editBound, overlap, reads;
        u64 seedingBits;
    };
    const Run runs[] = {
        {150000, 0.05, 4, 10, 16, 160, 120, 0x3ee45f29fe788dd3ULL},
        {u64{1} << 20, 0.30, 8, 12, 40, 256, 200, 0x3efbe30a7bd9eb18ULL},
        {u64{1} << 20, 0.05, 512, 12, 40, 256, 200, 0x3f47610dbf8ed455ULL},
    };
    for (const Run &run : runs) {
        RefGenConfig rcfg;
        rcfg.length = run.length;
        rcfg.repeatFraction = run.repeatFraction;
        const Seq ref = generateReference(rcfg);
        ReadSimConfig rs;
        rs.numReads = run.reads;
        std::vector<Seq> reads;
        for (const auto &r : simulateReads(ref, rs))
            reads.push_back(r.seq);

        GenAxConfig cfg;
        cfg.k = static_cast<u32>(run.k);
        cfg.editBound = static_cast<u32>(run.editBound);
        cfg.segmentCount = run.segments;
        cfg.segmentOverlap = run.overlap;
        cfg.simulateSeedingLanes = true;
        GenAxSystem sys(ref, cfg);
        sys.alignAll(reads);
        const double seconds = sys.perf().seedingSeconds;
        u64 bits = 0;
        std::memcpy(&bits, &seconds, sizeof(bits));
        EXPECT_EQ(bits, run.seedingBits)
            << "length=" << run.length << " segments=" << run.segments
            << " got " << std::hex << bits;
    }
}


// ------------------------------------------------------ SMEM seeding

/** FNV-1a over the little-endian bytes of one 64-bit word. */
void
fnvWord(u64 &h, u64 v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= static_cast<u8>(v >> (8 * b));
        h *= 0x100000001b3ULL;
    }
}

/** Every SMEM's interval and hit positions, then the engine's
 *  accumulated counters. */
void
hashSeeding(u64 &h, const std::vector<Smem> &smems)
{
    fnvWord(h, smems.size());
    for (const Smem &s : smems) {
        fnvWord(h, s.qryBegin);
        fnvWord(h, s.qryEnd);
        fnvWord(h, s.positions.size());
        for (const u32 p : s.positions)
            fnvWord(h, p);
    }
}

void
hashSeedingStats(u64 &h, const SeedingStats &st)
{
    for (const u64 v : {st.reads, st.exactMatchReads, st.indexLookups,
                        st.smems, st.hitsReported, st.cam.loads,
                        st.cam.searches, st.cam.binarySteps,
                        st.cam.overflowFallbacks})
        fnvWord(h, v);
}

TEST(ModelEquiv, SegmentedSeedingGolden)
{
    // SMEM seeding as both engines run it: GenAx over the 8 segment
    // views of a snapshot, the software engine over one
    // whole-reference index. The hashes were recorded before the
    // index gained its presence filter and seeding its resolve pass,
    // so they pin every SMEM, hit position, lookup and CAM count to
    // the plain table-probing path.
    RefGenConfig rcfg;
    rcfg.length = u64{1} << 20;
    rcfg.repeatFraction = 0.30;
    rcfg.seed = 71;
    const Seq ref = generateReference(rcfg);
    ReadSimConfig rs;
    rs.numReads = 300;
    rs.seed = 72;
    rs.baseErrorRate = 0.02;
    rs.readIndelRate = 0.001;
    rs.snpRate = 0.005;
    std::vector<Seq> oriented;
    for (const SimRead &r : simulateReads(ref, rs)) {
        oriented.push_back(r.seq);
        oriented.push_back(reverseComplement(r.seq));
    }

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "genax_seeding_golden";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "ref.gxs").string();
    SegmentConfig scfg;
    scfg.k = 12;
    scfg.segmentCount = 8;
    scfg.overlap = 256;
    ASSERT_TRUE(
        IndexSnapshot::build(path, ref, {{"chr1", 0, ref.size()}}, scfg)
            .ok());
    auto snap = IndexSnapshot::open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().str();

    // Both engines' seeding settings, plus a small CAM and a low
    // probe threshold so the overflow fallback and the probing of
    // lower strides run on this workload too.
    const SeedingConfig gx = GenAxConfig{}.seeding;
    SeedingConfig small_cam = gx;
    small_cam.camSize = 2;
    small_cam.probeThreshold = 2;
    const auto seed_all = [&](const FlatKmerIndex &index,
                              const SeedingConfig &cfg, u64 &h) {
        SmemEngine engine(index, cfg);
        for (const Seq &o : oriented)
            hashSeeding(h, engine.seed(o));
        hashSeedingStats(h, engine.stats());
        return engine.stats();
    };

    u64 seg_hash = 0xcbf29ce484222325ULL;
    u64 exact_reads = 0;
    for (u64 seg = 0; seg < snap->segmentCount(); ++seg)
        exact_reads +=
            seed_all(snap->segmentView(seg), gx, seg_hash).exactMatchReads;
    std::filesystem::remove_all(dir);

    const SeedIndex whole(ref, 12);
    u64 whole_hash = 0xcbf29ce484222325ULL;
    const SeedingStats st = seed_all(whole, gx, whole_hash);
    const SeedingStats small = seed_all(whole, small_cam, whole_hash);

    // The workload must reach the exact-match shortcut, the full SMEM
    // search and the CAM overflow fallback.
    EXPECT_GT(exact_reads, 0u);
    EXPECT_LT(st.exactMatchReads, oriented.size());
    EXPECT_GT(small.cam.overflowFallbacks, 0u);
    EXPECT_EQ(seg_hash, 0xed26733d18bd7399ULL) << std::hex << seg_hash;
    EXPECT_EQ(whole_hash, 0x7e8c18835876e3ecULL) << std::hex << whole_hash;
}

// ------------------------------------------- GenAx end to end

/** FNV-1a over a run's SAM text, its outcome ledger and every field
 *  of its GenAxPerf, the modelled doubles by their bits. */
u64
hashGenAxRun(const std::string &sam, const PipelineResult &res)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const char c : sam) {
        h ^= static_cast<u8>(c);
        h *= 0x100000001b3ULL;
    }
    const GenAxPerf &p = res.perf;
    for (const u64 v :
         {res.reads, res.mapped, res.unmapped, res.degraded, res.failed,
          p.reads, p.segments, p.extensionJobs, p.exactReads,
          p.degradedJobs, p.laneFaults, p.dramFaults, p.lanes.jobs,
          p.lanes.streamCycles, p.lanes.reduceCycles,
          p.lanes.collectCycles, p.lanes.rerunCycles,
          p.lanes.jobsWithRerun, p.lanes.reruns, p.lanes.issueFaults})
        fnvWord(h, v);
    for (const double d : {p.seedingSeconds, p.extensionSeconds,
                           p.dramSeconds, p.totalSeconds}) {
        u64 bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        fnvWord(h, bits);
    }
    hashSeedingStats(h, p.seeding);
    return h;
}

TEST(ModelEquiv, GenAxEndToEndGolden)
{
    // The GenAx engine end to end on a repeat-rich reference: SAM,
    // ledger and modelled report at threads × batch × snapshot, and
    // once with the CAM-overflow and lane-issue faults armed. The
    // hashes were recorded while every segment still had its own
    // k-mer index, so they pin seeding through windows of one index
    // to the per-segment answers.
    RefGenConfig rcfg;
    rcfg.length = 256 * 1024;
    rcfg.repeatFraction = 0.30;
    rcfg.seed = 91;
    ReadSimConfig rs;
    rs.numReads = 240;
    rs.seed = 92;
    rs.baseErrorRate = 0.02;
    rs.readIndelRate = 0.001;
    rs.snpRate = 0.005;
    Workload w;
    w.ref.push_back({"chr1", generateReference(rcfg)});
    for (const SimRead &r : simulateReads(w.ref[0].seq, rs))
        w.reads.push_back(
            {"r" + std::to_string(w.reads.size()), r.seq, r.qual});

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "genax_e2e_golden";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string snap = (dir / "ref.gxs").string();
    SegmentConfig scfg;
    scfg.k = 12;
    scfg.segmentCount = 8;
    scfg.overlap = 256;
    ASSERT_TRUE(IndexSnapshot::build(snap, w.ref[0].seq,
                                     {{"chr1", 0, w.ref[0].seq.size()}},
                                     scfg)
                    .ok());

    const auto run = [&](unsigned threads, u64 batch, bool with_snap) {
        PipelineOptions opts;
        opts.engine = PipelineOptions::Engine::GenAx;
        opts.k = 12;
        opts.segments = 8;
        opts.segmentOverlap = 256;
        opts.threads = threads;
        opts.batchReads = batch;
        if (with_snap)
            opts.indexSnapshot = snap;
        std::ostringstream sam;
        StatusOr<PipelineResult> res = PipelineResult{};
        if (batch > 0) {
            std::ostringstream fastq;
            EXPECT_TRUE(writeFastq(fastq, w.reads).ok());
            std::istringstream in(fastq.str());
            FastqReader reader(in);
            res = alignStreamToSam(w.ref, reader, sam, opts);
        } else {
            res = alignToSam(w.ref, w.reads, sam, opts);
        }
        EXPECT_TRUE(res.ok()) << res.status().str();
        EXPECT_EQ(res.ok() && res->indexFromSnapshot, with_snap);
        return res.ok() ? hashGenAxRun(sam.str(), *res) : u64{0};
    };

    for (const unsigned threads : {1u, 4u})
        for (const u64 batch : {u64{0}, u64{7}})
            for (const bool with_snap : {false, true}) {
                const u64 h = run(threads, batch, with_snap);
                EXPECT_EQ(h, 0x9194083bf78a7020ULL)
                    << "threads " << threads << " batch " << batch
                    << " snapshot " << with_snap << ": " << std::hex << h;
            }

    FaultSpec lane;
    lane.probability = 0.2;
    lane.seed = 93;
    FaultSpec cam;
    cam.probability = 0.1;
    cam.seed = 94;
    const ScopedFaultPlan plan{{fault::kLaneIssue, lane},
                               {fault::kCamOverflow, cam}};
    const u64 faulted = run(4, 7, true);
    EXPECT_GT(FaultInjector::instance().fires(fault::kLaneIssue), 0u);
    EXPECT_GT(FaultInjector::instance().fires(fault::kCamOverflow), 0u);
    EXPECT_EQ(faulted, 0x9cc94f9d1745651cULL) << std::hex << faulted;
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace genax

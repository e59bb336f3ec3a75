/**
 * @file
 * Tests for the GenAx system model: DRAM streaming, end-to-end
 * alignment accuracy, concordance with the software baseline
 * (mirroring the paper's BWA-MEM validation), and the Table II
 * area/power generator.
 */

#include <gtest/gtest.h>

#include <memory>

#include "genax/dram_model.hh"
#include "genax/system.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "swbase/bwamem_like.hh"
#include "swbase/paired.hh"

namespace genax {
namespace {

// --------------------------------------------------------------- DRAM

TEST(DramModel, BandwidthAndStreamTime)
{
    DramModel dram; // 8 x 19.2 GB/s, 85% efficient
    EXPECT_NEAR(dram.bandwidthBytesPerSec(), 8 * 19.2e9 * 0.85, 1e6);
    EXPECT_DOUBLE_EQ(dram.streamSeconds(0), 0.0);
    // 1 GB stream: startup + transfer.
    const double t = dram.streamSeconds(1'000'000'000);
    EXPECT_NEAR(t, 2e-6 + 1e9 / (8 * 19.2e9 * 0.85), 1e-6);
    // Time is monotone in bytes.
    EXPECT_LT(dram.streamSeconds(1000), dram.streamSeconds(100000));
}

TEST(DramModel, ConfigurableChannels)
{
    DramConfig cfg;
    cfg.channels = 2;
    DramModel dram(cfg);
    EXPECT_NEAR(dram.bandwidthBytesPerSec(), 2 * 19.2e9 * 0.85, 1e6);
}

// ------------------------------------------------------------- system

class GenAxSystemTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RefGenConfig rcfg;
        rcfg.length = 200000;
        rcfg.seed = 11;
        ref = generateReference(rcfg);

        cfg.k = 10;
        cfg.editBound = 16;
        cfg.segmentCount = 8;
        cfg.segmentOverlap = 160; // >= readLen + 2K for local windows
        system = std::make_unique<GenAxSystem>(ref, cfg);

        ReadSimConfig rs;
        rs.numReads = 150;
        rs.seed = 21;
        sim = simulateReads(ref, rs);
        for (const auto &r : sim)
            reads.push_back(r.seq);
    }

    Seq ref;
    GenAxConfig cfg;
    std::unique_ptr<GenAxSystem> system;
    std::vector<SimRead> sim;
    std::vector<Seq> reads;
};

TEST_F(GenAxSystemTest, AlignsReadsNearTruth)
{
    const auto maps = system->alignAll(reads);
    ASSERT_EQ(maps.size(), reads.size());
    u64 correct = 0, mapped = 0;
    for (size_t i = 0; i < maps.size(); ++i) {
        if (!maps[i].mapped)
            continue;
        ++mapped;
        const i64 delta = static_cast<i64>(maps[i].pos) -
                          static_cast<i64>(sim[i].truthPos);
        if (maps[i].reverse == sim[i].reverse && std::abs(delta) <= 12)
            ++correct;
    }
    EXPECT_GT(static_cast<double>(mapped) / reads.size(), 0.98);
    EXPECT_GT(static_cast<double>(correct) / reads.size(), 0.95);
}

TEST_F(GenAxSystemTest, PerfModelPopulated)
{
    system->alignAll(reads);
    const GenAxPerf &p = system->perf();
    EXPECT_EQ(p.reads, reads.size());
    EXPECT_EQ(p.segments, 8u);
    EXPECT_GT(p.seedingSeconds, 0.0);
    EXPECT_GT(p.dramSeconds, 0.0);
    EXPECT_GT(p.totalSeconds, 0.0);
    // Sum-of-max is at least each individual total.
    EXPECT_GE(p.totalSeconds, p.dramSeconds - 1e-12);
    EXPECT_GT(p.readsPerSecond(), 0.0);
    // ~75% of default-simulated reads resolve via the exact path.
    const double exact_frac =
        static_cast<double>(p.exactReads) / p.reads;
    EXPECT_GT(exact_frac, 0.5);
    EXPECT_LT(exact_frac, 0.95);
    // Non-exact reads produced extension jobs on the lanes.
    EXPECT_GT(p.extensionJobs, 0u);
    EXPECT_EQ(p.lanes.jobs, p.extensionJobs);
}

TEST_F(GenAxSystemTest, ConcordantWithSoftwareBaseline)
{
    // The paper validates SillaX against BWA-MEM: identical scores,
    // negligible (0.0023%) alignment variance (Section VIII-A).
    const auto hw = system->alignAll(reads);

    AlignerConfig sw_cfg;
    sw_cfg.k = cfg.k;
    sw_cfg.band = cfg.editBound;
    BwaMemLike sw(ref, sw_cfg);
    const auto swm = sw.alignAll(reads);

    u64 same_score = 0, same_pos = 0, both_mapped = 0;
    for (size_t i = 0; i < hw.size(); ++i) {
        if (!hw[i].mapped || !swm[i].mapped)
            continue;
        ++both_mapped;
        same_score += hw[i].score == swm[i].score;
        same_pos += hw[i].pos == swm[i].pos &&
                    hw[i].reverse == swm[i].reverse;
    }
    ASSERT_GT(both_mapped, reads.size() * 9 / 10);
    EXPECT_GT(static_cast<double>(same_score) / both_mapped, 0.97);
    EXPECT_GT(static_cast<double>(same_pos) / both_mapped, 0.95);
}

TEST_F(GenAxSystemTest, MappingsCigarConsistency)
{
    const auto maps = system->alignAll(reads);
    for (size_t i = 0; i < maps.size(); ++i) {
        if (!maps[i].mapped)
            continue;
        EXPECT_EQ(maps[i].cigar.queryLen(), reads[i].size())
            << "read " << i << " cigar " << maps[i].cigar.str();
        const u64 ref_len = maps[i].cigar.refLen();
        EXPECT_LE(maps[i].pos + ref_len, ref.size());
    }
}

TEST_F(GenAxSystemTest, CandidatesSortedAndDeduped)
{
    const auto cands = system->alignAllCandidates(reads, 8);
    ASSERT_EQ(cands.size(), reads.size());
    for (const auto &c : cands) {
        EXPECT_LE(c.size(), 8u);
        for (size_t i = 1; i < c.size(); ++i) {
            EXPECT_GE(c[i - 1].score, c[i].score);
            EXPECT_FALSE(c[i - 1].pos == c[i].pos &&
                         c[i - 1].reverse == c[i].reverse)
                << "duplicate candidate";
        }
    }
}

TEST_F(GenAxSystemTest, PairedEndRescueThroughAccelerator)
{
    // Duplicate a block so a mate inside it is ambiguous alone; the
    // accelerator's candidates + the pairing stage must rescue it.
    Seq dup_ref = ref;
    const u64 src = 100000;
    dup_ref.insert(dup_ref.end(), ref.begin() + src,
                   ref.begin() + src + 150);
    GenAxConfig dcfg = cfg;
    GenAxSystem dup_system(dup_ref, dcfg);

    const Seq r2_inner(dup_ref.begin() + static_cast<i64>(src) + 20,
                       dup_ref.begin() + static_cast<i64>(src) + 121);
    const u64 frag_start = src + 141 - 300;
    const Seq r1_unique(dup_ref.begin() + static_cast<i64>(frag_start),
                        dup_ref.begin() +
                            static_cast<i64>(frag_start + 101));

    const auto c1 = dup_system.alignAllCandidates({r1_unique}, 16);
    const auto c2 =
        dup_system.alignAllCandidates({reverseComplement(r2_inner)}, 16);
    const auto pair = resolvePair(c1[0], c2[0]);
    ASSERT_TRUE(pair.r1.mapped);
    ASSERT_TRUE(pair.r2.mapped);
    EXPECT_TRUE(pair.proper);
    EXPECT_EQ(pair.r2.pos, src + 20);
    EXPECT_GT(pair.r2.mapq, 0);
}

// --------------------------------------------------- area and power

TEST(GenAxAreaPower, TableTwoAtPaperScale)
{
    // Paper parameters: k = 12 index (48 MB), 6 Mbp segment position
    // table (18 MB), 4 x 512 KB reference cache, 16 KB read buffer.
    GenAxConfig cfg; // defaults are the paper's architecture
    const u64 index_bytes = (u64{1} << 24) * 3;   // 50.3 MB
    const u64 pos_bytes = u64{6'100'000} * 3;     // 18.3 MB
    const auto ap = GenAxSystem::areaPower(cfg, index_bytes, pos_bytes);

    // Table II: 4.224 / 5.36 / 163.2 / 172.78 mm^2.
    EXPECT_NEAR(ap.seedingLanesMm2, 4.224, 0.001);
    EXPECT_NEAR(ap.sillaxLanesMm2, 5.36, 0.45);
    EXPECT_NEAR(ap.sramMm2, 163.2, 12.0);
    EXPECT_NEAR(ap.totalMm2, 172.78, 12.0);

    // Power lands near the ~12x-below-CPU point of Figure 15b.
    EXPECT_GT(ap.totalW, 8.0);
    EXPECT_LT(ap.totalW, 16.0);
}

TEST(GenAxAreaPower, ScalesWithLanes)
{
    GenAxConfig small, big;
    big.sillaxLanes = 8;
    big.seedingLanes = 256;
    const auto a = GenAxSystem::areaPower(small, 1 << 20, 1 << 20);
    const auto b = GenAxSystem::areaPower(big, 1 << 20, 1 << 20);
    EXPECT_NEAR(b.sillaxLanesMm2, 2 * a.sillaxLanesMm2, 1e-9);
    EXPECT_NEAR(b.seedingLanesW, 2 * a.seedingLanesW, 1e-9);
}

} // namespace
} // namespace genax

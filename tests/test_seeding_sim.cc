/**
 * @file
 * Tests for the banked-SRAM seeding-lane simulator: closed-form
 * agreement in the contention-free extremes, serialization under a
 * single bank, monotone scaling with banks/lanes, and integration
 * with the GenAx system model. Every direct simulation runs on both
 * the lock-step oracle and the event path simulate() uses.
 */

#include <gtest/gtest.h>

#include "genax/seeding_sim.hh"
#include "genax/system.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"

namespace genax {
namespace {

struct SimPath
{
    const char *name;
    SeedingSimResult (SeedingLaneSim::*run)(
        const std::vector<LaneWork> &) const;
};

constexpr SimPath kSimPaths[] = {
    {"naive", &SeedingLaneSim::simulateNaive},
    {"event", &SeedingLaneSim::simulateEvent},
};

TEST(SeedingSim, EmptyWorkIsFree)
{
    SeedingLaneSim sim(SeedingSimConfig{});
    for (const SimPath &path : kSimPaths) {
        SCOPED_TRACE(path.name);
        const auto r = (sim.*path.run)({});
        EXPECT_EQ(r.cycles, 0u);
        EXPECT_EQ(r.grants, 0u);
    }
}

TEST(SeedingSim, SingleLaneNoContentionMatchesClosedForm)
{
    SeedingSimConfig cfg;
    cfg.lanes = 1;
    cfg.banks = 64; // effectively conflict-free for one lane
    cfg.sramLatency = 2;
    cfg.issueWidth = 4;
    SeedingLaneSim sim(cfg);

    const u64 lookups = 100, cam = 40;
    for (const SimPath &path : kSimPaths) {
        SCOPED_TRACE(path.name);
        const auto r = (sim.*path.run)({{lookups, cam}});
        EXPECT_EQ(r.grants, lookups);
        // One issue per cycle, then drain latency, then CAM ops.
        const Cycle expect = lookups + cfg.sramLatency + cam;
        EXPECT_NEAR(static_cast<double>(r.cycles),
                    static_cast<double>(expect), 4.0);
    }
}

TEST(SeedingSim, SingleBankSerializesAllLanes)
{
    SeedingSimConfig cfg;
    cfg.lanes = 16;
    cfg.banks = 1;
    SeedingLaneSim sim(cfg);

    std::vector<LaneWork> work(64, {50, 0});
    for (const SimPath &path : kSimPaths) {
        SCOPED_TRACE(path.name);
        const auto r = (sim.*path.run)(work);
        // 64 * 50 lookups through one port: at least that many
        // cycles.
        EXPECT_GE(r.cycles, 64u * 50u);
        EXPECT_GT(r.bankConflicts, 0u);
        EXPECT_NEAR(r.bankUtilization(1), 1.0, 0.05);
    }
}

TEST(SeedingSim, MoreBanksNeverSlower)
{
    std::vector<LaneWork> work(256, {30, 10});
    for (const SimPath &path : kSimPaths) {
        SCOPED_TRACE(path.name);
        Cycle prev = ~Cycle{0};
        for (u32 banks : {1u, 4u, 16u, 64u}) {
            SeedingSimConfig cfg;
            cfg.lanes = 32;
            cfg.banks = banks;
            const auto r = (SeedingLaneSim(cfg).*path.run)(work);
            EXPECT_LE(r.cycles, prev) << "banks=" << banks;
            prev = r.cycles;
        }
    }
}

TEST(SeedingSim, MoreLanesNeverSlower)
{
    std::vector<LaneWork> work(256, {30, 10});
    for (const SimPath &path : kSimPaths) {
        SCOPED_TRACE(path.name);
        Cycle prev = ~Cycle{0};
        for (u32 lanes : {1u, 8u, 64u, 128u}) {
            SeedingSimConfig cfg;
            cfg.lanes = lanes;
            cfg.banks = 64;
            const auto r = (SeedingLaneSim(cfg).*path.run)(work);
            EXPECT_LE(r.cycles, prev) << "lanes=" << lanes;
            prev = r.cycles;
        }
    }
}

TEST(SeedingSim, GrantsConserveWork)
{
    std::vector<LaneWork> work;
    u64 total = 0;
    Rng rng(42);
    for (int i = 0; i < 100; ++i) {
        const u64 l = rng.below(80);
        work.push_back({l, rng.below(20)});
        total += l;
    }
    SeedingSimConfig cfg;
    cfg.lanes = 8;
    cfg.banks = 4;
    for (const SimPath &path : kSimPaths) {
        SCOPED_TRACE(path.name);
        EXPECT_EQ((SeedingLaneSim(cfg).*path.run)(work).grants, total);
    }
}

TEST(SeedingSim, GenAxIntegrationStaysClose)
{
    // The simulated seeding time should be within a small factor of
    // the closed-form model (which it refines), and alignment
    // results must be identical.
    RefGenConfig rcfg;
    rcfg.length = 150000;
    const Seq ref = generateReference(rcfg);
    ReadSimConfig rs;
    rs.numReads = 120;
    const auto sim_reads = simulateReads(ref, rs);
    std::vector<Seq> reads;
    for (const auto &r : sim_reads)
        reads.push_back(r.seq);

    GenAxConfig cfg;
    cfg.k = 10;
    cfg.editBound = 16;
    cfg.segmentCount = 4;
    cfg.segmentOverlap = 160;
    GenAxConfig sim_cfg = cfg;
    sim_cfg.simulateSeedingLanes = true;

    GenAxSystem closed(ref, cfg), simulated(ref, sim_cfg);
    const auto a = closed.alignAll(reads);
    const auto b = simulated.alignAll(reads);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pos, b[i].pos);
        EXPECT_EQ(a[i].score, b[i].score);
    }
    const double closed_sec = closed.perf().seedingSeconds;
    const double sim_sec = simulated.perf().seedingSeconds;
    EXPECT_GT(sim_sec, 0.0);
    // Same order of magnitude; the simulation includes conflicts and
    // queueing the closed form ignores.
    EXPECT_LT(sim_sec, closed_sec * 30);
    EXPECT_GT(sim_sec, closed_sec / 30);
}

} // namespace
} // namespace genax

/**
 * @file
 * Cycle model of the 128 seeding lanes sharing the banked
 * index/position SRAM (Section VI, Figure 11).
 *
 * Each lane works through its queue of reads; a read is a number of
 * index-table lookups (issued to pseudo-random SRAM banks, up to the
 * lane's issue width in flight) followed by local CAM operations.
 * Banks grant one access per cycle, so lanes conflict — the effect
 * the closed-form cycle model approximates with an issue-width
 * divisor, here simulated directly. Used by the GenAx system model
 * when GenAxConfig::simulateSeedingLanes is set, and by the
 * bank-count ablation.
 *
 * Two implementations produce bit-identical results:
 *
 *  - simulateNaive(): the lock-step reference — `for (;; ++t)`
 *    touching every lane every cycle. It IS the specification of the
 *    model; it is deliberately kept simple and is never optimized.
 *  - simulateEvent(): event-driven — between issue attempts a lane
 *    evolves deterministically (SRAM retirements, CAM countdown,
 *    zero-lookup read pops), so those stretches collapse to closed
 *    form and only cycles containing at least one issue attempt are
 *    stepped exactly. Bank-address RNG draws happen only on issue
 *    attempts, in rotating lane order, so the draw sequence — and
 *    with it cycles / grants / bankConflicts — replays exactly.
 *
 * simulate() is the event path. tests/test_model_equiv.cc pins the
 * equivalence, and tests/test_seeding_sim.cc runs each of its
 * assertions on both paths.
 */

#ifndef GENAX_GENAX_SEEDING_SIM_HH
#define GENAX_GENAX_SEEDING_SIM_HH

#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace genax {

/** Simulator parameters. */
struct SeedingSimConfig
{
    u32 lanes = 128;
    u32 banks = 32;       //!< independently-addressable SRAM banks
    u32 sramLatency = 2;  //!< cycles from grant to data
    u32 issueWidth = 4;   //!< outstanding lookups per lane
    u64 seed = 1;         //!< synthetic bank-address stream
};

/** Work of one read on one seeding lane. */
struct LaneWork
{
    u64 indexLookups = 0; //!< banked SRAM accesses
    u64 camOps = 0;       //!< local CAM searches/loads/probes
};

/** Result of one simulation. */
struct SeedingSimResult
{
    Cycle cycles = 0;
    u64 bankConflicts = 0; //!< issue attempts denied by a busy bank
    u64 grants = 0;        //!< accesses served

    /** Fraction of bank-cycles doing useful work. */
    double
    bankUtilization(u32 banks) const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(grants) /
                                 (static_cast<double>(cycles) * banks);
    }
};

/** The lane-array simulator. */
class SeedingLaneSim
{
  public:
    explicit SeedingLaneSim(const SeedingSimConfig &cfg) : _cfg(cfg) {}

    /**
     * Simulate the lane array draining `work` (items are dealt to
     * lanes round-robin) and return the cycle count. This is
     * simulateEvent().
     */
    SeedingSimResult
    simulate(const std::vector<LaneWork> &work) const
    {
        return simulateEvent(work);
    }

    /** Lock-step reference implementation (the oracle). */
    SeedingSimResult
    simulateNaive(const std::vector<LaneWork> &work) const;

    /** Event-driven implementation; bit-identical to the oracle. */
    SeedingSimResult
    simulateEvent(const std::vector<LaneWork> &work) const;

    const SeedingSimConfig &config() const { return _cfg; }

  private:
    void checkConfig() const;

    SeedingSimConfig _cfg;
};

} // namespace genax

#endif // GENAX_GENAX_SEEDING_SIM_HH

#include "genax/seeding_sim.hh"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/check.hh"

namespace genax {

void
SeedingLaneSim::checkConfig() const
{
    GENAX_CHECK(_cfg.lanes > 0 && _cfg.banks > 0,
                "seeding sim needs lanes and banks: lanes=",
                _cfg.lanes, " banks=", _cfg.banks);
    GENAX_CHECK(_cfg.issueWidth > 0 && _cfg.sramLatency > 0,
                "seeding sim needs issue width and SRAM latency: "
                "width=", _cfg.issueWidth, " latency=",
                _cfg.sramLatency);
}

SeedingSimResult
SeedingLaneSim::simulateNaive(const std::vector<LaneWork> &work) const
{
    checkConfig();
    SeedingSimResult res;
    if (work.empty())
        return res;

    struct Lane
    {
        std::deque<LaneWork> queue;
        u64 lookupsToIssue = 0;
        u64 lookupsPending = 0; //!< issued, data not yet returned
        u64 camRemaining = 0;
        /** Completion cycles of in-flight lookups (size <= width). */
        std::vector<Cycle> inflight;
        bool
        busy() const
        {
            return lookupsToIssue || lookupsPending || camRemaining ||
                   !queue.empty();
        }
    };

    std::vector<Lane> lanes(_cfg.lanes);
    for (size_t i = 0; i < work.size(); ++i)
        lanes[i % _cfg.lanes].queue.push_back(work[i]);

    Rng rng(_cfg.seed);
    std::vector<u8> bank_busy(_cfg.banks, 0);

    Cycle t = 0;
    u32 first_lane = 0; // rotating priority
    for (;; ++t) {
        bool any_busy = false;
        std::fill(bank_busy.begin(), bank_busy.end(), 0);

        for (u32 l = 0; l < _cfg.lanes; ++l) {
            Lane &lane = lanes[(first_lane + l) % _cfg.lanes];

            // Retire lookups whose data arrives this cycle.
            for (size_t i = 0; i < lane.inflight.size();) {
                if (lane.inflight[i] <= t) {
                    lane.inflight[i] = lane.inflight.back();
                    lane.inflight.pop_back();
                    --lane.lookupsPending;
                } else {
                    ++i;
                }
            }

            // Start the next read when idle.
            if (!lane.lookupsToIssue && !lane.lookupsPending &&
                !lane.camRemaining && !lane.queue.empty()) {
                const LaneWork w = lane.queue.front();
                lane.queue.pop_front();
                lane.lookupsToIssue = w.indexLookups;
                lane.camRemaining = w.camOps;
            }

            // Issue one lookup per cycle (subject to issue width and
            // bank availability).
            if (lane.lookupsToIssue &&
                lane.lookupsPending < _cfg.issueWidth) {
                const u32 bank =
                    static_cast<u32>(rng.below(_cfg.banks));
                if (!bank_busy[bank]) {
                    bank_busy[bank] = 1;
                    --lane.lookupsToIssue;
                    ++lane.lookupsPending;
                    lane.inflight.push_back(t + _cfg.sramLatency);
                    ++res.grants;
                    // Issue-queue bound: a lane can never have more
                    // requests in flight than its issue width.
                    GENAX_DCHECK(lane.inflight.size() <=
                                     _cfg.issueWidth,
                                 "lane exceeded its issue width: ",
                                 lane.inflight.size(), " > ",
                                 _cfg.issueWidth);
                } else {
                    ++res.bankConflicts;
                }
            } else if (!lane.lookupsToIssue && !lane.lookupsPending &&
                       lane.camRemaining) {
                // CAM operations are lane-local, one per cycle.
                --lane.camRemaining;
            }

            any_busy |= lane.busy();
        }
        ++first_lane;
        if (!any_busy)
            break;
    }
    res.cycles = t + 1;
    return res;
}

namespace {

/**
 * Per-lane state for the event-driven path. The read queue is an
 * index into the shared work vector (lane l owns items l, l+lanes,
 * l+2*lanes, ... — the same round-robin deal as the oracle) and the
 * in-flight retirement times live in a fixed ring: a lane issues at
 * most one lookup per cycle, so the times are strictly increasing
 * and retiring everything <= t is a pop-front loop, not a scan.
 */
struct EvLane
{
    size_t next = 0; //!< next work item; advances by the lane count
    u64 lookupsToIssue = 0;
    u64 lookupsPending = 0;
    u64 camRemaining = 0;
    u32 head = 0;  //!< ring start within this lane's slice
    u32 count = 0; //!< in-flight entries (== lookupsPending)
    /**
     * Next cycle this lane makes an issue attempt; its state is
     * quiescent (all deterministic evolution applied) strictly
     * before that cycle. Meaningless once `complete`.
     */
    i64 eventCycle = 0;
    bool complete = false;
};

} // namespace

SeedingSimResult
SeedingLaneSim::simulateEvent(const std::vector<LaneWork> &work) const
{
    checkConfig();
    SeedingSimResult res;
    if (work.empty())
        return res;

    const u32 L = _cfg.lanes;
    const u32 W = _cfg.issueWidth;
    const size_t n = work.size();

    std::vector<EvLane> lanes(L);
    // Shared ring storage: lane l's slice is ring[l*W .. l*W+W).
    std::vector<Cycle> ring(static_cast<size_t>(L) * W);

    const auto ringFront = [&](const EvLane &ln, u32 li) -> Cycle {
        return ring[static_cast<size_t>(li) * W + ln.head];
    };
    const auto ringBack = [&](const EvLane &ln, u32 li) -> Cycle {
        return ring[static_cast<size_t>(li) * W +
                    (ln.head + ln.count - 1) % W];
    };
    const auto ringPush = [&](EvLane &ln, u32 li, Cycle c) {
        ring[static_cast<size_t>(li) * W + (ln.head + ln.count) % W] =
            c;
        ++ln.count;
    };
    const auto ringPop = [&](EvLane &ln) {
        ln.head = (ln.head + 1) % W;
        --ln.count;
    };

    i64 maxComplete = -1;
    u32 active = 0;

    /**
     * Advance a lane from its state at the end of cycle `T` through
     * everything that happens without an issue attempt — SRAM
     * retirements, the CAM countdown (closed form: camRemaining is a
     * pure per-cycle decrement), and pops of zero-lookup reads — and
     * either park it at its next attempt cycle or mark it complete.
     * The pop and the attempt of a read WITH lookups are left to the
     * exact step, which runs the oracle's per-cycle body verbatim.
     */
    const auto walk = [&](EvLane &ln, u32 li, i64 T) {
        for (;;) {
            if (ln.lookupsToIssue) {
                // Can attempt as soon as an issue slot is free:
                // immediately next cycle, or at the earliest
                // retirement when the width is saturated.
                ln.eventCycle =
                    ln.lookupsPending < W
                        ? T + 1
                        : static_cast<i64>(ringFront(ln, li));
                return;
            }
            // Work out when this read's tail finishes and when the
            // next pop would happen. The oracle's cycle order is
            // retire -> pop -> issue/CAM, so the CAM countdown
            // starts the same cycle the last in-flight lookup
            // returns, and a drained lane with no CAM left pops its
            // next read in the retirement cycle itself; after a CAM
            // countdown the pop lands one cycle later (the pop check
            // precedes the final decrement's cycle).
            i64 done; //!< lane idle (busy()==false) at end of `done`
            i64 pop;  //!< cycle the next read would be popped
            if (ln.lookupsPending) {
                const i64 last = static_cast<i64>(ringBack(ln, li));
                ln.head = 0;
                ln.count = 0;
                ln.lookupsPending = 0;
                if (ln.camRemaining) {
                    done = last + static_cast<i64>(ln.camRemaining) -
                           1;
                    ln.camRemaining = 0;
                    pop = done + 1;
                } else {
                    done = last;
                    pop = last;
                }
            } else if (ln.camRemaining) {
                // Decrements run T+1 .. T+camRemaining.
                done = T + static_cast<i64>(ln.camRemaining);
                ln.camRemaining = 0;
                pop = done + 1;
            } else {
                done = T;
                pop = T + 1;
            }
            if (ln.next >= n) {
                ln.eventCycle = done;
                ln.complete = true;
                return;
            }
            const LaneWork w = work[ln.next];
            if (w.indexLookups) {
                // The exact step pops this read and attempts in the
                // same cycle; leave it on the queue.
                ln.eventCycle = pop;
                return;
            }
            // Zero-lookup read: consume it; its CAM ops (if any)
            // start in the pop cycle itself.
            ln.next += L;
            T = w.camOps ? pop + static_cast<i64>(w.camOps) - 1 : pop;
        }
    };

    for (u32 li = 0; li < L; ++li) {
        EvLane &ln = lanes[li];
        ln.next = li;
        if (ln.next >= n) {
            // Lane never receives work; it is idle for the whole
            // simulation and contributes nothing.
            ln.complete = true;
            ln.eventCycle = -1;
            continue;
        }
        ++active;
        walk(ln, li, -1);
        if (ln.complete) {
            maxComplete = std::max(maxComplete, ln.eventCycle);
            --active;
        }
    }

    Rng rng(_cfg.seed);
    // Generation-stamped bank reservations: bank b is busy in cycle
    // t iff bankMark[b] == t, so no per-cycle refill is needed.
    std::vector<i64> bankMark(_cfg.banks,
                              std::numeric_limits<i64>::min());

    i64 t = -1;
    bool next_known = false; // next attempt cycle is exactly t + 1
    while (active) {
        // Next cycle containing at least one issue attempt. When the
        // previous step parked a lane at t + 1 (a denied or
        // still-issuing lane), that IS the minimum — every other
        // cached event is > t — so the scan is skipped; saturated
        // stretches advance cycle by cycle without rescanning.
        if (next_known) {
            ++t;
        } else {
            t = std::numeric_limits<i64>::max();
            for (u32 li = 0; li < L; ++li)
                if (!lanes[li].complete)
                    t = std::min(t, lanes[li].eventCycle);
            GENAX_DCHECK(t != std::numeric_limits<i64>::max(),
                         "active lanes but no pending attempt");
        }
        next_known = false;

        // Exact step of cycle t: visit attempting lanes in the
        // oracle's rotating priority order (first_lane is a u32 that
        // wraps, hence the cast) and run its per-cycle body —
        // retire, pop, issue — drawing the bank RNG in the same
        // order.
        const u32 first = static_cast<u32>(t);
        for (u32 l = 0; l < L; ++l) {
            const u32 li = (first + l) % L;
            EvLane &ln = lanes[li];
            if (ln.complete || ln.eventCycle != t)
                continue;

            while (ln.count &&
                   static_cast<i64>(ringFront(ln, li)) <= t) {
                ringPop(ln);
                --ln.lookupsPending;
            }
            if (!ln.lookupsToIssue && !ln.lookupsPending &&
                !ln.camRemaining && ln.next < n) {
                const LaneWork w = work[ln.next];
                ln.next += L;
                ln.lookupsToIssue = w.indexLookups;
                ln.camRemaining = w.camOps;
            }
            GENAX_DCHECK(ln.lookupsToIssue &&
                             ln.lookupsPending < W,
                         "event lane parked on a non-attempt cycle");
            const u32 bank = static_cast<u32>(rng.below(_cfg.banks));
            if (bankMark[bank] != t) {
                bankMark[bank] = t;
                --ln.lookupsToIssue;
                ++ln.lookupsPending;
                ringPush(ln, li, static_cast<Cycle>(t) +
                                     _cfg.sramLatency);
                ++res.grants;
                GENAX_DCHECK(ln.count <= W,
                             "lane exceeded its issue width: ",
                             ln.count, " > ", W);
            } else {
                ++res.bankConflicts;
            }

            walk(ln, li, t);
            if (ln.complete) {
                maxComplete = std::max(maxComplete, ln.eventCycle);
                --active;
            } else if (ln.eventCycle == t + 1) {
                next_known = true;
            }
        }
    }

    res.cycles = static_cast<Cycle>(maxComplete + 1);
    return res;
}

} // namespace genax

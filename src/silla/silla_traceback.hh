/**
 * @file
 * Silla traceback machine (Section IV-C of the GenAx paper).
 *
 * Extends the scoring machine with per-PE path records so the exact
 * sequence of edits of the winning extension can be recovered:
 *
 *  - Each PE records how its current closed (H) path last entered it
 *    (the 2-bit traceback pointer: anchor / insertion / deletion),
 *    when, and the length of the adopted gap run (a counter riding
 *    the E/F lanes, latched with the pointer). Diagonal
 *    match/substitution steps within a PE are run-length compressed
 *    ("count of matches") and re-expanded from the strings during
 *    collection.
 *
 * The hardware keeps only the registers' latest values; a pointer
 * trail is "broken" when a greedy PE overwrote its record after the
 * winning path left it. The machine then re-executes the streaming
 * phase truncated to the cycle the winning path left that PE and
 * resumes collection (Section IV-C). This model replays that
 * protocol — walking the path off a plane of every PE's per-cycle
 * adoptions while tracking the machine-time the hardware registers
 * would reflect — and reports the re-execution counts and cycle
 * costs that Figure 13 plots.
 */

#ifndef GENAX_SILLA_SILLA_TRACEBACK_HH
#define GENAX_SILLA_SILLA_TRACEBACK_HH

#include <vector>

#include "align/cigar.hh"
#include "align/scoring.hh"
#include "silla/silla.hh"
#include "silla/silla_stream_row.hh"

namespace genax {

/** Timing/behaviour statistics for one traceback run. */
struct SillaTraceStats
{
    Cycle streamCycles = 0;  //!< phase 1 (string streaming)
    Cycle reduceCycles = 0;  //!< phases 2-4 (K cycles each)
    Cycle collectCycles = 0; //!< phase 5 (trace shift-out)
    u32 reruns = 0;          //!< broken-pointer-trail re-executions
    Cycle rerunCycles = 0;   //!< cycles spent re-executing phase 1

    Cycle
    total() const
    {
        return streamCycles + reduceCycles + collectCycles + rerunCycles;
    }
};

/** Full alignment result from the traceback machine. */
struct SillaAlignment
{
    i32 score = 0;
    u64 refEnd = 0;  //!< reference characters consumed
    u64 qryEnd = 0;  //!< query characters consumed (rest soft-clipped)
    Cigar cigar;     //!< includes the trailing soft clip
    SillaTraceStats stats;
};

/** The Silla traceback machine for a fixed K and scoring scheme. */
class SillaTraceback
{
  public:
    SillaTraceback(u32 k, const Scoring &sc);

    /**
     * Align query q against reference r (both anchored at 0) and
     * recover the winning path. This is alignEvent(); SillaXLane and
     * every modelled number run on it.
     */
    SillaAlignment align(const Seq &r, const Seq &q)
    {
        return alignEvent(r, q);
    }

    /**
     * The full-array oracle: streams every PE of the (K+1)² grid
     * each cycle, exactly as the hardware array does.
     */
    SillaAlignment alignNaive(const Seq &r, const Seq &q);

    /**
     * Bit-identical to alignNaive() (score, CIGAR and every stats
     * field, reruns included) while streaming only the PEs that can
     * hold the winner. PE (i, d) only holds paths with exactly i
     * inserted and d deleted characters, so its H never exceeds
     *
     *   ub(i, d) = match·min(n − d, m − i) − g(i) − g(d),
     *   g(0) = 0, g(x) = gapOpen + x·gapExtend.
     *
     * LB >= 0 is the best score of PE (0,0)'s ungapped path and of
     * the paths that leave it with one gap run. The array reaches
     * that score, so every PE with ub < LB scores strictly below the
     * winner and can neither win nor tie. ub falls in both i and d,
     * so the region {ub >= LB} is closed under the array's
     * dependencies ((i-1,d), (i,d-1) and itself) and its PEs compute
     * exactly what the full array computes. One sweep of it is
     * final.
     */
    SillaAlignment alignEvent(const Seq &r, const Seq &q);

    u32 k() const { return _k; }
    u64 peCount() const { return static_cast<u64>(_k + 1) * (_k + 1); }

  private:
    /** Winning cell of one streaming sweep, before collection. */
    struct StreamBest
    {
        i32 score = 0;
        u32 winI = 0, winD = 0;
        Cycle bestCycle = 0;
        u64 refEnd = 0, qryEnd = 0;
        bool haveBest = false;
    };

    /** ub(i, d): the highest score PE (i, d) can hold on an n × m
     *  job. */
    i64 scoreCap(u64 n, u64 m, u32 i, u32 d) const;
    /** LB: a score the array provably reaches on (r, q). */
    i64 lowerBound(const Seq &r, const Seq &q);
    /** Make the swept region {(i, d) <= K : ub(i, d) >= lb}. */
    void buildRegion(u64 n, u64 m, i64 lb);

    /**
     * Phase 1 over the current region: rows 0.._dEnd.size()-1, row i
     * holding d in [0, _dEnd[i]] (extents never grow with i), packed
     * row after row. Every live cell visited at cycle c writes its
     * adoption code into plane row c (detail::kSillaAdopt*), so the
     * plane rows [0, _lastCycle] are this job's pointer trail.
     */
    StreamBest streamPhase(const Seq &r, const Seq &q);

    /** Phases 2-5 off the plane of the last streamPhase(). */
    SillaAlignment collect(const Seq &r, const Seq &q,
                           const StreamBest &best);

    /** Packed index of PE (i, d) in the current region. */
    size_t at(u32 i, u32 d) const { return _rowOff[i] + d; }

    u32 _k;
    Scoring _sc;

    /** PE (0,0)'s ungapped prefix scores, for lowerBound(). */
    std::vector<i64> _prefix;
    /** The swept region: per-row last d and packed row offsets. */
    std::vector<u32> _dEnd, _rowOff;
    size_t _cells = 0;     //!< PEs in the region
    Cycle _lastCycle = 0;  //!< last cycle any region PE is live

    std::vector<i32> _hCur, _hNext, _eCur, _eNext, _fCur, _fNext;
    /** Gap run-length counters riding along the E/F lanes (the run
     *  is bounded by K <= kMaxSillaK, so u16 suffices). Reused
     *  across align() calls. */
    std::vector<u16> _eRunCur, _eRunNext, _fRunCur, _fRunNext;
    /**
     * Adoption plane: one code per (cycle, region PE) at
     * c * _cells + at(i, d). It is never cleared: collect() reads a
     * PE only over its live cycles [i + d, min(n + i, m + d)], and
     * the sweep writes every one of those entries.
     */
    std::vector<u16> _plane;
    /** Cells the vector row kernel flags for consider(), reused
     *  across sweeps. */
    std::vector<detail::SillaRowEvent> _rowEvents;
};

} // namespace genax

#endif // GENAX_SILLA_SILLA_TRACEBACK_HH

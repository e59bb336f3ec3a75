/**
 * @file
 * Structural SillaX scoring machine (Section IV-B, Figure 7).
 *
 * Functionally identical to the SillaScore automaton, but driven the
 * way the hardware is: the per-PE match/mismatch decision comes from
 * the systolic ComparatorArray (2K+1 peripheral comparators +
 * diagonal latch forwarding) rather than from direct string
 * indexing, and each PE touches only its own latched registers plus
 * its two upstream neighbours' (delayed merging). Equivalence with
 * SillaScore — and hence with banded Gotoh — is property-tested.
 */

#ifndef GENAX_SILLAX_SCORING_MACHINE_HH
#define GENAX_SILLAX_SCORING_MACHINE_HH

#include <vector>

#include "silla/silla_score.hh"
#include "sillax/comparator_array.hh"
#include "sillax/scoring_row.hh"

namespace genax {

/** Cycle-level structural scoring machine. */
class StructuralScoringMachine
{
  public:
    StructuralScoringMachine(u32 k, const Scoring &sc);

    /**
     * Clipped best extension score of q against r (anchored).
     *
     * Two implementations are bit-identical (result, clipping
     * registers, cycle counts): the naive oracle streams the
     * comparator array and dense-fills the grid every cycle as the
     * hardware would; the event path reads comparisons straight off
     * the strings (latched-datapath identity), resets only the fresh
     * anti-diagonal frontier, and sweeps lean interior rows through
     * the AVX2 row kernel when the dispatch tier allows. This is
     * runEvent().
     */
    SillaScoreResult
    run(const Seq &r, const Seq &q)
    {
        return runEvent(r, q);
    }

    /** The systolic/dense oracle (always available to tests). */
    SillaScoreResult runNaive(const Seq &r, const Seq &q);
    /** The event path (always available to tests). */
    SillaScoreResult runEvent(const Seq &r, const Seq &q);

    /**
     * Phase 2 of Section IV-B, structurally: after run(), each PE
     * holds the best score it ever saw; the maxima are reduced to
     * PE (0,0) purely through nearest-neighbour back-propagation
     * (each cycle a PE takes the max of itself and its three
     * upstream neighbours). Returns the value read out at (0,0) and
     * the cycles the reduction took — always equal to run().best and
     * at most 2K cycles (asserted in the tests).
     *
     * Computed in closed form (one reverse sweep over the grid — the
     * pass count is 1 + the largest Chebyshev distance from a PE to
     * the nearest maximiser of its upper-right quadrant).
     */
    std::pair<i32, Cycle> backPropagateBest();

    /** Lock-step reference for backPropagateBest() (the oracle). */
    std::pair<i32, Cycle> backPropagateBestNaive();

    u32 k() const { return _k; }
    u32 comparatorCount() const { return _cmps.comparatorCount(); }

  private:
    size_t idx(u32 i, u32 d) const { return i * (_k + 1) + d; }

    u32 _k;
    Scoring _sc;
    ComparatorArray _cmps;
    std::vector<i32> _hCur, _hNext, _eCur, _eNext, _fCur, _fNext;
    std::vector<i32> _bestSeen; //!< per-PE clipping registers
    /** Event staging for the vector row kernel, reused across
     *  sweeps. */
    std::vector<detail::ScoringRowEvent> _rowEvents;
};

} // namespace genax

#endif // GENAX_SILLAX_SCORING_MACHINE_HH

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

#include <utility>
#include <vector>

#include "silla/silla_score.hh"
#include "sillax/comparator_array.hh"

namespace genax {

/** Cycle-level structural scoring machine. */
class StructuralScoringMachine
{
  public:
    StructuralScoringMachine(u32 k, const Scoring &sc);

    /**
     * Clipped best extension score of q against r (anchored). Each
     * cycle streams one character pair through the comparator array
     * and updates every live PE from its latched comparison and its
     * upstream neighbours, as the hardware would.
     */
    SillaScoreResult run(const Seq &r, const Seq &q);

    /**
     * Phase 2 of Section IV-B, structurally: after run(), each PE
     * holds the best score it ever saw; the maxima are reduced to
     * PE (0,0) purely through nearest-neighbour back-propagation
     * (each cycle a PE takes the max of itself and its three
     * upstream neighbours). Returns the value read out at (0,0) and
     * the cycles the reduction took — always equal to run().best and
     * at most 2K cycles (asserted in the tests).
     */
    std::pair<i32, Cycle> backPropagateBest();

    u32 k() const { return _k; }
    u32 comparatorCount() const { return _cmps.comparatorCount(); }

  private:
    size_t idx(u32 i, u32 d) const { return i * (_k + 1) + d; }

    u32 _k;
    Scoring _sc;
    ComparatorArray _cmps;
    std::vector<i32> _hCur, _hNext, _eCur, _eNext, _fCur, _fNext;
    std::vector<i32> _bestSeen; //!< per-PE clipping registers
};

} // namespace genax

#endif // GENAX_SILLAX_SCORING_MACHINE_HH

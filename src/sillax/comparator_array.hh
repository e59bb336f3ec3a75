/**
 * @file
 * Structural model of the SillaX retro-comparison datapath
 * (Section IV-A, Figure 5).
 *
 * A naive design would need one comparator per PE per cycle. SillaX
 * instead computes only the 2K+1 peripheral comparisons each cycle —
 * states (i, 0) compare R[c-i] against the current query character
 * and states (0, d) compare the current reference character against
 * Q[c-d] — and every interior state latches the comparison its
 * up-diagonal neighbour (i-1, d-1) held one cycle earlier:
 *
 *     cmp(i, d) @ c  =  cmp(i-1, d-1) @ c-1  =  R[c-i] == Q[c-d]
 *
 * The strings flow through two (K+1)-deep shift registers. Characters
 * past the end of a string are replaced by per-string pad symbols
 * that match nothing (including each other), so trailing indels are
 * explored exactly as in the functional automaton.
 *
 * The structural edit and scoring machines read their comparisons
 * off this array. The Silla automata and the traceback machine the
 * lanes run compare the strings directly, which the identity above
 * licenses; the tests assert it.
 */

#ifndef GENAX_SILLAX_COMPARATOR_ARRAY_HH
#define GENAX_SILLAX_COMPARATOR_ARRAY_HH

#include <vector>

#include "common/dna.hh"
#include "common/types.hh"

namespace genax {

/** Systolic comparator array for a fixed edit bound K. */
class ComparatorArray
{
  public:
    /** Symbol width: 2-bit bases plus two distinct pad symbols. */
    static constexpr u8 kPadR = 4;
    static constexpr u8 kPadQ = 5;

    explicit ComparatorArray(u32 k);

    /** Reset shift registers and comparison latches. */
    void reset();

    /**
     * Advance one cycle: shift in the next reference and query
     * symbols (use the pads past the end of a string), compute the
     * 2K+1 peripheral comparisons and shift the interior latches
     * diagonally.
     */
    void step(u8 r_sym, u8 q_sym);

    /** Latched retro comparison available to state (i, d) this cycle. */
    bool
    compare(u32 i, u32 d) const
    {
        return _cmp[i * (_k + 1) + d];
    }

    u32 k() const { return _k; }

    /** Comparators instantiated (the 2K+1 periphery). */
    u32 comparatorCount() const { return 2 * _k + 1; }

  private:
    u32 _k;
    /** R and Q shift registers: index 0 is the newest symbol. */
    std::vector<u8> _rShift, _qShift;
    /** Comparison latches, one per (i, d). */
    std::vector<u8> _cmp, _cmpNext;
};

} // namespace genax

#endif // GENAX_SILLAX_COMPARATOR_ARRAY_HH

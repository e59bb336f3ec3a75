/**
 * @file
 * Structural SillaX edit machine (Section IV-A, Figures 5 and 6).
 *
 * Functionally identical to SillaEdit, but the retro comparisons are
 * produced by the systolic ComparatorArray (2K+1 peripheral
 * comparators + diagonal latch forwarding) instead of being computed
 * directly — i.e. this is the machine as the hardware would evaluate
 * it, one streamed character pair per cycle. Equivalence with the
 * functional automaton is property-tested.
 */

#ifndef GENAX_SILLAX_EDIT_MACHINE_HH
#define GENAX_SILLAX_EDIT_MACHINE_HH

#include <optional>
#include <vector>

#include "silla/silla_edit.hh"
#include "sillax/comparator_array.hh"

namespace genax {

/** Cycle-level structural edit machine. */
class StructuralEditMachine
{
  public:
    explicit StructuralEditMachine(u32 k);

    /**
     * Min edit distance between r and q if <= K, else nullopt. Each
     * cycle streams one character pair through the systolic
     * ComparatorArray, and the live PEs read their retro comparisons
     * off its latches, as the hardware would.
     */
    std::optional<u32> distance(const Seq &r, const Seq &q);

    u32 k() const { return _k; }
    const SillaRunStats &lastStats() const { return _stats; }

    /** Gate-count accounting hooks for the technology model. */
    u32 comparatorCount() const { return _cmps.comparatorCount(); }

  private:
    size_t idx(u32 i, u32 d) const { return i * (_k + 1) + d; }

    u32 _k;
    ComparatorArray _cmps;
    SillaRunStats _stats;
    std::vector<u8> _cur0, _cur1, _curW, _next0, _next1, _nextW;
    /**
     * Cells with at least one state bit set, maintained across the
     * swap so each cycle touches only live PEs instead of sweeping
     * (and re-zeroing) the whole (K+1)^2 grid. Activation stats are
     * per set bit, so the sparse sweep counts exactly what the dense
     * one did.
     */
    std::vector<size_t> _activeCur, _activeNext;
};

} // namespace genax

#endif // GENAX_SILLAX_EDIT_MACHINE_HH

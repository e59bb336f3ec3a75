/**
 * @file
 * Vectorized inner row kernel for the Silla traceback machine's
 * streaming phase (internal to genax_silla).
 *
 * The kernel covers only the *lean interior* span of one PE row —
 * cells with i >= 1, d >= 1, cell_r >= 1 and cell_q >= 1, whose
 * sources all sit inside the live window — where the -inf guards of
 * the reference sweep are provably redundant. It computes the E/F/H
 * lanes and gap-run counters for the span, writes every cell's
 * adoption code into the cycle's plane row (one packed store per
 * eight cells), and reports back only the cells whose H reaches the
 * caller's current best score, in (i asc, d asc) order, so the caller
 * can replay best-cell updates exactly as the scalar sweep would.
 *
 * The scalar lean path in silla_traceback.cc is the reference; the
 * AVX2 kernel is bit-identical to it by contract (same i32
 * arithmetic, same tie-breaks), so runtime tier selection — via
 * genax::simd::activeKernelTier(), honouring GENAX_FORCE_SCALAR and
 * the --kernel override — never changes any output.
 */

#ifndef GENAX_SILLA_SILLA_STREAM_ROW_HH
#define GENAX_SILLA_SILLA_STREAM_ROW_HH

#include <vector>

#include "common/types.hh"

namespace genax::detail {

/**
 * Adoption codes of the traceback plane, one per (cycle, PE): 0 when
 * the PE's closed path continued diagonally (or the PE is dark),
 * otherwise the 2-bit pointer in the top bits and, for a gap, the
 * adopted run length (<= K <= kMaxSillaK < 4096) in the low bits.
 */
inline constexpr u16 kSillaAdoptIns = 0x4000;
inline constexpr u16 kSillaAdoptDel = 0x8000;
inline constexpr u16 kSillaAdoptAnchor = 0xC000;
inline constexpr u16 kSillaAdoptSrcMask = 0xC000;
inline constexpr u16 kSillaAdoptRunMask = 0x0FFF;

/** Per-cycle inputs of the streaming kernel (raw spans into the
 *  traceback machine's double-buffered lane arrays, packed by region
 *  row). */
struct SillaCycleCtx
{
    const i32 *hCur;
    const i32 *eCur;
    const i32 *fCur;
    i32 *hNext;
    i32 *eNext;
    i32 *fNext;
    const u16 *eRunCur;
    u16 *eRunNext;
    const u16 *fRunCur;
    u16 *fRunNext;
    u16 *plane;        //!< this cycle's adoption-plane row
    const u32 *rowOff; //!< packed offset of each region row
    const u32 *dEnd;   //!< last d of each region row (non-increasing)
    const u8 *r;       //!< reference string (row characters)
    const u8 *q;       //!< query string (for the diagonal comparisons)
    u64 c;             //!< streaming cycle
    i32 openExt;       //!< gapOpen + gapExtend
    i32 gapExt;        //!< gapExtend
    i32 match;         //!< substitution reward
    i32 mismatch;      //!< substitution penalty (magnitude)
    i32 threshold;     //!< caller's best score at cycle entry (>= 0)
};

/**
 * One cell whose H reached the threshold. The threshold is a
 * conservative prefilter: the caller's best score can only grow
 * within a cycle, so re-checking flagged cells against the live best
 * reproduces the scalar winner exactly (within one cycle, no two
 * distinct cells can tie on all of the best-cell keys — equal score,
 * r+q sum and r force equal (r, q), which pins (i, d)). Adoptions
 * never travel through this list; they are in the plane.
 */
struct SillaRowEvent
{
    u32 i;
    u32 d;
};

#if defined(GENAX_SIMD_AVX2)
/**
 * AVX2 lean sweep of one streaming cycle: rows i in [iBegin, iEnd],
 * each over d in [dBegin, min(dEnd[i], c - i)] (the sweep stops at
 * the first row whose span is empty; spans only shrink as i grows).
 * Appends threshold cells in (i asc, d asc) order. Call only when
 * the running CPU has AVX2.
 */
void sillaStreamCycleAvx2(const SillaCycleCtx &ctx, u32 iBegin,
                          u32 iEnd, u32 dBegin,
                          std::vector<SillaRowEvent> &events);
#endif

} // namespace genax::detail

#endif // GENAX_SILLA_SILLA_STREAM_ROW_HH

/**
 * @file
 * Smith-Waterman-Gotoh affine-gap alignment with traceback.
 *
 * Three modes cover the alignment flavours used in the paper:
 *
 *  Global  — both sequences consumed end to end (Needleman-Wunsch).
 *  Local   — classic Smith-Waterman (scores floored at zero, best
 *            cell anywhere, both ends free).
 *  Extend  — BWA-MEM seed extension: anchored at (0,0), the best
 *            score seen anywhere wins ("clipping", Section IV-B),
 *            traceback runs from that cell back to the anchor and the
 *            remainder of the query is soft-clipped.
 *
 * Both a full O(n*m) implementation and a banded O((2K+1)*n)
 * implementation (the SeqAn-style baseline of Figures 14/15) are
 * provided. Banded cells outside |i-j| <= band are treated as
 * unreachable.
 */

#ifndef GENAX_ALIGN_GOTOH_HH
#define GENAX_ALIGN_GOTOH_HH

#include "common/dna.hh"
#include "common/types.hh"

#include "align/cigar.hh"
#include "align/scoring.hh"

namespace genax {

/** Alignment flavour. */
enum class AlignMode
{
    Global,
    Local,
    Extend,
};

/** Result of a pairwise alignment. */
struct AlignResult
{
    /** True if any alignment was found (can be false for banded
     *  Global with an insufficient band). */
    bool valid = false;

    i32 score = 0;

    /** Consumed half-open reference span [refBegin, refEnd). */
    u64 refBegin = 0;
    u64 refEnd = 0;

    /** Consumed half-open query span [qryBegin, qryEnd). */
    u64 qryBegin = 0;
    u64 qryEnd = 0;

    /** Alignment path; includes trailing/leading soft clips of the
     *  query in Local/Extend modes. */
    Cigar cigar;
};

/** Full-matrix Gotoh alignment. ref indexes rows, qry columns. */
AlignResult gotohAlign(const Seq &ref, const Seq &qry, const Scoring &sc,
                       AlignMode mode);

/**
 * Banded Gotoh alignment over |i-j| <= band.
 *
 * In Extend mode this is exactly the computation the SillaX scoring
 * and traceback machines perform with K = band, and serves as their
 * verification oracle.
 */
AlignResult gotohBanded(const Seq &ref, const Seq &qry, const Scoring &sc,
                        AlignMode mode, u32 band);

/** Banded Gotoh against a 2-bit packed reference window. The packed
 *  form quarters the window's cache footprint, which is what the
 *  extension fallback path feeds it (see PackedSeq::packWindow). */
AlignResult gotohBanded(const PackedSeq &ref, const Seq &qry,
                        const Scoring &sc, AlignMode mode, u32 band);

/**
 * The (score, refEnd, qryEnd) triple of a banded Extend alignment —
 * exactly the fields gotohBanded(..., Extend, band) would report,
 * without computing a traceback. Feeding the triple back into a
 * prefix-truncated gotohBanded run reproduces the full result (see
 * src/align/simd/): the winning cell and every cell on its path lie
 * inside ref[0, refEnd) x qry[0, qryEnd), so the truncated DP is
 * bit-identical there. The SIMD batch kernels must reproduce this
 * function's output exactly; it is their scalar reference oracle.
 */
struct BandedExtendScore
{
    i32 score = 0;
    u64 refEnd = 0;
    u64 qryEnd = 0;

    bool operator==(const BandedExtendScore &) const = default;
};

BandedExtendScore gotohBandedExtendScore(const Seq &ref, const Seq &qry,
                                         const Scoring &sc, u32 band);

BandedExtendScore gotohBandedExtendScore(const PackedSeq &ref,
                                         const Seq &qry,
                                         const Scoring &sc, u32 band);

} // namespace genax

#endif // GENAX_ALIGN_GOTOH_HH

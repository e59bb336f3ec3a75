/**
 * @file
 * Seed anchors and bidirectional seed extension.
 *
 * Both the software aligner (swbase) and the GenAx system model share
 * this logic: SMEM seeds are turned into deduplicated anchors, and an
 * anchor is extended left and right with anchored ("Extend" mode)
 * alignments whose composition yields the read's full alignment.
 * Only the extension kernel differs between the two (banded Gotoh on
 * the CPU, SillaX lanes in the accelerator), so it is passed in as a
 * callable.
 */

#ifndef GENAX_SWBASE_ANCHOR_HH
#define GENAX_SWBASE_ANCHOR_HH

#include <functional>
#include <vector>

#include "align/gotoh.hh"
#include "align/mapping.hh"
#include "align/scoring.hh"
#include "seed/smem_engine.hh"

namespace genax {

/** A candidate alignment anchor derived from one SMEM hit. */
struct Anchor
{
    u32 qryBegin = 0;  //!< seed span in the (oriented) read
    u32 qryEnd = 0;
    u64 refPos = 0;    //!< global reference position of read[qryBegin]
    bool reverse = false;

    u32 seedLen() const { return qryEnd - qryBegin; }

    /** Diagonal key used for deduplication. */
    i64
    diagonal() const
    {
        return static_cast<i64>(refPos) - static_cast<i64>(qryBegin);
    }
};

/** Anchor-generation limits. */
struct AnchorConfig
{
    u32 maxHitsPerSmem = 256; //!< drop ultra-repetitive seeds
    u32 maxAnchors = 32;      //!< cap per read and strand
};

/**
 * Turn one strand's SMEMs into deduplicated anchors.
 *
 * @param smems      seeds from SmemEngine (segment-local positions)
 * @param seg_start  global coordinate of the segment's position 0
 */
std::vector<Anchor> makeAnchors(const std::vector<Smem> &smems,
                                u64 seg_start, bool reverse,
                                const AnchorConfig &cfg);

/**
 * One directional extension result (the callable's contract): the
 * clipped best anchored extension of `qry` against `ref`, both
 * anchored at offset 0.
 */
struct ExtensionResult
{
    i32 score = 0;
    u64 refConsumed = 0;
    u64 qryConsumed = 0;
    Cigar cigar; //!< aligned part only, no soft clips
};

/**
 * Extension kernel callable. The reference window arrives 2-bit
 * packed: extendAnchor packs it straight from the genome (reversed
 * in place for the left extension) so the kernel streams a quarter
 * of the bytes and no intermediate Seq copy is ever materialised.
 */
using ExtendFn = std::function<ExtensionResult(
    const PackedSeq &ref_window, const Seq &qry)>;

/**
 * Extend an anchor in both directions and compose the full mapping.
 *
 * @param ref    the whole reference genome
 * @param read   the read, already oriented to the anchor's strand
 * @param margin extra reference bases fetched beyond the query
 *               length on each side (>= the edit bound K)
 */
Mapping extendAnchor(const Seq &ref, const Seq &read,
                     const Anchor &anchor, const Scoring &sc, u32 margin,
                     const ExtendFn &extend);

/**
 * The two extension problems of one anchor, in self-contained form:
 * packed reference windows plus query copies. This is the unit the
 * batched SIMD scoring path collects across a read's whole candidate
 * list before dispatching one scoreCandidateBatch call (see
 * swbase/bwamem_like.cc). hasRight/hasLeft mirror extendAnchor's
 * gating: an absent side contributes an empty ExtensionResult.
 */
struct ExtendWindows
{
    bool hasRight = false;
    bool hasLeft = false;
    PackedSeq right;  //!< forward window after the seed
    Seq rightQry;     //!< read tail after the seed
    PackedSeq left;   //!< reversed window before the seed
    Seq leftQry;      //!< reversed read head before the seed
};

/** Build both extension problems exactly as extendAnchor would. */
ExtendWindows makeExtendWindows(const Seq &ref, const Seq &read,
                                const Anchor &anchor, u32 margin);

/**
 * Finish one extension from its precomputed score triple: re-run the
 * banded Gotoh DP with traceback on the [0, hint.refEnd) x
 * [0, hint.qryEnd) prefix only. By the truncation property of
 * gotohBandedExtendScore this reproduces the full-window Extend
 * result bit for bit while the traceback matrix shrinks to the part
 * the winning path can reach. The hint must come from
 * gotohBandedExtendScore / scoreCandidateBatch on the same
 * (window, query, scoring, band).
 */
ExtensionResult extendWithScoreHint(const PackedSeq &ref_window,
                                    const Seq &qry, const Scoring &sc,
                                    u32 band,
                                    const BandedExtendScore &hint);

/**
 * Compose a full mapping from an anchor and its two finished
 * extensions (extendAnchor's composition step, split out so the
 * batched path can invoke it on the winning candidate only).
 */
Mapping composeAnchorMapping(const Anchor &anchor, const Scoring &sc,
                             u64 read_len, const ExtensionResult &left,
                             const ExtensionResult &right);

/**
 * Banded extension kernel routed through the SIMD subsystem's
 * score-then-traceback split: a score-only pass (scalar for a single
 * job) followed by the truncated traceback re-run. Same results as
 * gotohExtendKernel; used as the GenAx lane-fault fallback.
 */
ExtensionResult gotohExtendViaScore(const PackedSeq &ref_window,
                                    const Seq &qry, const Scoring &sc,
                                    u32 band);

/** Banded-Gotoh extension kernel (the software baseline's). */
ExtensionResult gotohExtendKernel(const Seq &ref_window, const Seq &qry,
                                  const Scoring &sc, u32 band);

/** Same kernel against a 2-bit packed reference window — the form
 *  the ExtendFn contract delivers. */
ExtensionResult gotohExtendKernel(const PackedSeq &ref_window,
                                  const Seq &qry, const Scoring &sc,
                                  u32 band);

} // namespace genax

#endif // GENAX_SWBASE_ANCHOR_HH

#include "swbase/anchor.hh"

#include <algorithm>
#include <utility>

#include "align/simd/batch_score.hh"
#include "common/logging.hh"

namespace genax {

namespace {

/** BWA-MEM's minimum seed length: shorter SMEMs anchor nothing. */
constexpr u32 kMinSeedLen = 19;

} // namespace

std::vector<Anchor>
makeAnchors(const std::vector<Smem> &smems, u64 seg_start, bool reverse,
            const AnchorConfig &cfg)
{
    std::vector<Anchor> out;
    // First anchor per diagonal wins, in smem order — kept as a
    // sorted flat vector (one allocation, binary-search membership)
    // rather than a node-per-diagonal tree; anchor counts are small
    // enough that the ordered insert is cheaper than the allocator
    // traffic was.
    std::vector<i64> diagonals;
    for (const auto &smem : smems) {
        if (smem.length() < kMinSeedLen)
            continue; // too short to be a reliable anchor
        if (smem.positions.size() > cfg.maxHitsPerSmem)
            continue; // ultra-repetitive seed: uninformative
        for (u32 local : smem.positions) {
            Anchor a;
            a.qryBegin = smem.qryBegin;
            a.qryEnd = smem.qryEnd;
            a.refPos = seg_start + local;
            a.reverse = reverse;
            const i64 d = a.diagonal();
            const auto it = std::lower_bound(diagonals.begin(),
                                             diagonals.end(), d);
            if (it == diagonals.end() || *it != d) {
                diagonals.insert(it, d);
                out.push_back(a);
            }
        }
    }
    // Prefer longer seeds (stronger anchors), then smaller position.
    std::sort(out.begin(), out.end(),
              [](const Anchor &a, const Anchor &b) {
                  if (a.seedLen() != b.seedLen())
                      return a.seedLen() > b.seedLen();
                  return a.refPos < b.refPos;
              });
    if (out.size() > cfg.maxAnchors)
        out.resize(cfg.maxAnchors);
    return out;
}

namespace {

/** Shared kernel body: extract the anchored-extension view of the
 *  banded alignment result. */
ExtensionResult
extractExtension(const AlignResult &r)
{
    GENAX_ASSERT(r.valid, "banded extend cannot fail");
    ExtensionResult out;
    out.score = r.score;
    out.refConsumed = r.refEnd;
    out.qryConsumed = r.qryEnd;
    for (const auto &e : r.cigar.elems())
        if (e.op != CigarOp::SoftClip)
            out.cigar.push(e.op, e.len);
    return out;
}

/** Reverse the element order of an extension cigar. */
Cigar
reversedCigar(const Cigar &c)
{
    Cigar out = c;
    out.reverse();
    return out;
}

} // namespace

ExtensionResult
gotohExtendKernel(const Seq &ref_window, const Seq &qry,
                  const Scoring &sc, u32 band)
{
    return extractExtension(
        gotohBanded(ref_window, qry, sc, AlignMode::Extend, band));
}

ExtensionResult
gotohExtendKernel(const PackedSeq &ref_window, const Seq &qry,
                  const Scoring &sc, u32 band)
{
    return extractExtension(
        gotohBanded(ref_window, qry, sc, AlignMode::Extend, band));
}

ExtendWindows
makeExtendWindows(const Seq &ref, const Seq &read, const Anchor &anchor,
                  u32 margin)
{
    const u64 len = read.size();
    GENAX_ASSERT(anchor.qryEnd <= len, "anchor beyond read");
    GENAX_ASSERT(anchor.refPos < ref.size(), "anchor beyond reference");

    ExtendWindows win;

    // Right extension: read tail vs reference after the seed. The
    // window is packed straight from the genome — no Seq copy.
    const u64 seed_ref_end = anchor.refPos + anchor.seedLen();
    if (anchor.qryEnd < len && seed_ref_end < ref.size()) {
        const u64 want = (len - anchor.qryEnd) + margin;
        const u64 end = std::min<u64>(ref.size(), seed_ref_end + want);
        win.hasRight = true;
        win.right = PackedSeq::packWindow(ref, seed_ref_end, end);
        win.rightQry.assign(read.begin() + anchor.qryEnd, read.end());
    }

    // Left extension: reversed read head vs the reference before the
    // seed, packed in reverse order directly from the genome.
    if (anchor.qryBegin > 0 && anchor.refPos > 0) {
        const u64 want = anchor.qryBegin + margin;
        const u64 begin = anchor.refPos >= want ? anchor.refPos - want : 0;
        win.hasLeft = true;
        win.left = PackedSeq::packWindow(ref, begin, anchor.refPos,
                                         /*reversed=*/true);
        win.leftQry.assign(read.rend() - anchor.qryBegin, read.rend());
    }

    return win;
}

ExtensionResult
extendWithScoreHint(const PackedSeq &ref_window, const Seq &qry,
                    const Scoring &sc, u32 band,
                    const BandedExtendScore &hint)
{
    if (hint.refEnd == 0 && hint.qryEnd == 0) {
        // Best extension is the empty one; the hint carries its score
        // (0 unless the scoring makes empty extensions non-neutral —
        // it cannot, Extend mode pins cell (0,0) at 0).
        ExtensionResult out;
        out.score = hint.score;
        return out;
    }
    const Seq qry_prefix(qry.begin(),
                         qry.begin() + static_cast<size_t>(hint.qryEnd));
    ExtensionResult out = extractExtension(
        gotohBanded(ref_window.prefix(hint.refEnd), qry_prefix, sc,
                    AlignMode::Extend, band));
    GENAX_ASSERT(out.score == hint.score &&
                     out.refConsumed == hint.refEnd &&
                     out.qryConsumed == hint.qryEnd,
                 "truncated traceback diverged from score pass");
    return out;
}

Mapping
composeAnchorMapping(const Anchor &anchor, const Scoring &sc,
                     u64 read_len, const ExtensionResult &left,
                     const ExtensionResult &right)
{
    const u32 seed_len = anchor.seedLen();

    Mapping out;
    out.mapped = true;
    out.reverse = anchor.reverse;
    out.score = static_cast<i32>(seed_len) * sc.match + left.score +
                right.score;
    out.pos = anchor.refPos - left.refConsumed;

    Cigar cigar;
    const u64 left_clip = anchor.qryBegin - left.qryConsumed;
    if (left_clip > 0)
        cigar.push(CigarOp::SoftClip, static_cast<u32>(left_clip));
    cigar.append(reversedCigar(left.cigar));
    cigar.push(CigarOp::Match, seed_len);
    cigar.append(right.cigar);
    const u64 right_clip = (read_len - anchor.qryEnd) - right.qryConsumed;
    if (right_clip > 0)
        cigar.push(CigarOp::SoftClip, static_cast<u32>(right_clip));
    out.cigar = std::move(cigar);
    return out;
}

ExtensionResult
gotohExtendViaScore(const PackedSeq &ref_window, const Seq &qry,
                    const Scoring &sc, u32 band)
{
    const std::vector<simd::ExtendJob> jobs{{&ref_window, &qry}};
    const auto scores = simd::scoreCandidateBatch(jobs, sc, band);
    return extendWithScoreHint(ref_window, qry, sc, band, scores[0]);
}

Mapping
extendAnchor(const Seq &ref, const Seq &read, const Anchor &anchor,
             const Scoring &sc, u32 margin, const ExtendFn &extend)
{
    const ExtendWindows win = makeExtendWindows(ref, read, anchor, margin);
    ExtensionResult right;
    if (win.hasRight)
        right = extend(win.right, win.rightQry);
    ExtensionResult left;
    if (win.hasLeft)
        left = extend(win.left, win.leftQry);
    return composeAnchorMapping(anchor, sc, read.size(), left, right);
}

} // namespace genax

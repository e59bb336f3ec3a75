#include "swbase/bwamem_like.hh"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "align/simd/batch_score.hh"
#include "common/parallel.hh"
#include "seed/smem_engine.hh"

namespace genax {

namespace {

/**
 * One candidate after the score-only pass: the anchor, both extension
 * problems in self-contained form, and the batched score triples from
 * which the final mapping score and position are already known. Only
 * what a batch call emits pays for a traceback.
 */
struct ScoredCandidate
{
    Anchor anchor;
    ExtendWindows win;
    BandedExtendScore leftHint;
    BandedExtendScore rightHint;
    Mapping placement; //!< strand, score and position; no CIGAR
};

/**
 * Seed both strands and build every candidate's extension windows
 * (scores not yet known), in build order: forward strand first,
 * anchors in makeAnchors order.
 */
std::vector<ScoredCandidate>
buildReadCandidates(const SeedIndex &index, const Seq &ref,
                    const AlignerConfig &cfg, const Seq &read)
{
    SmemEngine engine(index, cfg.seeding);

    std::vector<ScoredCandidate> cands;
    for (bool reverse : {false, true}) {
        const Seq oriented = reverse ? reverseComplement(read) : read;
        const auto smems = engine.seed(oriented);
        const auto anchors =
            makeAnchors(smems, 0, reverse, cfg.anchors);
        for (const auto &anchor : anchors) {
            ScoredCandidate c;
            c.anchor = anchor;
            c.win = makeExtendWindows(ref, oriented, anchor, cfg.band);
            c.placement.reverse = reverse;
            cands.push_back(std::move(c));
        }
    }
    return cands;
}

/** Traceback both extensions of one candidate and compose. */
Mapping
finishCandidate(const ScoredCandidate &c, const AlignerConfig &cfg,
                u64 read_len)
{
    ExtensionResult right;
    if (c.win.hasRight)
        right = extendWithScoreHint(c.win.right, c.win.rightQry,
                                    cfg.scoring, cfg.band, c.rightHint);
    ExtensionResult left;
    if (c.win.hasLeft)
        left = extendWithScoreHint(c.win.left, c.win.leftQry,
                                   cfg.scoring, cfg.band, c.leftHint);
    return composeAnchorMapping(c.anchor, cfg.scoring, read_len, left,
                                right);
}

/**
 * Winner selection + traceback + MAPQ for one read's scored
 * candidates: the fold keeps the first, in build order, of the
 * candidates that rank first, and only it pays for a traceback.
 *
 * The runner-up score is taken over every other candidate, duplicates
 * of the winning placement included, so a winner found from two
 * anchors gets MAPQ 0 where its distinct runner-up would give more
 * (alignAllCandidates and GenAx deduplicate first). It stays while
 * perfbench's traced replay checks alignAll, MAPQ included, against
 * its own copy of this fold.
 */
Mapping
selectAndFinish(const std::vector<ScoredCandidate> &cands,
                const AlignerConfig &cfg, u64 read_len)
{
    i64 best_idx = -1;
    i32 second = INT32_MIN;
    for (u32 i = 0; i < cands.size(); ++i) {
        if (best_idx < 0) {
            best_idx = i;
            continue;
        }
        const Mapping &c = cands[i].placement;
        const Mapping &b = cands[static_cast<size_t>(best_idx)].placement;
        if (ranksBefore(c, b)) {
            second = std::max(second, b.score);
            best_idx = i;
        } else {
            second = std::max(second, c.score);
        }
    }

    if (best_idx < 0)
        return Mapping{};
    Mapping best = finishCandidate(cands[static_cast<size_t>(best_idx)],
                                   cfg, read_len);

    // A lone candidate leaves `second` at INT32_MIN.
    best.mapq = marginMapq(best.score, second);
    return best;
}

/**
 * One read's distinct placements in rank order, at most `cap`, traced
 * back. Of the candidates at one (position, strand) the best score
 * survives, the earliest built on a tie: GenAx's candidate-set rule.
 */
std::vector<Mapping>
finishRanked(const std::vector<ScoredCandidate> &cands,
             const AlignerConfig &cfg, u64 read_len, u32 cap)
{
    const auto at = [&](u32 i) -> const Mapping & {
        return cands[i].placement;
    };
    std::vector<u32> keep(cands.size());
    std::iota(keep.begin(), keep.end(), 0u);
    std::sort(keep.begin(), keep.end(), [&](u32 a, u32 b) {
        return std::tuple(at(a).pos, at(a).reverse, -at(a).score, a) <
               std::tuple(at(b).pos, at(b).reverse, -at(b).score, b);
    });
    keep.erase(std::unique(keep.begin(), keep.end(),
                           [&](u32 a, u32 b) {
                               return at(a).pos == at(b).pos &&
                                      at(a).reverse == at(b).reverse;
                           }),
               keep.end());
    // Distinct placements: the rank rule orders them totally.
    std::sort(keep.begin(), keep.end(),
              [&](u32 a, u32 b) { return ranksBefore(at(a), at(b)); });
    keep.resize(std::min<size_t>(keep.size(), cap));

    std::vector<Mapping> out;
    out.reserve(keep.size());
    for (u32 i : keep)
        out.push_back(finishCandidate(cands[i], cfg, read_len));
    return out;
}

/**
 * The pooled pass behind both batch calls. One read's handful of
 * extension jobs cannot fill a 16-lane vector group, so the jobs are
 * pooled across the batch: (1) seed and build windows in parallel,
 * (2) score the pooled jobs in shards of whole 16-lane groups, one
 * inter-sequence SIMD batch per shard, in parallel, (3) hand each
 * read's scored candidates to `finish(i, cands)` in parallel. Per-job
 * scores do not depend on batch composition (the equivalence suite
 * fuzzes exactly this), so a read's result is byte-identical at any
 * batch size, thread count and dispatch tier.
 */
template <typename Finish>
void
scorePooled(const SeedIndex &index, const Seq &ref,
            const AlignerConfig &cfg, const std::vector<Seq> &reads,
            Finish &&finish)
{
    std::vector<std::vector<ScoredCandidate>> all(reads.size());
    parallelFor(reads.size(), cfg.threads, [&](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i)
            all[i] = buildReadCandidates(index, ref, cfg, reads[i]);
    });

    // Every extension of every candidate, and the hint its score
    // lands in; `all` owns both and is not resized from here on.
    std::vector<simd::ExtendJob> jobs;
    std::vector<BandedExtendScore *> hints;
    u64 total_cands = 0;
    for (const auto &cands : all)
        total_cands += cands.size();
    jobs.reserve(2 * total_cands);
    hints.reserve(2 * total_cands);
    for (auto &cands : all) {
        for (ScoredCandidate &c : cands) {
            if (c.win.hasRight) {
                jobs.push_back({&c.win.right, &c.win.rightQry});
                hints.push_back(&c.rightHint);
            }
            if (c.win.hasLeft) {
                jobs.push_back({&c.win.left, &c.win.leftQry});
                hints.push_back(&c.leftHint);
            }
        }
    }
    constexpr u64 kLaneGroup = 16;
    const u64 groups = (jobs.size() + kLaneGroup - 1) / kLaneGroup;
    parallelFor(groups, cfg.threads, [&](u64 lo, u64 hi) {
        const u64 first = lo * kLaneGroup;
        const u64 last = std::min<u64>(jobs.size(), hi * kLaneGroup);
        const auto scores = simd::scoreCandidateBatch(
            {jobs.begin() + static_cast<i64>(first),
             jobs.begin() + static_cast<i64>(last)},
            cfg.scoring, cfg.band);
        for (u64 j = first; j < last; ++j)
            *hints[j] = scores[j - first];
    });

    parallelFor(reads.size(), cfg.threads, [&](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i) {
            // Both hints fix a candidate's score and position.
            for (ScoredCandidate &c : all[i]) {
                c.placement.score =
                    static_cast<i32>(c.anchor.seedLen()) *
                        cfg.scoring.match +
                    c.leftHint.score + c.rightHint.score;
                c.placement.pos = c.anchor.refPos - c.leftHint.refEnd;
            }
            finish(i, all[i]);
            std::vector<ScoredCandidate>().swap(all[i]);
        }
    });
}

} // namespace

BwaMemLike::BwaMemLike(const Seq &ref, const AlignerConfig &cfg)
    : _ref(ref), _cfg(cfg), _index(ref, cfg.k, cfg.threads)
{
}

BwaMemLike::BwaMemLike(const Seq &ref, const AlignerConfig &cfg,
                       SeedIndex index)
    : _ref(ref), _cfg(cfg), _index(std::move(index))
{
    _cfg.k = _index.k();
}

std::vector<Mapping>
BwaMemLike::alignAll(const std::vector<Seq> &reads) const
{
    std::vector<Mapping> out(reads.size());
    scorePooled(_index, _ref, _cfg, reads,
                [&](u64 i, const std::vector<ScoredCandidate> &cands) {
                    out[i] = selectAndFinish(cands, _cfg, reads[i].size());
                });
    return out;
}

std::vector<std::vector<Mapping>>
BwaMemLike::alignAllCandidates(const std::vector<Seq> &reads,
                               u32 max_candidates) const
{
    std::vector<std::vector<Mapping>> out(reads.size());
    scorePooled(_index, _ref, _cfg, reads,
                [&](u64 i, const std::vector<ScoredCandidate> &cands) {
                    out[i] = finishRanked(cands, _cfg, reads[i].size(),
                                          max_candidates);
                });
    return out;
}

} // namespace genax

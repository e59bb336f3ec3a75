#include "swbase/bwamem_like.hh"

#include <algorithm>
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
 * the winning candidate ever pays for a traceback.
 */
struct ScoredCandidate
{
    Anchor anchor;
    ExtendWindows win;
    BandedExtendScore leftHint;
    BandedExtendScore rightHint;
    i32 score = 0;
    u64 pos = 0;
};

/**
 * Seed both strands and build every candidate's extension windows
 * (scores not yet known). Candidate order matches the scalar path's
 * consider() order (forward strand first, anchors in makeAnchors
 * order).
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
            cands.push_back(std::move(c));
        }
    }
    return cands;
}

/**
 * Collect every extension of every candidate into `jobs`, and in
 * `hints` the field its score lands in. The windows and hints are
 * owned by `cands`, which must not reallocate afterwards.
 */
void
gatherJobs(std::vector<ScoredCandidate> &cands,
           std::vector<simd::ExtendJob> &jobs,
           std::vector<BandedExtendScore *> &hints)
{
    for (ScoredCandidate &c : cands) {
        const ExtendWindows &w = c.win;
        if (w.hasRight) {
            jobs.push_back({&w.right, &w.rightQry});
            hints.push_back(&c.rightHint);
        }
        if (w.hasLeft) {
            jobs.push_back({&w.left, &w.leftQry});
            hints.push_back(&c.leftHint);
        }
    }
}

/** Score jobs [lo, hi) as one inter-sequence batch and store each
 *  score in its hint. */
void
scoreJobs(const std::vector<simd::ExtendJob> &jobs,
          const std::vector<BandedExtendScore *> &hints, u64 lo, u64 hi,
          const AlignerConfig &cfg)
{
    const std::vector<simd::ExtendJob> batch(
        jobs.begin() + static_cast<i64>(lo),
        jobs.begin() + static_cast<i64>(hi));
    const auto scores =
        simd::scoreCandidateBatch(batch, cfg.scoring, cfg.band);
    for (u64 j = lo; j < hi; ++j)
        *hints[j] = scores[j - lo];
}

/** Once both hints are in place, a candidate's final mapping score
 *  and position are fully determined. */
void
applyHints(std::vector<ScoredCandidate> &cands,
           const AlignerConfig &cfg)
{
    for (auto &c : cands) {
        c.score = static_cast<i32>(c.anchor.seedLen()) *
                      cfg.scoring.match +
                  c.leftHint.score + c.rightHint.score;
        c.pos = c.anchor.refPos - c.leftHint.refEnd;
    }
}

/**
 * Seed, window and score one read's candidates with a per-read
 * batch — the single-read entry point's path.
 */
std::vector<ScoredCandidate>
scoreReadCandidates(const SeedIndex &index, const Seq &ref,
                    const AlignerConfig &cfg, const Seq &read)
{
    auto cands = buildReadCandidates(index, ref, cfg, read);
    std::vector<simd::ExtendJob> jobs;
    std::vector<BandedExtendScore *> hints;
    gatherJobs(cands, jobs, hints);
    scoreJobs(jobs, hints, 0, jobs.size(), cfg);
    applyHints(cands, cfg);
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
 * candidates. The fold replicates the scalar path's serial consider()
 * on the (score, strand, position) triples the score-only pass
 * already determines; only the winner pays for a traceback.
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
        const ScoredCandidate &c = cands[i];
        const ScoredCandidate &b = cands[static_cast<size_t>(best_idx)];
        const bool better =
            c.score > b.score ||
            (c.score == b.score &&
             ((b.anchor.reverse && !c.anchor.reverse) ||
              (b.anchor.reverse == c.anchor.reverse && c.pos < b.pos)));
        if (better) {
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

Mapping
BwaMemLike::alignRead(const Seq &read) const
{
    const auto cands = scoreReadCandidates(_index, _ref, _cfg, read);
    return selectAndFinish(cands, _cfg, read.size());
}

std::vector<Mapping>
BwaMemLike::candidates(const Seq &read, u32 max_out) const
{
    const auto cands = scoreReadCandidates(_index, _ref, _cfg, read);

    // Deduplicate by (position, strand) keeping the first in insertion
    // order, then sort by the scalar path's key. After deduplication
    // the key is unique per survivor, so the comparator is a strict
    // total order and the sort result is deterministic.
    std::vector<u32> keep;
    keep.reserve(cands.size());
    for (u32 i = 0; i < cands.size(); ++i) {
        bool dup = false;
        for (u32 j : keep) {
            if (cands[j].pos == cands[i].pos &&
                cands[j].anchor.reverse == cands[i].anchor.reverse) {
                dup = true;
                break;
            }
        }
        if (!dup)
            keep.push_back(i);
    }
    std::sort(keep.begin(), keep.end(), [&](u32 a, u32 b) {
        const ScoredCandidate &ca = cands[a];
        const ScoredCandidate &cb = cands[b];
        if (ca.score != cb.score)
            return ca.score > cb.score;
        if (ca.anchor.reverse != cb.anchor.reverse)
            return !ca.anchor.reverse;
        return ca.pos < cb.pos;
    });
    if (keep.size() > max_out)
        keep.resize(max_out);

    std::vector<Mapping> out;
    out.reserve(keep.size());
    for (u32 i : keep)
        out.push_back(finishCandidate(cands[i], _cfg, read.size()));
    return out;
}

std::vector<Mapping>
BwaMemLike::alignAll(const std::vector<Seq> &reads) const
{
    // Three-phase batch path. Scoring one read's handful of extension
    // jobs cannot fill a 16-lane vector group, so the jobs are pooled
    // across the whole read set: (1) seed and build windows in
    // parallel, (2) score the pooled jobs in shards of whole 16-lane
    // groups, one inter-sequence SIMD batch per shard, in parallel,
    // (3) select winners and run their tracebacks in parallel.
    // Per-job scores are independent of batch composition (the
    // equivalence suite fuzzes exactly this), so the output is
    // byte-identical to per-read alignRead() calls at any thread
    // count and any dispatch tier.
    std::vector<std::vector<ScoredCandidate>> all(reads.size());
    parallelFor(reads.size(), _cfg.threads, [&](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i)
            all[i] = buildReadCandidates(_index, _ref, _cfg, reads[i]);
    });

    std::vector<simd::ExtendJob> jobs;
    std::vector<BandedExtendScore *> hints;
    u64 total_cands = 0;
    for (const auto &cands : all)
        total_cands += cands.size();
    jobs.reserve(2 * total_cands);
    hints.reserve(2 * total_cands);
    for (auto &cands : all)
        gatherJobs(cands, jobs, hints);
    constexpr u64 kLaneGroup = 16;
    const u64 groups = (jobs.size() + kLaneGroup - 1) / kLaneGroup;
    parallelFor(groups, _cfg.threads, [&](u64 lo, u64 hi) {
        scoreJobs(jobs, hints, lo * kLaneGroup,
                  std::min<u64>(jobs.size(), hi * kLaneGroup), _cfg);
    });

    std::vector<Mapping> out(reads.size());
    parallelFor(reads.size(), _cfg.threads, [&](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i) {
            applyHints(all[i], _cfg);
            out[i] = selectAndFinish(all[i], _cfg, reads[i].size());
            all[i].clear();
            all[i].shrink_to_fit();
        }
    });
    return out;
}

} // namespace genax

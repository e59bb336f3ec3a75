#include "swbase/paired.hh"

#include <algorithm>
#include <cmath>

namespace genax {

namespace {

/**
 * Gaussian insert-size score penalty for a candidate pair; sets
 * `proper` and `tlen` as side results.
 */
i32
pairPenalty(const Mapping &a, const Mapping &b, const PairedConfig &cfg,
            bool &proper, i64 &tlen)
{
    proper = false;
    tlen = 0;
    if (!a.mapped || !b.mapped || a.reverse == b.reverse)
        return cfg.unpairedPenalty;

    const Mapping &fwd = a.reverse ? b : a;
    const Mapping &rev = a.reverse ? a : b;
    const i64 frag_end =
        static_cast<i64>(rev.pos) + static_cast<i64>(rev.cigar.refLen());
    tlen = frag_end - static_cast<i64>(fwd.pos);
    if (tlen <= 0)
        return cfg.unpairedPenalty;

    const double z =
        (static_cast<double>(tlen) - cfg.insertMean) / cfg.insertSd;
    if (std::abs(z) > cfg.maxZ)
        return cfg.unpairedPenalty;
    proper = true;
    return std::min<i32>(cfg.unpairedPenalty,
                         static_cast<i32>(std::lround(z * z / 2.0)));
}

/** Single-end MAPQ from a sorted candidate list. */
u8
soloMapq(const std::vector<Mapping> &c)
{
    return marginMapq(c[0].score, c.size() > 1 ? c[1].score : INT32_MIN);
}

} // namespace

PairMapping
resolvePair(const std::vector<Mapping> &c1,
            const std::vector<Mapping> &c2, const PairedConfig &cfg)
{
    PairMapping out;
    if (c1.empty() && c2.empty())
        return out;
    if (c1.empty() || c2.empty()) {
        // Only one mate maps: single-end resolution for it.
        if (!c1.empty()) {
            out.r1 = c1[0];
            out.r1.mapq = soloMapq(c1);
        }
        if (!c2.empty()) {
            out.r2 = c2[0];
            out.r2.mapq = soloMapq(c2);
        }
        return out;
    }

    i32 best_total = INT32_MIN, second_total = INT32_MIN;
    size_t best_i = 0, best_j = 0;
    bool best_proper = false;
    i64 best_tlen = 0;
    for (size_t i = 0; i < c1.size(); ++i) {
        for (size_t j = 0; j < c2.size(); ++j) {
            bool proper;
            i64 tlen;
            const i32 pen =
                pairPenalty(c1[i], c2[j], cfg, proper, tlen);
            const i32 total = c1[i].score + c2[j].score - pen;
            if (total > best_total) {
                second_total = best_total;
                best_total = total;
                best_i = i;
                best_j = j;
                best_proper = proper;
                best_tlen = tlen;
            } else if (total > second_total) {
                second_total = total;
            }
        }
    }

    out.r1 = c1[best_i];
    out.r2 = c2[best_j];
    out.proper = best_proper;
    out.templateLen = best_tlen;

    out.r1.mapq = out.r2.mapq = marginMapq(best_total, second_total);
    return out;
}

} // namespace genax

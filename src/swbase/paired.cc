#include "swbase/paired.hh"

#include <algorithm>
#include <cmath>

namespace genax {

namespace {

// The pairing model: a Gaussian prior on the fragment length, pairs
// beyond kMaxZ standard deviations improper, and a score cost for
// leaving the mates unpaired.
constexpr double kInsertMean = 300;
constexpr double kInsertSd = 30;
constexpr double kMaxZ = 4.0;
constexpr i32 kUnpairedPenalty = 17;

/**
 * Gaussian insert-size score penalty for a candidate pair; sets
 * `proper` and `tlen` as side results.
 */
i32
pairPenalty(const Mapping &a, const Mapping &b, bool &proper, i64 &tlen)
{
    proper = false;
    tlen = 0;
    if (!a.mapped || !b.mapped || a.reverse == b.reverse)
        return kUnpairedPenalty;

    const Mapping &fwd = a.reverse ? b : a;
    const Mapping &rev = a.reverse ? a : b;
    const i64 frag_end =
        static_cast<i64>(rev.pos) + static_cast<i64>(rev.cigar.refLen());
    tlen = frag_end - static_cast<i64>(fwd.pos);
    if (tlen <= 0)
        return kUnpairedPenalty;

    const double z =
        (static_cast<double>(tlen) - kInsertMean) / kInsertSd;
    if (std::abs(z) > kMaxZ)
        return kUnpairedPenalty;
    proper = true;
    return std::min<i32>(kUnpairedPenalty,
                         static_cast<i32>(std::lround(z * z / 2.0)));
}

} // namespace

PairMapping
resolvePair(const std::vector<Mapping> &c1,
            const std::vector<Mapping> &c2)
{
    PairMapping out;
    if (c1.empty() && c2.empty())
        return out;
    if (c1.empty() || c2.empty()) {
        // Only one mate maps: single-end resolution for it.
        if (!c1.empty()) {
            out.r1 = c1[0];
            out.r1.mapq = rankedMapq(c1);
        }
        if (!c2.empty()) {
            out.r2 = c2[0];
            out.r2.mapq = rankedMapq(c2);
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
            const i32 pen = pairPenalty(c1[i], c2[j], proper, tlen);
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

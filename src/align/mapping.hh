/**
 * @file
 * Read-mapping result shared by the software aligner and the GenAx
 * system model.
 */

#ifndef GENAX_ALIGN_MAPPING_HH
#define GENAX_ALIGN_MAPPING_HH

#include <algorithm>
#include <climits>
#include <vector>

#include "align/cigar.hh"
#include "common/types.hh"

namespace genax {

/** One read's best alignment against the reference. */
struct Mapping
{
    bool mapped = false;
    Pos pos = kNoPos;   //!< 0-based reference position of the first
                        //!< aligned (non-clipped) read base
    bool reverse = false; //!< aligned as the reverse complement
    i32 score = 0;      //!< affine-gap alignment score
    u8 mapq = 0;        //!< mapping confidence (0-60)
    Cigar cigar;        //!< in read orientation as aligned
};

/**
 * The rank rule both engines order a read's placements by: the higher
 * score first, then the forward strand, then the lower position. A
 * strict total order over distinct (position, strand) placements.
 */
inline bool
ranksBefore(const Mapping &a, const Mapping &b)
{
    if (a.score != b.score)
        return a.score > b.score;
    if (a.reverse != b.reverse)
        return !a.reverse;
    return a.pos < b.pos;
}

/**
 * Margin-based mapping quality of the best-scoring placement against
 * the runner-up's score `second` (INT32_MIN when there is none): 60
 * for a lone placement, 0 for a tie, else min(60, 6 * margin).
 */
inline u8
marginMapq(i32 best, i32 second)
{
    if (second == INT32_MIN)
        return 60;
    if (second >= best)
        return 0;
    return static_cast<u8>(std::min<i32>(60, 6 * (best - second)));
}

/** MAPQ of the head of a non-empty list of distinct placements in
 *  rank order: its margin over the runner-up. */
inline u8
rankedMapq(const std::vector<Mapping> &ranked)
{
    return marginMapq(ranked[0].score,
                      ranked.size() > 1 ? ranked[1].score : INT32_MIN);
}

} // namespace genax

#endif // GENAX_ALIGN_MAPPING_HH

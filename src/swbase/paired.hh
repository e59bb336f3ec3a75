/**
 * @file
 * Paired-end alignment on top of the single-end aligner.
 *
 * Real Illumina runs are paired (FR orientation with a fragment-size
 * distribution); BWA-MEM exploits the pair constraint both to rank
 * placements and to rescue a repetitive mate via its uniquely-mapped
 * partner. This module adds the same capability: candidate mappings
 * for both mates are combined under a Gaussian insert-size prior and
 * the best-scoring consistent pair wins.
 */

#ifndef GENAX_SWBASE_PAIRED_HH
#define GENAX_SWBASE_PAIRED_HH

#include <vector>

#include "align/mapping.hh"

namespace genax {

/** A resolved read pair. */
struct PairMapping
{
    Mapping r1;
    Mapping r2;
    bool proper = false; //!< FR orientation within the insert window
    i64 templateLen = 0; //!< signed observed fragment length
};

/**
 * Resolve a mate pair from per-mate lists of distinct placements in
 * rank order (ranksBefore), as either engine's alignAllCandidates
 * produces them. Engine-independent: this is the pairing stage that
 * sits downstream of any single-end aligner.
 */
PairMapping resolvePair(const std::vector<Mapping> &c1,
                        const std::vector<Mapping> &c2);

} // namespace genax

#endif // GENAX_SWBASE_PAIRED_HH

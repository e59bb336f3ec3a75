/**
 * @file
 * Internal per-tier entry points of the SIMD kernel subsystem. Only
 * the dispatch glue (batch_score.cc, myers_batch.cc) includes this;
 * each declaration is compiled into its own translation unit with the
 * matching -m flags and exists only when the corresponding
 * GENAX_SIMD_* macro is defined for the target.
 */

#ifndef GENAX_ALIGN_SIMD_TIERS_HH
#define GENAX_ALIGN_SIMD_TIERS_HH

#include <vector>

#include "align/simd/batch_score.hh"
#include "align/simd/myers_batch.hh"

namespace genax::simd::detail {

#if defined(GENAX_SIMD_SSE41)
/** SSE4.1 inter-sequence banded Extend scoring over eligible jobs
 *  (idx lists indices into jobs/out). */
void scoreExtendBatchSse41(const ExtendJob *jobs, const u32 *idx,
                           size_t count, const Scoring &sc, u32 band,
                           BandedExtendScore *out);
#endif

#if defined(GENAX_SIMD_AVX2)
/** AVX2 (16-lane) inter-sequence banded Extend scoring. */
void scoreExtendBatchAvx2(const ExtendJob *jobs, const u32 *idx,
                          size_t count, const Scoring &sc, u32 band,
                          BandedExtendScore *out);

/** AVX2 4-lane multi-block Myers edit distance over eligible jobs. */
void myersBatchAvx2(const MyersJob *jobs, const u32 *idx, size_t count,
                    u64 *out);
#endif

} // namespace genax::simd::detail

#endif // GENAX_ALIGN_SIMD_TIERS_HH

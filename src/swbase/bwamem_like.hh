/**
 * @file
 * BWA-MEM-like CPU read aligner: the software baseline of Figure 15.
 *
 * The pipeline mirrors the structure of BWA-MEM as described in the
 * paper: SMEM seeding (here against a whole-genome hash index rather
 * than an FM-index — same seeds, better locality, exactly the
 * algorithm the GenAx seeding accelerator implements), anchor
 * deduplication, banded Smith-Waterman-Gotoh extension with clipping
 * in both directions from each seed, and best-score selection across
 * both strands with a simple margin-based MAPQ.
 */

#ifndef GENAX_SWBASE_BWAMEM_LIKE_HH
#define GENAX_SWBASE_BWAMEM_LIKE_HH

#include <vector>

#include "align/mapping.hh"
#include "seed/seed_index.hh"
#include "swbase/anchor.hh"

namespace genax {

/** Software aligner configuration. */
struct AlignerConfig
{
    u32 k = 11;            //!< seeding k-mer length
    SeedingConfig seeding;
    AnchorConfig anchors;
    Scoring scoring;
    u32 band = 16;         //!< extension band (the edit bound K)
    /** Worker threads for the index build and alignAll(); 0 = all
     *  hardware threads. Results are identical at any width. */
    unsigned threads = 1;
};

/** Whole-genome CPU aligner. */
class BwaMemLike
{
  public:
    /** Build the whole-genome index (the expensive offline step). */
    BwaMemLike(const Seq &ref, const AlignerConfig &cfg);

    /** Align with `index`, an index of `ref` built elsewhere (an
     *  index snapshot's borrowed view), instead of building one. Its
     *  k replaces cfg.k. */
    BwaMemLike(const Seq &ref, const AlignerConfig &cfg, SeedIndex index);

    /** Align one read (both strands), returning its best mapping. */
    Mapping alignRead(const Seq &read) const;

    /** Align a batch of reads using cfg.threads workers. */
    std::vector<Mapping> alignAll(const std::vector<Seq> &reads) const;

    /**
     * All distinct candidate mappings of a read (both strands),
     * deduplicated by (position, strand) and sorted by descending
     * score. Used by the paired-end rescuer. MAPQ fields are unset.
     */
    std::vector<Mapping> candidates(const Seq &read,
                                    u32 max_out = 16) const;

    const AlignerConfig &config() const { return _cfg; }
    const SeedIndex &index() const { return _index; }

  private:
    const Seq &_ref;
    AlignerConfig _cfg;
    SeedIndex _index;
};

} // namespace genax

#endif // GENAX_SWBASE_BWAMEM_LIKE_HH

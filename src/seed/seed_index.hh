/**
 * @file
 * The seeding lookup structure every consumer (SmemEngine, BwaMemLike,
 * GenAxSystem and its per-segment windows) compiles against: the
 * cache-conscious FlatKmerIndex.
 *
 * The dense CSR KmerIndex stays a first-class type: it models the
 * paper's hardware tables, and the equivalence tests diff both
 * layouts at run time.
 */

#ifndef GENAX_SEED_SEED_INDEX_HH
#define GENAX_SEED_SEED_INDEX_HH

#include "seed/flat_kmer_index.hh"
#include "seed/kmer_index.hh"

namespace genax {

using SeedIndex = FlatKmerIndex;

} // namespace genax

#endif // GENAX_SEED_SEED_INDEX_HH

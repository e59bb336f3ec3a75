#include "seed/segment.hh"

#include <algorithm>

#include "common/check.hh"

namespace genax {

GenomeSegments::GenomeSegments(const Seq &ref, const SegmentConfig &cfg)
    : _ref(ref), _cfg(cfg)
{
    GENAX_CHECK(cfg.segmentCount > 0, "segment count must be positive");
    GENAX_CHECK(!ref.empty(), "empty reference");

    const u64 base = (ref.size() + cfg.segmentCount - 1) /
                     cfg.segmentCount;
    for (u64 s = 0; s < cfg.segmentCount; ++s) {
        const u64 start = s * base;
        if (start >= ref.size())
            break;
        const u64 end = std::min<u64>(ref.size(),
                                      start + base + cfg.overlap);
        _starts.push_back(start);
        _lengths.push_back(end - start);
    }
}

Seq
GenomeSegments::bases(u64 i) const
{
    GENAX_CHECK(i < count(), "segment index out of range");
    const auto begin = _ref.begin() + static_cast<i64>(_starts[i]);
    return Seq(begin, begin + static_cast<i64>(_lengths[i]));
}

KmerIndex
GenomeSegments::buildIndex(u64 i) const
{
    return KmerIndex(bases(i), _cfg.k);
}

SeedIndex
GenomeSegments::buildSeedIndex(u64 i, unsigned threads) const
{
    return SeedIndex(bases(i), _cfg.k, threads);
}

} // namespace genax

#include "seed/segment.hh"

#include "common/check.hh"

namespace genax {

GenomeSegments::GenomeSegments(std::span<const Base> ref,
                               const SegmentConfig &cfg)
    : _ref(ref), _cfg(cfg), _overlap(std::min<u64>(cfg.overlap, ref.size()))
{
    GENAX_CHECK(cfg.segmentCount > 0, "segment count must be positive");
    GENAX_CHECK(!ref.empty(), "empty reference");
    _base = (ref.size() + cfg.segmentCount - 1) / cfg.segmentCount;
    _count = (ref.size() + _base - 1) / _base;
}

Seq
GenomeSegments::bases(u64 i) const
{
    GENAX_CHECK(i < count(), "segment index out of range");
    const auto seg = _ref.subspan(start(i), length(i));
    return Seq(seg.begin(), seg.end());
}

} // namespace genax

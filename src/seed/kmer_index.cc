#include "seed/kmer_index.hh"

#include <algorithm>

#include "common/check.hh"

namespace genax {

KmerIndex::KmerIndex(const Seq &ref, u32 k)
    : _k(k), _segLen(ref.size())
{
    GENAX_CHECK(k >= 1 && k <= 13, "k out of supported range: ", k);
    const u64 entries = u64{1} << (2 * k);
    _offsets.assign(entries + 1, 0);

    if (ref.size() < k)
        return;
    const u64 kmers = ref.size() - k + 1;

    auto first_key = [&]() {
        u64 key = 0;
        for (u32 i = 0; i < k; ++i)
            key |= static_cast<u64>(ref[i] & 3) << (2 * i);
        return key;
    };
    auto roll = [&](u64 key, u64 next_pos) {
        return (key >> 2) |
               (static_cast<u64>(ref[next_pos] & 3) << (2 * (k - 1)));
    };

    // Pass 1: histogram into offsets[key + 1].
    u64 key = first_key();
    for (u64 p = 0; p < kmers; ++p) {
        ++_offsets[key + 1];
        if (p + 1 < kmers)
            key = roll(key, p + k);
    }
    for (u64 e = 0; e < entries; ++e)
        _offsets[e + 1] += _offsets[e];

    // Pass 2: fill in ascending position order so each k-mer's list
    // is sorted (required for the binary-search fallback).
    _positions.assign(kmers, 0);
    std::vector<u32> cursor(_offsets.begin(), _offsets.end() - 1);
    key = first_key();
    for (u64 p = 0; p < kmers; ++p) {
        _positions[cursor[key]++] = static_cast<u32>(p);
        if (p + 1 < kmers)
            key = roll(key, p + k);
    }

    for (u64 e = 0; e < entries; ++e)
        _maxHits = std::max(_maxHits, _offsets[e + 1] - _offsets[e]);
}

u64
KmerIndex::indexTableBytes() const
{
    return (_offsets.size() - 1) * kEntryBytes;
}

u64
KmerIndex::positionTableBytes() const
{
    return _positions.size() * kEntryBytes;
}

} // namespace genax

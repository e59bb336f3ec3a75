#include "seed/smem_engine.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"

namespace genax {

SmemEngine::SmemEngine(const SeedIndex &index, const SeedingConfig &cfg)
    : _index(index), _cfg(cfg),
      _cam(cfg.camSize, cfg.binarySearchFallback)
{
}

void
SmemEngine::resetStats()
{
    _stats = {};
    _cam.resetStats();
}

PosList
SmemEngine::primeCandidates(std::span<const u32> hits, u32 offset,
                            u64 start)
{
    PosList out{ArenaAllocator<u32>(&_arena)};
    out.reserve(hits.size());
    for (u32 h : hits)
        if (h >= start + offset)
            out.push_back(h - offset);
    return out;
}

ArenaVector<u32>
SmemEngine::exactOffsets(u32 len)
{
    const u32 k = _index.k();
    ArenaVector<u32> offsets{ArenaAllocator<u32>(&_arena)};
    offsets.reserve(len / k + 2);
    for (u32 off = 0; off + k <= len; off += k)
        offsets.push_back(off);
    if (offsets.back() + k != len)
        offsets.push_back(len - k);
    return offsets;
}

std::vector<Smem>
SmemEngine::tryExactMatch(std::span<const u32> offsets,
                          std::span<const Hits> offset_hits, u32 len,
                          u64 start)
{
    // The hardware stops at the first absent k-mer, and so does the
    // lookup count.
    struct Lookup
    {
        u32 offset;
        Hits hits;
    };
    ArenaVector<Lookup> lookups{ArenaAllocator<Lookup>(&_arena)};
    lookups.reserve(offsets.size());
    for (size_t i = 0; i < offsets.size(); ++i) {
        ++_stats.indexLookups;
        if (offset_hits[i].empty())
            return {}; // some k-mer absent
        lookups.push_back({offsets[i], offset_hits[i]});
    }

    // Start from the smallest hit set, intersect in ascending size.
    std::sort(lookups.begin(), lookups.end(),
              [](const Lookup &a, const Lookup &b) {
                  return a.hits.size() < b.hits.size();
              });
    PosList cand =
        primeCandidates(lookups[0].hits, lookups[0].offset, start);
    PosList next{ArenaAllocator<u32>(&_arena)};
    for (size_t i = 1; i < lookups.size() && !cand.empty(); ++i) {
        _cam.intersectInto(cand, lookups[i].hits, lookups[i].offset,
                           next);
        cand.swap(next);
    }
    if (cand.empty())
        return {};
    ++_stats.exactMatchReads;
    ++_stats.smems;
    _stats.hitsReported += cand.size();
    for (u32 &p : cand)
        p -= static_cast<u32>(start);
    Smem smem;
    smem.qryBegin = 0;
    smem.qryEnd = len;
    smem.positions = std::move(cand);
    _stats.cam += _cam.stats();
    _cam.resetStats();
    std::vector<Smem> out;
    out.push_back(std::move(smem));
    return out;
}

std::pair<u32, std::span<const u32>>
SmemEngine::rmem(u32 len, u32 pivot, std::span<const Hits> hits)
{
    const u32 k = _index.k();
    const u32 max_len = len - pivot; // longest possible RMEM

    // Every lookup below reads the hit list seed() resolved for that
    // read offset, and counts one index lookup where the algorithm
    // makes it.
    const auto lookup = [&](u32 t) {
        ++_stats.indexLookups;
        return hits[pivot + t];
    };
    const Hits first = lookup(0);
    if (first.empty())
        return {0, {}};

    // Pivot-normalizing the first hit list (offset 0) is the
    // identity, so the candidate set starts as a zero-copy view of
    // the postings array; intersections ping-pong between two arena
    // buffers and the view tracks the latest result.
    std::span<const u32> cand = first;
    PosList buf_a{ArenaAllocator<u32>(&_arena)};
    PosList buf_b{ArenaAllocator<u32>(&_arena)};
    PosList *next = &buf_a;
    u32 length = k;

    // Extension by an overlapping or abutting k-mer at read offset
    // pivot + t certifies length t + k.
    auto try_extend_hits = [&](u32 t, Hits with) {
        _cam.intersectInto(cand, with, t, *next);
        if (next->empty())
            return false;
        cand = *next;
        next = next == &buf_a ? &buf_b : &buf_a;
        length = t + k;
        return true;
    };
    auto try_extend = [&](u32 t) {
        return try_extend_hits(t, lookup(t));
    };

    // Probing optimization: the expensive case is intersecting the
    // first two k-mers when the second one has a pathological hit
    // list (poly-A etc.). If the stride-k second k-mer overflows the
    // CAM, probe lower strides and start from the smallest list.
    bool probed_failure = false;
    if (_cfg.probing && length + k <= max_len) {
        const u32 t0 = length; // the standard stride-k second k-mer
        const Hits hits0 = lookup(t0);
        u32 best_t = t0;
        Hits best_hits = hits0;
        if (hits0.size() > _cfg.probeThreshold) {
            for (u32 s = k / 2; s >= 1; s /= 2) {
                const u32 t = length - k + s;
                const Hits probe = lookup(t);
                if (probe.size() < best_hits.size()) {
                    best_hits = probe;
                    best_t = t;
                }
                if (s == 1)
                    break;
            }
        }
        probed_failure = !try_extend_hits(best_t, best_hits);
    }

    // Phase A: stride by k while the intersection stays non-empty.
    if (!probed_failure) {
        bool failed = false;
        while (length + k <= max_len) {
            if (!try_extend(length)) {
                failed = true;
                break;
            }
        }
        // Boundary: a final overlapping k-mer can certify the whole
        // remaining read (only sound when it overlaps the certified
        // prefix, i.e. when phase A ran out of room, not when it
        // failed mid-read).
        if (!failed && length < max_len && max_len <= length + k) {
            if (try_extend(max_len - k))
                GENAX_CHECK(length == max_len, "boundary extension");
        }
    }

    // Phase B: binary stride refinement of the final extension. The
    // strides must be powers of two (not k/2, k/4, ... which for
    // non-power-of-two k cannot compose every remainder: with k = 12
    // the set {6, 3, 1} has no subset summing to 2), so that any
    // residual extension in [0, k-1] is reachable.
    if (_cfg.strideRefinement && k >= 2) {
        for (u32 s = std::bit_floor(k - 1); s >= 1; s /= 2) {
            if (length + s <= max_len)
                try_extend(length + s - k);
            if (s == 1)
                break;
        }
    }
    return {length, cand};
}

ArenaVector<u64>
SmemEngine::packKeys(const Seq &read)
{
    // One rolling pass: O(len) total instead of O(k) per pivot.
    const u32 k = _index.k();
    ArenaVector<u64> keys{ArenaAllocator<u64>(&_arena)};
    if (read.size() < k)
        return keys;
    keys.reserve(read.size() - k + 1);
    u64 key = _index.packKmer(read, 0);
    keys.push_back(key);
    for (size_t p = k; p < read.size(); ++p) {
        key = (key >> 2) | (static_cast<u64>(read[p] & 3) << (2 * (k - 1)));
        keys.push_back(key);
    }
    return keys;
}

std::vector<Smem>
SmemEngine::seed(const Seq &read)
{
    // Recycle the previous read's position lists and scratch; see
    // the lifetime note in the header.
    _arena.reset();
    ++_stats.reads;
    const ArenaVector<u64> keys = packKeys(read);
    if (keys.empty())
        return {};
    const u32 len = static_cast<u32>(read.size());
    const u64 start = _index.windowStart();
    if (_cfg.exactMatchFastPath) {
        // Resolve the offsets' k-mers in one batch so the misses of
        // consecutive lookups overlap.
        const ArenaVector<u32> offsets = exactOffsets(len);
        ArenaVector<u64> offset_keys{ArenaAllocator<u64>(&_arena)};
        for (u32 off : offsets)
            offset_keys.push_back(keys[off]);
        ArenaVector<Hits> offset_hits(offsets.size(), Hits{},
                                      ArenaAllocator<Hits>(&_arena));
        _index.lookupBatch(offset_keys, offset_hits);
        if (auto out = tryExactMatch(offsets, offset_hits, len, start);
            !out.empty())
            return out;
    }

    // Resolve every read offset's k-mer once, in one batched pass:
    // rmem() only ever looks up k-mers at read offsets, and the ones
    // a sequencing error makes are absent, which the index's filter
    // answers without a table probe.
    ArenaVector<Hits> hits(keys.size(), Hits{},
                           ArenaAllocator<Hits>(&_arena));
    _index.lookupBatch(keys, hits);
    return smems(len, hits, start);
}

void
SmemEngine::resolve(const Seq &read, ResolvedRead &out)
{
    _arena.reset();
    const ArenaVector<u64> keys = packKeys(read);
    out.resize(keys.size());
    _index.lookupBatch(keys, out);
}

std::vector<Smem>
SmemEngine::seed(const ResolvedRead &read, const SeedIndex &window)
{
    _arena.reset();
    ++_stats.reads;
    if (read.empty())
        return {};
    const u32 len = static_cast<u32>(read.size()) + _index.k() - 1;
    ArenaVector<Hits> hits(read.size(), Hits{},
                           ArenaAllocator<Hits>(&_arena));
    for (size_t p = 0; p < hits.size(); ++p)
        hits[p] = window.clip(read[p]);

    const u64 start = window.windowStart();
    if (_cfg.exactMatchFastPath) {
        const ArenaVector<u32> offsets = exactOffsets(len);
        ArenaVector<Hits> offset_hits{ArenaAllocator<Hits>(&_arena)};
        for (u32 off : offsets)
            offset_hits.push_back(hits[off]);
        if (auto out = tryExactMatch(offsets, offset_hits, len, start);
            !out.empty())
            return out;
    }
    return smems(len, hits, start);
}

std::vector<Smem>
SmemEngine::smems(u32 len, std::span<const Hits> hits, u64 start)
{
    const u32 k = _index.k();
    std::vector<Smem> out;
    u32 max_end = 0;
    for (u32 pivot = 0; pivot + k <= len; ++pivot) {
        auto [length, cand] = rmem(len, pivot, hits);
        if (length == 0)
            continue;
        // SMEM interval sanity: an RMEM certifies at least one whole
        // k-mer, never runs past the read, and always carries the
        // reference positions that witnessed it (sorted, so the CAM
        // and downstream anchoring can merge them).
        GENAX_CHECK(length >= k && pivot + length <= len,
                    "RMEM interval corrupt: pivot=", pivot,
                    " length=", length, " read=", len);
        GENAX_CHECK(!cand.empty(),
                    "RMEM of length ", length, " with no positions");
        GENAX_DCHECK(std::is_sorted(cand.begin(), cand.end()),
                     "RMEM hit positions not sorted");
        const u32 end = pivot + length;
        if (_cfg.smemFilter && end <= max_end)
            continue; // contained in an earlier SMEM
        max_end = std::max(max_end, end);
        ++_stats.smems;
        _stats.hitsReported += cand.size();
        Smem smem;
        smem.qryBegin = pivot;
        smem.qryEnd = end;
        // Materialize the surviving candidate view (rmem()'s span
        // dies at its next call), relative to the window; contained
        // RMEMs — the overwhelming majority — were dropped above
        // without a copy.
        smem.positions = PosList{ArenaAllocator<u32>(&_arena)};
        smem.positions.reserve(cand.size());
        for (const u32 p : cand)
            smem.positions.push_back(p - static_cast<u32>(start));
        out.push_back(std::move(smem));
    }
    _stats.cam += _cam.stats();
    _cam.resetStats();
    return out;
}

} // namespace genax

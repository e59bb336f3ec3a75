#include "seed/flat_kmer_index.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/check.hh"
#include "common/threadpool.hh"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace genax {

// The entry array is serialized into (and aliased out of) on-disk
// snapshots verbatim; any layout drift silently invalidates every
// existing snapshot, so pin it at compile time.
static_assert(sizeof(FlatKmerIndex::Entry) == 16);
static_assert(std::is_trivially_copyable_v<FlatKmerIndex::Entry>);
static_assert(offsetof(FlatKmerIndex::Entry, key) == 0);
static_assert(offsetof(FlatKmerIndex::Entry, offset) == 8);
static_assert(offsetof(FlatKmerIndex::Entry, count) == 12);
// The table fill CASes the key word in place.
static_assert(alignof(FlatKmerIndex::Entry) >=
              std::atomic_ref<u64>::required_alignment);

namespace {

/** Longest indexable reference: 2^31 bases keep every postings offset
 *  and position within 31 bits, so a fill word (see FillWords) holds
 *  an offset, a 26-bit key and a first-occurrence field in 63. */
constexpr u64 kMaxIndexedBases = u64{1} << 31;

/** Arrays from this size up ask for transparent huge pages. */
constexpr size_t kHugePageAdviceBytes = size_t{4} << 20;

/** Keys are bucketed by at most this many top bits, so one runner's
 *  scatter cursors (and the lines they write) stay cache-resident. */
constexpr u32 kMaxBucketBits = 12;

/** Buckets hold at most this many words before they are radix- rather
 *  than insertion-sorted. */
constexpr u64 kInsertionSortWords = 32;

/** The table fill reads the reference and probes the table for this
 *  many keys at a time, so their cache misses overlap. */
constexpr u64 kInsertGroup = 16;

/** lookupBatch() keeps the filter words, then the table lines, of
 *  this many keys in flight. */
constexpr size_t kLookupGroup = 32;

/** Width of a fill word's first-occurrence field. Ties in it are
 *  broken by reading the postings (about one comparison in 2^8), so
 *  it only has to make them rare. It is fixed rather than as wide as
 *  the word allows so that ties occur at every reference size, the
 *  tests' small ones included. */
constexpr u32 kPriorityBits = 8;

/** Bucket keys by their top bits: about four k-mers per bucket, and at
 *  most 2^kMaxBucketBits buckets. */
u32
bucketBits(u32 k, u64 kmers)
{
    return std::min<u32>(std::bit_width(kmers / 4),
                         std::min(2 * k, kMaxBucketBits));
}

/** Packed keys of a reference's k-mers in position order, in
 *  FlatKmerIndex::packKmer's layout (base i in bits 2i..2i+1). */
class KmerKeys
{
  public:
    KmerKeys(const Seq &ref, u32 k, u64 pos)
        : _ref(ref), _top(2 * (k - 1)), _next(pos + k)
    {
        for (u32 i = 0; i < k; ++i)
            _key |= static_cast<u64>(ref[pos + i] & 3) << (2 * i);
    }

    u64 key() const { return _key; }

    /** Roll to the next k-mer; stays on the last one at the end. */
    void
    advance()
    {
        if (_next < _ref.size())
            _key = (_key >> 2) |
                   (static_cast<u64>(_ref[_next++] & 3) << _top);
    }

  private:
    const Seq &_ref;
    u32 _top;
    u64 _next;
    u64 _key = 0;
};

void
prefetchForRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 1);
#else
    (void)p;
#endif
}

void
prefetchForWrite(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 1, 1);
#else
    (void)p;
#endif
}

/**
 * The key word a slot holds while the table fills: from the top, the
 * key's first occurrence cut to kPriorityBits (its top bits out of the
 * positions' range), its postings extent start, and the key. Bit 63
 * stays clear, so every word orders before kEmptyKey. An 8-byte CAS
 * moves a key with everything the decode pass needs, and comparing
 * two words' top fields orders their keys by first occurrence; only
 * equal fields read the postings.
 */
struct FillWords
{
    u32 keyBits;   //!< 2k
    u32 extBits;   //!< bits of a postings offset or a position
    u32 prioShift; //!< first occurrence >> prioShift is the top field
    const u32 *positions; //!< positions[extent start] is the key's
                          //!< first occurrence

    FillWords(u32 k, u64 kmers, const u32 *postings)
        : keyBits(2 * k),
          extBits(static_cast<u32>(std::bit_width(kmers - 1))),
          prioShift(extBits -
                    std::min(extBits, std::min(kPriorityBits,
                                               63 - keyBits - extBits))),
          positions(postings)
    {
    }

    u64
    encode(u64 key, u64 ext) const
    {
        return u64{positions[ext] >> prioShift} << (keyBits + extBits) |
               ext << keyBits | key;
    }

    u64 key(u64 w) const { return w & ((u64{1} << keyBits) - 1); }

    u64
    ext(u64 w) const
    {
        return (w >> keyBits) & ((u64{1} << extBits) - 1);
    }

    /** True when a's key first occurs before b's (b may be empty). */
    bool
    earlier(u64 a, u64 b) const
    {
        const u64 ta = a >> (keyBits + extBits);
        const u64 tb = b >> (keyBits + extBits);
        if (ta != tb)
            return ta < tb;
        return positions[ext(a)] < positions[ext(b)];
    }
};

} // namespace

/**
 * The building constructor's phases. A counting sort of every k-mer's
 * (key << 32 | position) word by bucket (bucket = key >> lowBits, so
 * bucket order is key order), then a sort inside each bucket, gives
 * the postings in key order with each key's positions ascending, and
 * a bitmap marks where each key's extent starts. The table is then
 * filled by ordered linear probing with first occurrence as the
 * priority, which reproduces the layout of inserting the keys in
 * reference order (DESIGN.md §6b-bis) at any width.
 */
struct FlatKmerIndex::Builder
{
    FlatKmerIndex &idx;
    const Seq &ref;
    u64 kmers;
    unsigned width;
    u32 lowBits;
    u64 buckets;
    /** Bit j is set when postings entry j starts a key's extent. */
    std::vector<u64> starts;

    Builder(FlatKmerIndex &index, const Seq &r, u64 n, unsigned threads)
        : idx(index), ref(r), kmers(n),
          width(ThreadPool::resolveWidth(threads)),
          lowBits(2 * index._k - bucketBits(index._k, n)),
          buckets(u64{1} << (2 * index._k - lowBits)),
          starts((n + 63) / 64, 0)
    {
    }

    /** Every k-mer as a (key << 32 | position) word, grouped by bucket
     *  and ascending by position inside one: a counting sort over
     *  position ranges, rolling the keys once to count and once to
     *  scatter. */
    std::vector<u64, UninitAllocator<u64>>
    wordsByBucket(std::vector<u32> &bucket_start) const
    {
        const u64 ranges = width;
        auto rangeOf = [&](u64 r) {
            return std::pair{kmers * r / ranges, kmers * (r + 1) / ranges};
        };
        // cursor[r * buckets + b]: where range r writes bucket b's next
        // word. Ranges write in range order within a bucket.
        std::vector<u32> cursor(ranges * buckets, 0);
        parallelFor(ranges, width, [&](unsigned, u64 lo, u64 hi) {
            for (u64 r = lo; r < hi; ++r) {
                u32 *count = &cursor[r * buckets];
                const auto [p0, p1] = rangeOf(r);
                if (p0 == p1)
                    continue;
                KmerKeys keys(ref, idx._k, p0);
                for (u64 p = p0; p < p1; ++p, keys.advance())
                    ++count[keys.key() >> lowBits];
            }
        }, 1);
        u32 at = 0;
        for (u64 b = 0; b < buckets; ++b) {
            bucket_start[b] = at;
            for (u64 r = 0; r < ranges; ++r) {
                const u32 n = cursor[r * buckets + b];
                cursor[r * buckets + b] = at;
                at += n;
            }
        }
        bucket_start[buckets] = at;
        std::vector<u64, UninitAllocator<u64>> words(kmers);
        parallelFor(ranges, width, [&](unsigned, u64 lo, u64 hi) {
            for (u64 r = lo; r < hi; ++r) {
                u32 *next = &cursor[r * buckets];
                const auto [p0, p1] = rangeOf(r);
                if (p0 == p1)
                    continue;
                KmerKeys keys(ref, idx._k, p0);
                for (u64 p = p0; p < p1; ++p, keys.advance())
                    words[next[keys.key() >> lowBits]++] =
                        keys.key() << 32 | p;
            }
        }, 1);
        return words;
    }

    /** Order each bucket's words by key, in place, in parallel over
     *  buckets; a word's position breaks ties, so a key's positions
     *  stay ascending. */
    void
    sortBuckets(u64 *words, const std::vector<u32> &bucket_start) const
    {
        if (lowBits == 0)
            return; // a bucket holds one key
        std::vector<std::vector<u64>> scratch(width);
        parallelFor(buckets, width, [&](unsigned slot, u64 lo, u64 hi) {
            for (u64 b = lo; b < hi; ++b) {
                u64 *first = words + bucket_start[b];
                const u64 m = bucket_start[b + 1] - bucket_start[b];
                if (m <= kInsertionSortWords) {
                    for (u64 i = 1; i < m; ++i) {
                        const u64 w = first[i];
                        u64 j = i;
                        for (; j > 0 && first[j - 1] > w; --j)
                            first[j] = first[j - 1];
                        first[j] = w;
                    }
                    continue;
                }
                // Stable LSD radix sort on the key bits below the
                // bucket index, a byte per pass, through runner
                // scratch.
                std::vector<u64> &tmp = scratch[slot];
                tmp.resize(std::max<u64>(tmp.size(), m));
                u64 *src = first, *dst = tmp.data();
                for (u32 shift = 32; shift < 32 + lowBits; shift += 8) {
                    u32 at[257] = {};
                    for (u64 i = 0; i < m; ++i)
                        ++at[((src[i] >> shift) & 255) + 1];
                    std::partial_sum(at, at + 257, at);
                    for (u64 i = 0; i < m; ++i)
                        dst[at[(src[i] >> shift) & 255]++] = src[i];
                    std::swap(src, dst);
                }
                if (src != first)
                    std::copy(src, src + m, first);
            }
        });
    }

    /** Postings and extent starts from the sorted words, in parallel
     *  over 64-entry runs (one bitmap word each). */
    void
    extractPostings(const u64 *words)
    {
        idx._positions.resize(kmers);
        parallelFor(starts.size(), width, [&](unsigned, u64 lo, u64 hi) {
            for (u64 w = lo; w < hi; ++w) {
                u64 bits = 0;
                const u64 end = std::min(kmers, 64 * w + 64);
                for (u64 j = 64 * w; j < end; ++j) {
                    idx._positions[j] = static_cast<u32>(words[j]);
                    if (j == 0 || (words[j] >> 32) != (words[j - 1] >> 32))
                        bits |= u64{1} << (j % 64);
                }
                starts[w] = bits;
            }
        });
        idx._distinct = 0;
        for (const u64 bits : starts)
            idx._distinct += static_cast<u64>(std::popcount(bits));
    }

    /** Insert one fill word by ordered linear probing: the word of
     *  the key that first occurs earlier takes the slot, and the one
     *  it displaces moves on. A slot only ever takes an earlier key,
     *  so concurrent inserts reach the same layout as serial ones. */
    template <bool Concurrent>
    void
    insert(const FillWords &fw, u64 word, u64 slot) const
    {
        Entry *table = idx._table.data();
        for (;; slot = (slot + 1) & idx._mask) {
            u64 &cell = table[slot].key;
            u64 cur = Concurrent ? std::atomic_ref<u64>(cell).load(
                                       std::memory_order_relaxed)
                                 : cell;
            if (!fw.earlier(word, cur))
                continue;
            if constexpr (Concurrent) {
                while (!std::atomic_ref<u64>(cell).compare_exchange_weak(
                           cur, word, std::memory_order_relaxed) &&
                       fw.earlier(word, cur)) {
                }
                if (!fw.earlier(word, cur))
                    continue; // an earlier key took the slot first
            } else {
                cell = word;
            }
            if (cur == kEmptyKey)
                return;
            word = cur;
        }
    }

    /** Set a key's presence-filter bits; bits only ever get set, so
     *  concurrent runners need only an atomic OR. */
    template <bool Concurrent>
    void
    markPresent(FilterProbe p) const
    {
        u64 &w = idx._filter[p.word];
        if constexpr (Concurrent)
            std::atomic_ref<u64>(w).fetch_or(p.bits,
                                             std::memory_order_relaxed);
        else
            w |= p.bits;
    }

    /** Insert the keys whose extents start in bitmap words [lo, hi)
     *  and mark them in the filter. Each group of kInsertGroup keys
     *  prefetches its reference k-mers, then its home slots and
     *  filter words, then inserts. */
    template <bool Concurrent>
    void
    fillRange(const FillWords &fw, u64 lo, u64 hi) const
    {
        const u32 *positions = idx._positions.data();
        u64 ext[kInsertGroup], word[kInsertGroup], home[kInsertGroup];
        FilterProbe present[kInsertGroup];
        u64 n = 0;
        auto flush = [&] {
            for (u64 i = 0; i < n; ++i)
                prefetchForRead(ref.data() + positions[ext[i]]);
            for (u64 i = 0; i < n; ++i) {
                const u64 key = idx.packKmer(ref, positions[ext[i]]);
                word[i] = fw.encode(key, ext[i]);
                home[i] = idx.slotOf(key);
                present[i] = filterProbe(key, idx._filter.size());
                prefetchForWrite(&idx._table[home[i]]);
                prefetchForWrite(&idx._filter[present[i].word]);
            }
            for (u64 i = 0; i < n; ++i) {
                insert<Concurrent>(fw, word[i], home[i]);
                markPresent<Concurrent>(present[i]);
            }
            n = 0;
        };
        for (u64 w = lo; w < hi; ++w) {
            for (u64 bits = starts[w]; bits != 0; bits &= bits - 1) {
                ext[n++] = 64 * w + static_cast<u64>(std::countr_zero(bits));
                if (n == kInsertGroup)
                    flush();
            }
        }
        flush();
    }

    /** Fill the table with every key's fill word and the filter with
     *  its bits, in parallel over runs of the extent-start bitmap;
     *  width 1 skips the atomics. */
    void
    fillTable() const
    {
        const FillWords fw(idx._k, kmers, idx._positions.data());
        if (width <= 1) {
            fillRange<false>(fw, 0, starts.size());
            return;
        }
        parallelFor(starts.size(), width, [&](unsigned, u64 lo, u64 hi) {
            fillRange<true>(fw, lo, hi);
        });
    }

    /** First extent start at or after postings entry j (kmers when
     *  none is left). */
    u64
    nextStart(u64 j) const
    {
        u64 w = j / 64;
        if (w >= starts.size())
            return kmers;
        u64 bits = starts[w] & (~u64{0} << (j % 64));
        while (bits == 0) {
            if (++w == starts.size())
                return kmers;
            bits = starts[w];
        }
        return 64 * w + static_cast<u64>(std::countr_zero(bits));
    }

    /** Turn every fill word into its {key, offset, count} entry, in
     *  parallel over slot ranges. */
    void
    decodeTable()
    {
        const FillWords fw(idx._k, kmers, idx._positions.data());
        std::vector<u32> max_hits(width, 0);
        parallelFor(idx._table.size(), width,
                    [&](unsigned slot, u64 lo, u64 hi) {
            u32 max_hit = max_hits[slot];
            for (u64 s = lo; s < hi; ++s) {
                Entry &e = idx._table[s];
                if (e.key == kEmptyKey)
                    continue;
                const u64 ext = fw.ext(e.key);
                const auto count =
                    static_cast<u32>(nextStart(ext + 1) - ext);
                e = {fw.key(e.key), static_cast<u32>(ext), count};
                max_hit = std::max(max_hit, count);
            }
            max_hits[slot] = max_hit;
        });
        idx._maxHits = *std::max_element(max_hits.begin(), max_hits.end());
    }
};

FlatKmerIndex::FlatKmerIndex(const Seq &ref, u32 k, unsigned threads)
    : _k(k), _segLen(ref.size())
{
    GENAX_CHECK(k >= 1 && k <= 13, "k out of supported range: ", k);
    GENAX_CHECK(ref.size() <= kMaxIndexedBases,
                "reference too long for a flat index: ", ref.size(),
                " bases (at most 2^31)");
    if (ref.size() < k) {
        // Even the empty table needs one probe-able slot.
        _table.assign(2, Entry{});
        _mask = 1;
        _filter.assign(filterWords(0), 0);
        bindOwned();
        return;
    }
    const u64 kmers = ref.size() - k + 1;
    Builder b(*this, ref, kmers, threads);
    {
        // The sort buffer is freed before the table is allocated, so
        // the two are never held at once.
        std::vector<u32> bucket_start(b.buckets + 1);
        auto words = b.wordsByBucket(bucket_start);
        b.sortBuckets(words.data(), bucket_start);
        b.extractPostings(words.data());
    }

    // <= 50% load so linear probe chains stay short, sized for the
    // worst case (every k-mer distinct). Allocated uninitialized and
    // first touched by the runners that fill it, as is the filter.
    const u64 slots = std::bit_ceil(std::max<u64>(16, 2 * kmers));
    _table.resize(slots);
    _mask = slots - 1;
    parallelFor(slots, b.width, [&](unsigned, u64 lo, u64 hi) {
        std::fill(_table.begin() + static_cast<i64>(lo),
                  _table.begin() + static_cast<i64>(hi), Entry{});
    });
    _filter.resize(filterWords(_distinct));
    parallelFor(_filter.size(), b.width, [&](unsigned, u64 lo, u64 hi) {
        std::fill(_filter.begin() + static_cast<i64>(lo),
                  _filter.begin() + static_cast<i64>(hi), u64{0});
    });
    b.fillTable();
    b.decodeTable();
    bindOwned();
}

void
FlatKmerIndex::adviseHugePages(void *p, size_t bytes)
{
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (bytes < kHugePageAdviceBytes)
        return;
    // madvise wants whole pages: advise the ones inside the array.
    const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
    const auto begin = reinterpret_cast<uintptr_t>(p);
    const uintptr_t lo = (begin + page - 1) & ~(page - 1);
    const uintptr_t hi = (begin + bytes) & ~(page - 1);
    if (hi > lo)
        (void)::madvise(reinterpret_cast<void *>(lo), hi - lo,
                        MADV_HUGEPAGE);
#else
    (void)p;
    (void)bytes;
#endif
}

void
FlatKmerIndex::lookupBatch(std::span<const u64> keys,
                           std::span<std::span<const u32>> hits) const
{
    GENAX_DCHECK(hits.size() == keys.size(), "lookupBatch: ",
                 hits.size(), " outputs for ", keys.size(), " keys");
    FilterProbe probes[kLookupGroup];
    size_t passed[kLookupGroup];
    for (size_t g = 0; g < keys.size(); g += kLookupGroup) {
        const size_t n = std::min(kLookupGroup, keys.size() - g);
        for (size_t i = 0; i < n; ++i) {
            probes[i] = filterProbe(keys[g + i], _filterWords);
            prefetchForRead(&_filterPtr[probes[i].word]);
        }
        size_t m = 0;
        for (size_t i = 0; i < n; ++i) {
            if ((_filterPtr[probes[i].word] & probes[i].bits) !=
                probes[i].bits) {
                hits[g + i] = {};
                continue;
            }
            prefetchForRead(&_tablePtr[slotOf(keys[g + i])]);
            passed[m++] = g + i;
        }
        for (size_t j = 0; j < m; ++j)
            hits[passed[j]] = clip(probe(keys[passed[j]]));
    }
}

FlatKmerIndex
FlatKmerIndex::view(std::span<const Entry> table,
                    std::span<const u32> positions,
                    std::span<const u64> filter, u32 k, u64 seg_len,
                    u32 max_hits, u64 distinct)
{
    GENAX_CHECK(k >= 1 && k <= 13, "k out of supported range: ", k);
    GENAX_CHECK(table.size() >= 2 && std::has_single_bit(table.size()),
                "view table size must be a power of two >= 2, got ",
                table.size());
    GENAX_CHECK(filter.size() == filterWords(distinct),
                "view filter has ", filter.size(), " words, want ",
                filterWords(distinct));
    FlatKmerIndex idx;
    idx._k = k;
    idx._segLen = seg_len;
    idx._maxHits = max_hits;
    idx._distinct = distinct;
    idx._mask = table.size() - 1;
    idx._tablePtr = table.data();
    idx._slots = table.size();
    idx._posPtr = positions.data();
    idx._posCount = positions.size();
    idx._filterPtr = filter.data();
    idx._filterWords = filter.size();
    return idx;
}

FlatKmerIndex
FlatKmerIndex::window(u64 start, u64 len) const
{
    GENAX_CHECK(_winEnd == kEmptyKey && start <= _segLen &&
                    len <= _segLen - start,
                "window [", start, ", ", start + len,
                ") is not inside a whole index of ", _segLen, " bases");
    FlatKmerIndex w = view({_tablePtr, _slots}, {_posPtr, _posCount},
                           {_filterPtr, _filterWords}, _k, len, _maxHits,
                           _distinct);
    w._winStart = start;
    // One past the last k-mer that fits: none when len < k.
    w._winEnd = start + (len >= _k ? len - _k + 1 : 0);
    return w;
}

} // namespace genax

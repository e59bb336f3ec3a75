#include "seed/flat_kmer_index.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/check.hh"
#include "common/threadpool.hh"

namespace genax {

// The entry array is serialized into (and aliased out of) on-disk
// snapshots verbatim; any layout drift silently invalidates every
// existing snapshot, so pin it at compile time.
static_assert(sizeof(FlatKmerIndex::Entry) == 16);
static_assert(std::is_trivially_copyable_v<FlatKmerIndex::Entry>);
static_assert(offsetof(FlatKmerIndex::Entry, key) == 0);
static_assert(offsetof(FlatKmerIndex::Entry, offset) == 8);
static_assert(offsetof(FlatKmerIndex::Entry, count) == 12);

namespace {

/** Longest indexable reference: 2^31 bases keep the table (two slots
 *  per k-mer, rounded up to a power of two) within 2^32 slots, so a
 *  slot index fits the low half of a packed (key << 32 | slot) word
 *  and every postings offset fits a u32. */
constexpr u64 kMaxIndexedBases = u64{1} << 31;

/** Pass 1 prefetches each k-mer's home slot this many k-mers ahead. */
constexpr u64 kInsertAhead = 16;

/** Pass 2 keeps this many table probes in flight per runner. */
constexpr u64 kFillQueue = 16;

/** Buckets hold at most this many keys before they are radix- rather
 *  than insertion-sorted. */
constexpr u64 kInsertionSortKeys = 32;

/** Bucket keys by their top bits: about four k-mers per bucket, and
 *  at most 2^16 buckets so the per-range cursors stay small. */
u32
bucketBits(u32 k, u64 kmers)
{
    return std::min<u32>(std::bit_width(kmers / 4), std::min(2 * k, 16u));
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
prefetchForWrite(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 1, 1);
#else
    (void)p;
#endif
}

/** fn(slot, lo, hi) over [0, n) on `width` runners of the global
 *  pool; width 1 runs inline and never creates the pool. */
template <typename Fn>
void
runRegion(u64 n, unsigned width, Fn &&fn, u64 chunk = 0)
{
    if (width <= 1) {
        if (n > 0)
            fn(0u, u64{0}, n);
        return;
    }
    ThreadPool::global().parallelFor(n, width, fn, chunk);
}

} // namespace

/**
 * The building constructor's phases. Keys are grouped into buckets by
 * their top bits (bucket = key >> lowBits), so bucket order is key
 * order, and pass 1 counts each bucket's keys and k-mers; their
 * prefix sums place every bucket in the key list and in the postings
 * before any key is ordered.
 */
struct FlatKmerIndex::Builder
{
    FlatKmerIndex &idx;
    const Seq &ref;
    u64 kmers;
    unsigned width;
    u32 lowBits;
    u64 buckets;
    /** Keys per bucket, then (after pass 1) each bucket's first
     *  index in the key list; one extra entry closes the last. */
    std::vector<u32> keyStart;
    /** K-mers per bucket, then each bucket's first postings offset. */
    std::vector<u32> postStart;

    Builder(FlatKmerIndex &index, const Seq &r, u64 n, unsigned threads)
        : idx(index), ref(r), kmers(n),
          width(ThreadPool::resolveWidth(threads)),
          lowBits(2 * index._k - bucketBits(index._k, n)),
          buckets(u64{1} << (2 * index._k - lowBits)),
          keyStart(buckets + 1, 0), postStart(buckets + 1, 0)
    {
    }

    /** Pass 1, serial: insert and count every k-mer in reference
     *  order (the order fixes the slot layout), then turn the bucket
     *  counts into starts. */
    void
    insertAll()
    {
        std::vector<Entry> &table = idx._table;
        KmerKeys ahead(ref, idx._k, std::min(kInsertAhead, kmers - 1));
        KmerKeys keys(ref, idx._k, 0);
        for (u64 p = 0; p < kmers; ++p, keys.advance()) {
            prefetchForWrite(&table[idx.slotOf(ahead.key())]);
            ahead.advance();
            const u64 key = keys.key();
            const u64 bucket = key >> lowBits;
            ++postStart[bucket];
            u64 slot = idx.slotOf(key);
            for (;;) {
                Entry &e = table[slot];
                if (e.key == key) {
                    ++e.count;
                    break;
                }
                if (e.key == kEmptyKey) {
                    e.key = key;
                    e.count = 1;
                    ++idx._distinct;
                    ++keyStart[bucket];
                    break;
                }
                slot = (slot + 1) & idx._mask;
            }
        }
        std::exclusive_scan(keyStart.begin(), keyStart.end(),
                            keyStart.begin(), u32{0});
        std::exclusive_scan(postStart.begin(), postStart.end(),
                            postStart.begin(), u32{0});
    }

    /** Every occupied slot as a (key << 32 | slot) word, grouped by
     *  bucket: a parallel counting sort over slot ranges. */
    std::vector<u64>
    keysByBucket() const
    {
        const std::vector<Entry> &table = idx._table;
        const u64 ranges = width;
        const u64 per_range = (table.size() + ranges - 1) / ranges;
        auto slotsOf = [&](u64 r) {
            return std::pair{r * per_range,
                             std::min<u64>(table.size(),
                                           (r + 1) * per_range)};
        };
        // cursor[r * buckets + b]: where range r writes bucket b's
        // next key. Ranges write in range order within a bucket.
        std::vector<u32> cursor(ranges * buckets);
        if (ranges == 1) {
            std::copy(keyStart.begin(), keyStart.end() - 1,
                      cursor.begin());
        } else {
            runRegion(ranges, width, [&](unsigned, u64 lo, u64 hi) {
                for (u64 r = lo; r < hi; ++r) {
                    u32 *count = &cursor[r * buckets];
                    const auto [s0, s1] = slotsOf(r);
                    for (u64 s = s0; s < s1; ++s)
                        if (table[s].key != kEmptyKey)
                            ++count[table[s].key >> lowBits];
                }
            }, 1);
            for (u64 b = 0; b < buckets; ++b) {
                u32 at = keyStart[b];
                for (u64 r = 0; r < ranges; ++r) {
                    const u32 n = cursor[r * buckets + b];
                    cursor[r * buckets + b] = at;
                    at += n;
                }
            }
        }
        std::vector<u64> keys(idx._distinct);
        runRegion(ranges, width, [&](unsigned, u64 lo, u64 hi) {
            for (u64 r = lo; r < hi; ++r) {
                u32 *next = &cursor[r * buckets];
                const auto [s0, s1] = slotsOf(r);
                for (u64 s = s0; s < s1; ++s) {
                    const u64 key = table[s].key;
                    if (key != kEmptyKey)
                        keys[next[key >> lowBits]++] = key << 32 | s;
                }
            }
        }, 1);
        return keys;
    }

    /** Order each bucket's keys and give them consecutive postings
     *  extents from the bucket's start, in parallel over buckets.
     *  Takes the key list by value so it is freed on return, before
     *  the postings are allocated. */
    void
    assignExtents(std::vector<u64> keys)
    {
        std::vector<std::vector<u64>> scratch(width);
        std::vector<u32> max_hits(width, 0);
        runRegion(buckets, width, [&](unsigned slot, u64 lo, u64 hi) {
            u32 max_hit = max_hits[slot];
            for (u64 b = lo; b < hi; ++b) {
                u64 *first = keys.data() + keyStart[b];
                const u64 m = keyStart[b + 1] - keyStart[b];
                u32 offset = postStart[b];
                auto place = [&](u64 word) {
                    Entry &e = idx._table[static_cast<u32>(word)];
                    e.offset = offset;
                    offset += e.count;
                    max_hit = std::max(max_hit, e.count);
                    e.count = 0; // reused as the fill cursor in pass 2
                };
                if (m <= kInsertionSortKeys) {
                    for (u64 i = 1; i < m; ++i) {
                        const u64 w = first[i];
                        u64 j = i;
                        for (; j > 0 && first[j - 1] > w; --j)
                            first[j] = first[j - 1];
                        first[j] = w;
                    }
                } else {
                    // LSD radix sort on the key bits below the bucket
                    // index, a byte per pass, through runner scratch.
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
                    first = src;
                }
                for (u64 i = 0; i < m; ++i)
                    place(first[i]);
            }
            max_hits[slot] = max_hit;
        });
        idx._maxHits = *std::max_element(max_hits.begin(), max_hits.end());
    }

    /** Pass 2: each runner owns a key range cut at bucket bounds (one
     *  contiguous run of postings, about 1/width of them), scans the
     *  reference in position order and fills only its own keys, so
     *  every key's postings ascend. */
    void
    fillPostings()
    {
        idx._positions.assign(kmers, 0);
        std::vector<u64> cut(width + 1, buckets);
        for (unsigned r = 0; r < width; ++r)
            cut[r] = static_cast<u64>(
                std::lower_bound(postStart.begin(), postStart.end(),
                                 kmers * r / width) -
                postStart.begin());
        runRegion(width, width, [&](unsigned, u64 lo, u64 hi) {
            for (u64 r = lo; r < hi; ++r)
                fillRange(cut[r] << lowBits, cut[r + 1] << lowBits);
        }, 1);
    }

    /** Fill the postings of keys in [key_lo, key_hi), keeping up to
     *  kFillQueue prefetched probes in flight (FIFO, so each key's
     *  positions still arrive in ascending order). */
    void
    fillRange(u64 key_lo, u64 key_hi)
    {
        struct Pending
        {
            u64 key;
            u64 slot;
            u32 pos;
        };
        std::vector<Entry> &table = idx._table;
        auto fill = [&](const Pending &q) {
            u64 slot = q.slot;
            while (table[slot].key != q.key)
                slot = (slot + 1) & idx._mask;
            Entry &e = table[slot];
            idx._positions[e.offset + e.count++] = q.pos;
        };
        Pending queue[kFillQueue];
        u64 queued = 0;
        KmerKeys keys(ref, idx._k, 0);
        for (u64 p = 0; p < kmers; ++p, keys.advance()) {
            const u64 key = keys.key();
            if (key - key_lo >= key_hi - key_lo)
                continue;
            const u64 slot = idx.slotOf(key);
            prefetchForWrite(&table[slot]);
            Pending &q = queue[queued % kFillQueue];
            if (queued >= kFillQueue)
                fill(q);
            q = {key, slot, static_cast<u32>(p)};
            ++queued;
        }
        for (u64 i = queued > kFillQueue ? queued - kFillQueue : 0;
             i < queued; ++i)
            fill(queue[i % kFillQueue]);
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
        bindOwned();
        return;
    }
    const u64 kmers = ref.size() - k + 1;

    // <= 50% load so linear probe chains stay short; the table is
    // sized for the worst case (every k-mer distinct) to keep the
    // build single-pass over the upserts.
    const u64 slots = std::bit_ceil(std::max<u64>(16, 2 * kmers));
    _table.assign(slots, Entry{});
    _mask = slots - 1;

    // Postings extents go out in ascending key order, so the layout
    // (and hence any iteration the tests do) is independent of the
    // hash function and table size.
    Builder b(*this, ref, kmers, threads);
    b.insertAll();
    b.assignExtents(b.keysByBucket());
    b.fillPostings();
    bindOwned();
}

FlatKmerIndex::FlatKmerIndex(const FlatKmerIndex &other)
    : _k(other._k), _segLen(other._segLen), _maxHits(other._maxHits),
      _distinct(other._distinct), _mask(other._mask),
      _table(other._table), _positions(other._positions),
      _tablePtr(other._tablePtr), _slots(other._slots),
      _posPtr(other._posPtr), _posCount(other._posCount)
{
    if (!other.borrowed())
        bindOwned();
}

FlatKmerIndex &
FlatKmerIndex::operator=(const FlatKmerIndex &other)
{
    if (this != &other) {
        _k = other._k;
        _segLen = other._segLen;
        _maxHits = other._maxHits;
        _distinct = other._distinct;
        _mask = other._mask;
        _table = other._table;
        _positions = other._positions;
        _tablePtr = other._tablePtr;
        _slots = other._slots;
        _posPtr = other._posPtr;
        _posCount = other._posCount;
        if (!other.borrowed())
            bindOwned();
    }
    return *this;
}

FlatKmerIndex
FlatKmerIndex::view(std::span<const Entry> table,
                    std::span<const u32> positions, u32 k, u64 seg_len,
                    u32 max_hits, u64 distinct)
{
    GENAX_CHECK(k >= 1 && k <= 13, "k out of supported range: ", k);
    GENAX_CHECK(table.size() >= 2 && std::has_single_bit(table.size()),
                "view table size must be a power of two >= 2, got ",
                table.size());
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
    return idx;
}

} // namespace genax

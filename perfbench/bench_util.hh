/**
 * @file
 * The rules of the benchmark driver that are worth testing on their
 * own: the percentile rule, the open-loop arrival schedule, the
 * SAM-versus-truth check and span self time (tests in
 * perfbench/test_bench_util.cc).
 */

#ifndef GENAX_PERFBENCH_BENCH_UTIL_HH
#define GENAX_PERFBENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace perfbench {

using genax::i64;
using genax::u32;
using genax::u64;

// ------------------------------------------------------------------
// Percentiles

/**
 * Nearest-rank percentile: the smallest sample that has at least a
 * share q of the sample at or below it (q in (0, 1]). An empty sample
 * gives 0. For an odd count, q = 0.5 is the ordinary median.
 */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // The epsilon keeps q * n from rounding up past an exact rank
    // (0.9 * 100 is 90.00000000000001 in binary floating point).
    const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** A percentile is reported as supported when at least ten samples
 *  lie beyond it. */
inline bool
percentileSupported(size_t n, double q)
{
    return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

// ------------------------------------------------------------------
// Open-loop arrivals

/**
 * Due times, in seconds from the window start, of a Poisson arrival
 * process at `rate` arrivals per second over `seconds`. The same seed
 * gives the same schedule.
 */
inline std::vector<double>
poissonSchedule(u64 seed, double rate, double seconds)
{
    genax::Rng rng(seed);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.real()) / rate;
        if (t >= seconds)
            return due;
        due.push_back(t);
    }
}

// ------------------------------------------------------------------
// SAM records against simulated truth

/** The fields of one SAM alignment line the accuracy rule reads. */
struct SamPlacement
{
    std::string_view qname;
    u32 flag = 0;
    u64 pos1 = 0; //!< 1-based POS, 0 when unmapped
};

/** Parse QNAME, FLAG and POS of a SAM alignment line; nullopt for a
 *  header line or a line with fewer than four fields. */
inline std::optional<SamPlacement>
parseSamPlacement(std::string_view line)
{
    if (line.empty() || line[0] == '@')
        return std::nullopt;
    std::string_view field[4];
    size_t at = 0;
    for (int f = 0; f < 4; ++f) {
        const size_t tab = line.find('\t', at);
        if (tab == std::string_view::npos && f < 3)
            return std::nullopt;
        field[f] = line.substr(at, tab == std::string_view::npos
                                       ? std::string_view::npos
                                       : tab - at);
        at = tab + 1;
    }
    SamPlacement p;
    p.qname = field[0];
    p.flag = static_cast<u32>(
        std::strtoul(std::string(field[1]).c_str(), nullptr, 10));
    p.pos1 = std::strtoull(std::string(field[3]).c_str(), nullptr, 10);
    return p;
}

/**
 * evaluateAccuracy's rule (readsim/eval.hh) applied to one SAM
 * record of a single-contig reference: the read is mapped, on the
 * true strand, and its 0-based position is within `tolerance` of the
 * simulated truth.
 */
inline bool
placementCorrect(const SamPlacement &p, u64 truth_pos, bool truth_reverse,
                 i64 tolerance = 12)
{
    constexpr u32 kUnmapped = 0x4, kReverse = 0x10;
    if ((p.flag & kUnmapped) != 0 || p.pos1 == 0)
        return false;
    if (((p.flag & kReverse) != 0) != truth_reverse)
        return false;
    const i64 delta =
        static_cast<i64>(p.pos1 - 1) - static_cast<i64>(truth_pos);
    return std::llabs(delta) <= tolerance;
}

// ------------------------------------------------------------------
// Spans

/** One timed interval around a call into the program. */
struct Span
{
    std::string name;
    u64 id = 0;
    u64 parent = 0;  //!< 0 = root
    u64 request = 0; //!< shared by every span of one served request
    double start = 0.0; //!< seconds since the tracer started
    double end = 0.0;
    u64 tid = 0;
};

/**
 * Self time of spans[i]: its duration minus the part of its interval
 * covered by its direct children (overlapping children count once).
 */
inline double
selfSeconds(const std::vector<Span> &spans, size_t i)
{
    const Span &s = spans[i];
    std::vector<std::pair<double, double>> kids;
    for (const Span &c : spans)
        if (c.parent == s.id && c.id != s.id)
            kids.emplace_back(std::max(c.start, s.start),
                              std::min(c.end, s.end));
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    bool open = false;
    for (const auto &[a, b] : kids) {
        if (b <= a)
            continue;
        if (open && a <= hi) {
            hi = std::max(hi, b);
            continue;
        }
        if (open)
            covered += hi - lo;
        lo = a;
        hi = b;
        open = true;
    }
    if (open)
        covered += hi - lo;
    return (s.end - s.start) - covered;
}

/** Summed self time per span name. */
inline std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += selfSeconds(spans, i);
    return out;
}

/**
 * In-memory span recorder, safe to use from several threads. Spans
 * are written out once, as Chrome trace-event JSON, when the run
 * ends.
 */
class Tracer
{
  public:
    Tracer() : _t0(std::chrono::steady_clock::now()) {}

    /** Open a span; returns its id for close() and for children. */
    u64
    open(std::string name, u64 parent = 0, u64 request = 0)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(_mu);
        Span s;
        s.name = std::move(name);
        s.id = _spans.size() + 1;
        s.parent = parent;
        s.request = request;
        s.start = t;
        s.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
        _spans.push_back(std::move(s));
        return _spans.back().id;
    }

    void
    close(u64 id)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(_mu);
        _spans[id - 1].end = t;
    }

    /** Record an already-finished interval given in tracer time. */
    u64
    add(std::string name, double start, double end, u64 parent = 0,
        u64 request = 0)
    {
        const u64 id = open(std::move(name), parent, request);
        std::lock_guard<std::mutex> lock(_mu);
        _spans[id - 1].start = start;
        _spans[id - 1].end = end;
        return id;
    }

    /** Seconds since the tracer started. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _t0)
            .count();
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(_mu);
        return _spans;
    }

    /** Write every span as a Chrome trace-event "X" event. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fputs("{\"traceEvents\":[\n", f);
        const auto all = spans();
        for (size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%llu,\"parent\":%llu,"
                         "\"request\":%llu}}\n",
                         i == 0 ? "" : ",", s.name.c_str(),
                         static_cast<unsigned long long>(s.tid % 1000003),
                         s.start * 1e6, (s.end - s.start) * 1e6,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.request));
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    const std::chrono::steady_clock::time_point _t0;
    mutable std::mutex _mu;
    std::vector<Span> _spans;
};

/** Span scope: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, std::string name, u64 parent = 0,
              u64 request = 0)
        : _t(t), _id(t.open(std::move(name), parent, request))
    {
    }
    ~SpanScope() { _t.close(_id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    u64 id() const { return _id; }

  private:
    Tracer &_t;
    const u64 _id;
};

} // namespace perfbench

#endif // GENAX_PERFBENCH_BENCH_UTIL_HH

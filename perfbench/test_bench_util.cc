// Tests of the benchmark driver's own rules (bench_util.hh).
//
//   cmake -S perfbench -B .bench_build/cmake
//   cmake --build .bench_build/cmake --target perfbench_tests
//   .bench_build/cmake/perfbench_tests

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "bench_util.hh"

using namespace perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v(10);
    std::iota(v.begin(), v.end(), 1.0); // 1..10
    std::reverse(v.begin(), v.end());   // order must not matter
    EXPECT_EQ(percentile(v, 0.5), 5.0);
    EXPECT_EQ(percentile(v, 0.9), 9.0);
    EXPECT_EQ(percentile(v, 1.0), 10.0);
    EXPECT_EQ(percentile(v, 0.01), 1.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
    EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(Percentile, ExactRanksDoNotRoundUp)
{
    // 0.9 * 100 and 0.99 * 1000 are not exact in binary floating
    // point; the rank must still be the 90th and the 990th sample.
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0);
    EXPECT_EQ(percentile(v, 0.9), 90.0);
    std::vector<double> w(1000);
    std::iota(w.begin(), w.end(), 1.0);
    EXPECT_EQ(percentile(w, 0.99), 990.0);
}

TEST(Percentile, SupportNeedsTenSamplesBeyond)
{
    EXPECT_TRUE(percentileSupported(100, 0.9));
    EXPECT_FALSE(percentileSupported(99, 0.9));
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_TRUE(percentileSupported(20, 0.5));
}

TEST(PoissonSchedule, SameSeedSameSchedule)
{
    const auto a = poissonSchedule(42, 500.0, 4.0);
    const auto b = poissonSchedule(42, 500.0, 4.0);
    const auto c = poissonSchedule(43, 500.0, 4.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(PoissonSchedule, RateAndOrder)
{
    const auto due = poissonSchedule(7, 1000.0, 10.0);
    // 10,000 expected arrivals; the standard deviation is 100.
    EXPECT_GT(due.size(), 9500u);
    EXPECT_LT(due.size(), 10500u);
    EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
    EXPECT_GT(due.front(), 0.0);
    EXPECT_LT(due.back(), 10.0);
}

TEST(SamTruth, ParsesPlacement)
{
    EXPECT_FALSE(parseSamPlacement("@HD\tVN:1.6"));
    EXPECT_FALSE(parseSamPlacement(""));
    EXPECT_FALSE(parseSamPlacement("r1\t0\tchr1"));
    const auto p =
        parseSamPlacement("r7\t16\tchr1\t1001\t60\t101M\t*\t0\t0\tACGT\tIIII");
    ASSERT_TRUE(p);
    EXPECT_EQ(p->qname, "r7");
    EXPECT_EQ(p->flag, 16u);
    EXPECT_EQ(p->pos1, 1001u);
}

TEST(SamTruth, ForwardStrandWithinTolerance)
{
    const auto p = parseSamPlacement("r0\t0\tchr1\t1001\t60\t101M\t*\t0\t0\tA\tI");
    ASSERT_TRUE(p);
    // POS is 1-based; truth is 0-based.
    EXPECT_TRUE(placementCorrect(*p, 1000, false));
    EXPECT_TRUE(placementCorrect(*p, 988, false));  // |1000-988| = 12
    EXPECT_TRUE(placementCorrect(*p, 1012, false));
    EXPECT_FALSE(placementCorrect(*p, 987, false)); // 13 away
    EXPECT_FALSE(placementCorrect(*p, 1013, false));
    EXPECT_FALSE(placementCorrect(*p, 1000, true)); // wrong strand
}

TEST(SamTruth, ReverseStrand)
{
    const auto p = parseSamPlacement("r1\t16\tchr1\t51\t60\t101M\t*\t0\t0\tA\tI");
    ASSERT_TRUE(p);
    EXPECT_TRUE(placementCorrect(*p, 50, true));
    EXPECT_FALSE(placementCorrect(*p, 50, false));
    EXPECT_TRUE(placementCorrect(*p, 40, true, 10));
    EXPECT_FALSE(placementCorrect(*p, 40, true, 9));
}

TEST(SamTruth, UnmappedIsNeverCorrect)
{
    const auto p = parseSamPlacement("r2\t4\t*\t0\t0\t*\t*\t0\t0\tA\tI");
    ASSERT_TRUE(p);
    EXPECT_FALSE(placementCorrect(*p, 0, false));
}

namespace {

Span
span(u64 id, u64 parent, double start, double end)
{
    Span s;
    s.name = "s" + std::to_string(id);
    s.id = id;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

} // namespace

TEST(SpanSelfTime, SubtractsTheUnionOfDirectChildren)
{
    const std::vector<Span> spans = {
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 2.0, 5.0),  // overlaps span 2: counted once
        span(4, 1, 8.0, 12.0), // clipped to the parent's end
        span(5, 2, 1.5, 2.5),  // grandchild: only its parent pays
    };
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 0), 10.0 - (4.0 + 2.0));
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 1), 2.0 - 1.0);
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 4), 1.0);
    const auto by_name = selfSecondsByName(spans);
    EXPECT_DOUBLE_EQ(by_name.at("s1"), 4.0);
}

TEST(Tracer, NestedSpansShareRequestAndWriteChromeJson)
{
    Tracer t;
    {
        SpanScope outer(t, "outer", 0, 9);
        SpanScope inner(t, "inner", outer.id(), 9);
    }
    t.add("late", 1.0, 2.0, 1, 9);
    const auto spans = t.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].request, 9u);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_GE(spans[0].end, spans[1].end);
    EXPECT_DOUBLE_EQ(spans[2].end - spans[2].start, 1.0);

    const std::string path = ::testing::TempDir() + "perfbench_trace.json";
    ASSERT_TRUE(t.writeChromeTrace(path));
    std::ifstream f(path);
    std::stringstream s;
    s << f.rdbuf();
    EXPECT_EQ(s.str().rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(s.str().find("\"name\":\"inner\",\"ph\":\"X\""),
              std::string::npos);
    std::remove(path.c_str());
}

/**
 * @file
 * Self-tests of the benchmark's own arithmetic: the percentile and
 * tail rule, span self time and explained share, the digest and its
 * ledger, the result line and the RunResult comparison. run.py runs
 * this before every benchmark run and refuses to measure if it fails.
 *
 *   perfbench_selftest SCRATCH_DIR
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "layers.hh"
#include "report.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    expect(near(percentile(v, 50), 50), "p50 of 1..100 is 50");
    expect(near(percentile(v, 90), 90), "p90 of 1..100 is 90");
    expect(near(percentile(v, 100), 100), "p100 is the maximum");
    expect(near(median({3, 1, 2}), 2), "median of three");
    expect(near(median({}), 0), "median of nothing is 0");
    expect(near(mean({1, 2, 3, 6}), 3), "mean");

    expect(tailRank(9).pct == 0.0, "9 samples support no tail");
    expect(tailRank(20).pct == 50.0 && tailRank(20).beyond == 10,
           "20 samples support p50 with 10 beyond");
    expect(tailRank(99).pct == 50.0, "99 samples do not support p90");
    expect(tailRank(100).pct == 90.0 && tailRank(100).beyond == 10,
           "100 samples support p90 with 10 beyond");
    expect(tailRank(999).pct == 90.0, "999 samples do not support p99");
    expect(tailRank(1000).pct == 99.0, "1000 samples support p99");
    expect(tailRank(10000).pct == 99.9, "10000 samples support p99.9");
}

Span
span(const char *name, std::int64_t start, std::int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

void
testSpans()
{
    expect(unionNs({{0, 10}, {5, 15}, {20, 30}}) == 25,
           "union merges overlaps");
    expect(unionNs({{0, 10}, {10, 20}}) == 20, "union joins touching");
    expect(unionNs({{5, 5}, {7, 3}}) == 0, "empty intervals add nothing");

    const std::vector<Span> spans = {
        span("point", 0, 100, -1),  // 0
        span("run", 10, 30, 0),     // 1
        span("verify", 20, 50, 0),  // 2 overlaps 1
        span("make", 60, 70, 0),    // 3
        span("inner", 12, 18, 1),   // 4
        span("check", 100, 200, -1), // 5
        span("run", 110, 120, 5)    // 6 second call of a layer
    };
    const auto times = layerTimes(spans);
    expect(times.at("point").selfNs == 50 &&
               times.at("point").totalNs == 100 &&
               times.at("point").count == 1,
           "self = 100 - union(10..50, 60..70)");
    expect(times.at("run").selfNs == 14 + 10 &&
               times.at("run").totalNs == 20 + 10 &&
               times.at("run").count == 2,
           "self excludes nested children and sums over calls");
    expect(times.at("inner").selfNs == 6, "leaf self is its duration");
    expect(times.at("check").selfNs == 90, "children are clipped");

    // Layers cover 10..50 and 60..70 of a 0..200 window whose
    // 100..200 half is check work (the run inside it does not count):
    // 50 of 100 explained.
    expect(near(explainedShare(spans, 0, 200, {"point"}, {"check"}), 0.5),
           "explained share excludes containers and checks");
    expect(near(explainedShare(spans, 0, 100, {}, {"check"}), 1.0),
           "a container-free window is fully explained");
}

void
testDigest(const std::string &dir)
{
    Digest a, b, c;
    a.add("ab");
    a.add("c");
    b.add("a");
    b.add("bc");
    c.add("ab");
    c.add("c");
    expect(a.value() != b.value(), "part boundaries change the digest");
    expect(a.value() == c.value() && a.hex() == c.hex(),
           "equal parts give equal digests");
    expect(a.hex().size() == 16, "hex digest has 16 digits");

    const std::string path = dir + "/ledger.txt";
    std::filesystem::remove(path);
    const DigestLedger ledger(path);
    std::size_t earlier = 99;
    expect(ledger.check("k", "d1", earlier) && earlier == 0,
           "first record agrees");
    expect(ledger.check("k", "d1", earlier) && earlier == 1,
           "same digest agrees with the earlier record");
    expect(ledger.check("other", "d2", earlier) && earlier == 0,
           "keys are independent");
    expect(!ledger.check("k", "d3", earlier) && earlier == 2,
           "a different digest for a key is a mismatch");
    expect(!ledger.check("k", "d1", earlier),
           "a mismatch stays recorded");
    std::filesystem::remove(path);
    expect(DigestLedger("").check("k", "x", earlier),
           "a disabled ledger always agrees");
}

void
testResultLine()
{
    const std::string line =
        resultLine(true, 3, 0, {{"a", 1.5, "ms"}, {"b", 0.1, "s"}});
    expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                   "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": "
                   "\"ms\"}, \"b\": {\"value\": "
                   "0.10000000000000001, \"unit\": \"s\"}}}",
           "result line format");
}

void
testRunResultDiff()
{
    clearsim::RunResult a;
    a.workload = "queue";
    a.cycles = 10;
    a.htm.commits = 4;
    clearsim::RunResult b = a;
    expect(diffRunResults(a, b).empty(), "equal results have no diff");
    b.htm.abortedUops = 1;
    expect(diffRunResults(a, b) == "htm.abortedUops",
           "diff names the first differing field");
    b = a;
    b.htm.regions[7].invocations = 1;
    expect(diffRunResults(a, b) == "htm.regions", "diff sees regions");
    b = a;
    b.lockHoldCycles.record(3);
    expect(diffRunResults(a, b) == "lockHoldCycles",
           "diff sees distributions");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest SCRATCH_DIR\n");
        return 2;
    }
    std::filesystem::create_directories(argv[1]);
    testPercentiles();
    testSpans();
    testDigest(argv[1]);
    testResultLine();
    testRunResultDiff();
    if (failures == 0)
        std::fprintf(stderr, "perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}

/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into
 * clearsim's public functions. A span is (name, start, end, parent,
 * point); a layer's self time is its spans' durations minus the
 * parts their child spans cover.
 *
 * A Trace is single-threaded. Work timed on other threads (the
 * service workload's client connections) is added afterwards as
 * finished spans with add().
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** steady_clock nanoseconds. */
std::int64_t nowNs();

struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the enclosing span; -1 at the top. */
    int parent = -1;
    /** The sweep point or request the span belongs to. */
    std::uint64_t point = 0;
};

class Trace
{
  public:
    /** A disabled trace records nothing and costs one branch. */
    explicit Trace(bool enabled) : enabled_(enabled) {}

    /** RAII span nested under the innermost open one. */
    class Scope
    {
      public:
        Scope(Trace &trace, std::string name, std::uint64_t point);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Trace &trace_;
        int index_;
    };

    /** Record a finished span under the innermost open one. */
    void add(std::string name, std::int64_t start, std::int64_t end,
             std::uint64_t point);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Total length of the union of [start, end) intervals. */
std::int64_t unionNs(std::vector<std::pair<std::int64_t, std::int64_t>>
                         intervals);

/**
 * Per-name totals over a trace. A span's self time is its duration
 * minus the union of its children.
 */
struct LayerTime
{
    std::int64_t selfNs = 0;
    std::int64_t totalNs = 0;
    std::uint64_t count = 0;
};

std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &spans);

/**
 * How much of a traced window the layer spans explain: the union of
 * spans whose names are not in @p containers or @p checks, outside
 * the @p checks spans, over the window minus those checks
 * (verification work the benchmark adds, which is not the program's).
 */
double explainedShare(const std::vector<Span> &spans,
                      std::int64_t window_start,
                      std::int64_t window_end,
                      const std::vector<std::string> &containers,
                      const std::vector<std::string> &checks);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH

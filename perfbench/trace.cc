#include "trace.hh"

#include <algorithm>
#include <chrono>

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Trace::Scope::Scope(Trace &trace, std::string name, std::uint64_t point)
    : trace_(trace), index_(-1)
{
    if (!trace_.enabled_)
        return;
    index_ = static_cast<int>(trace_.spans_.size());
    Span span;
    span.name = std::move(name);
    span.parent = trace_.open_.empty() ? -1 : trace_.open_.back();
    span.point = point;
    trace_.spans_.push_back(std::move(span));
    trace_.open_.push_back(index_);
    // Read the clock last, so the bookkeeping above is not billed
    // to the span.
    trace_.spans_[index_].start = nowNs();
}

Trace::Scope::~Scope()
{
    if (index_ < 0)
        return;
    trace_.spans_[index_].end = nowNs();
    trace_.open_.pop_back();
}

void
Trace::add(std::string name, std::int64_t start, std::int64_t end,
           std::uint64_t point)
{
    if (!enabled_)
        return;
    Span span;
    span.name = std::move(name);
    span.start = start;
    span.end = end;
    span.parent = open_.empty() ? -1 : open_.back();
    span.point = point;
    spans_.push_back(std::move(span));
}

std::int64_t
unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cur_start = 0, cur_end = 0;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (end <= start)
            continue;
        if (open && start <= cur_end) {
            cur_end = std::max(cur_end, end);
            continue;
        }
        if (open)
            total += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
        open = true;
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

namespace
{

/** Child intervals of every span, clipped to the parent. */
std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
childIntervals(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &span : spans) {
        if (span.parent < 0)
            continue;
        const Span &parent = spans[span.parent];
        children[span.parent].emplace_back(
            std::max(span.start, parent.start),
            std::min(span.end, parent.end));
    }
    return children;
}

} // namespace

std::map<std::string, LayerTime>
layerTimes(const std::vector<Span> &spans)
{
    const auto children = childIntervals(spans);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime &layer = out[spans[i].name];
        const std::int64_t total = spans[i].end - spans[i].start;
        layer.totalNs += total;
        layer.selfNs += total - unionNs(children[i]);
        ++layer.count;
    }
    return out;
}

double
explainedShare(const std::vector<Span> &spans, std::int64_t window_start,
               std::int64_t window_end,
               const std::vector<std::string> &containers,
               const std::vector<std::string> &checks)
{
    auto listed = [](const std::vector<std::string> &names,
                     const std::string &name) {
        return std::find(names.begin(), names.end(), name) !=
               names.end();
    };
    std::vector<std::pair<std::int64_t, std::int64_t>> layers, checked;
    for (const Span &span : spans) {
        const std::int64_t start = std::max(span.start, window_start);
        const std::int64_t end = std::min(span.end, window_end);
        if (listed(checks, span.name))
            checked.emplace_back(start, end);
        else if (!listed(containers, span.name))
            layers.emplace_back(start, end);
    }
    // Layer time outside the checks: |layers U checks| - |checks|.
    const std::int64_t checked_ns = unionNs(checked);
    layers.insert(layers.end(), checked.begin(), checked.end());
    const std::int64_t window = window_end - window_start - checked_ns;
    if (window <= 0)
        return 0.0;
    return static_cast<double>(unionNs(std::move(layers)) - checked_ns) /
           static_cast<double>(window);
}

} // namespace perfbench

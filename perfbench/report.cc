#include "report.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

namespace
{

/**
 * ceil(p/100 * n), clamped to [1, n]. The epsilon keeps products
 * such as 99.9/100 * 10000 from rounding up past the exact rank.
 */
std::size_t
nearestRank(double p, std::size_t n)
{
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(
        rank < 1.0 ? 1 : static_cast<std::size_t>(rank), 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(p, samples.size()) - 1];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

TailRank
tailRank(std::size_t n)
{
    TailRank best;
    if (n == 0)
        return best;
    for (double pct : {50.0, 90.0, 99.0, 99.9}) {
        const std::size_t rank = nearestRank(pct, n);
        if (n - rank >= 10)
            best = {pct, n - rank};
    }
    return best;
}

void
Digest::add(const std::string &part)
{
    auto fold = [this](unsigned char byte) {
        hash_ ^= byte;
        hash_ *= 1099511628211ull;
    };
    const std::uint64_t len = part.size();
    for (int shift = 0; shift < 64; shift += 8)
        fold(static_cast<unsigned char>(len >> shift));
    for (char c : part)
        fold(static_cast<unsigned char>(c));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
}

DigestLedger::DigestLedger(std::string path) : path_(std::move(path)) {}

bool
DigestLedger::check(const std::string &key, const std::string &digest,
                    std::size_t &earlier) const
{
    earlier = 0;
    if (path_.empty())
        return true;
    bool agree = true;
    {
        std::ifstream in(path_);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::string k, d;
            if (!(fields >> k >> d) || k != key)
                continue;
            ++earlier;
            agree = agree && d == digest;
        }
    }
    std::ofstream out(path_, std::ios::app);
    out << key << ' ' << digest << '\n';
    return agree;
}

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               formatNumber(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench

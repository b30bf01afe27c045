/**
 * @file
 * The benchmark's own arithmetic: order statistics with the tail
 * rule, the result digest and its per-build ledger, and the metric
 * table printed at the end of a run. perfbench_selftest pins every
 * function here.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Nearest-rank percentile: the sample at rank ceil(p/100 * n). */
double percentile(std::vector<double> samples, double p);

/** Percentile 50 (nearest rank); 0 when empty. */
double median(std::vector<double> samples);

/** Mean; 0 when empty. */
double mean(const std::vector<double> &samples);

/** The tail percentile a sample set can support. */
struct TailRank
{
    /** 0 when no candidate has ten samples beyond it. */
    double pct = 0.0;
    /** Samples strictly beyond the nearest-rank position. */
    std::size_t beyond = 0;
};

/**
 * The highest of p50, p90, p99 and p99.9 that leaves at least ten
 * of @p n samples beyond its nearest rank: n - ceil(p/100 * n) >= 10.
 */
TailRank tailRank(std::size_t n);

/**
 * FNV-1a 64 over a sequence of byte strings. Each part is folded
 * with its length first, so ("ab","c") and ("a","bc") differ.
 */
class Digest
{
  public:
    void add(const std::string &part);
    std::uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

/**
 * Digests recorded by earlier runs of one build, one "key digest"
 * line each. A run compares its digest for a key with every earlier
 * record of that key.
 */
class DigestLedger
{
  public:
    /** Ledger at @p path; "" disables it (every check passes). */
    explicit DigestLedger(std::string path);

    /**
     * Compare @p digest with the earlier records of @p key, then
     * append it.
     * @param earlier set to the number of earlier records
     * @retval false when an earlier record differs
     */
    bool check(const std::string &key, const std::string &digest,
               std::size_t &earlier) const;

  private:
    std::string path_;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Shortest round-trip decimal form of @p value ("%.17g"). */
std::string formatNumber(double value);

/**
 * The last output line: {"correct":..,"attempted":..,"failed":..,
 * "metrics":{"<name>":{"value":..,"unit":".."},..}}.
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH

/**
 * @file
 * What the workloads share: the run arguments, the fixed job and
 * connection counts, set-up timing, and the per-layer report every
 * traced run fills and prints under the same metric names.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/sweep_cache.hh"
#include "layers.hh"
#include "report.hh"
#include "trace.hh"

namespace perfbench
{

/**
 * Sweep worker threads and service client connections. Fixed
 * constants, clamped to the online CPU count, so a figure never
 * depends on the host's hardware_concurrency().
 */
inline constexpr unsigned kJobs = 2;
inline constexpr unsigned kConnections = 2;

/**
 * Threads per daemon job and per fabric shard. One: the daemon's
 * executor and the fabric worker then run beside each other without
 * creating a thread pool per request, whose churn made the service's
 * memory high-water mark vary from run to run.
 */
inline constexpr unsigned kServiceJobs = 1;

/** kJobs clamped to the online CPUs (at least 1). */
unsigned jobCount();

/** Presets a point span may carry, in report order. */
inline const std::vector<std::string> kPresets = {"B", "P", "C", "W",
                                                  "A"};

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** This run's private directory (sweep cache, DLQ, socket). */
    std::string workdir;
    /** Digest ledger of this build; "" disables the check. */
    std::string ledger;
    /**
     * Set-up probe: set up, print "ready" on stdout, tear down and
     * exit. The measuring process times probes to get setup_s.
     */
    bool setupProbe = false;
};

/** A run's outcome before it is printed. */
struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    /** Set-up samples (seconds), one per set-up probe process. */
    std::vector<double> setupSamples;
    /** Simulation points completed in the measured window. */
    std::uint64_t points = 0;
    double windowSeconds = 0.0;
    /** Memory high-water mark when the measured window closed. */
    double peakRssMb = 0.0;

    /** Record a failed output check; the run is then incorrect. */
    void fail(const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
};

/** Everything a traced run reports per layer. */
struct LayerReport
{
    Trace trace{true};
    std::int64_t windowStart = 0;
    std::int64_t windowEnd = 0;

    /** Exact counters over the fixed first round of measured runs. */
    LayerCounts counts;
    /** Events of every traced measured run (pairs with sim.run). */
    std::uint64_t tracedEvents = 0;
    /** Per traced point: replica wall minus runOnce wall (ms). */
    std::vector<double> overheadMs;
    std::uint64_t replicaPoints = 0;

    double sweepMs = 0.0;
    double auditMs = 0.0;
    double serializeUsPerCell = 0.0;
    double parseUsPerCell = 0.0;
    double cacheIoMs = 0.0;
    double verdictRepeatShare = 0.0;
    double runOverheadMs = 0.0;
    double sweepOverheadMs = 0.0;
    double fabricOverheadMs = 0.0;
    double repeatShare = 0.0;

    std::vector<Metric> substrate;
};

/** The per-layer metrics, in BENCHMARK.json order; 0 = not exercised. */
std::vector<Metric> layerMetrics(const LayerReport &layers);

/** Set-up probes per measured run; setup_s is their median. */
inline constexpr unsigned kSetupProbes = 25;

/**
 * Cold set-up samples in seconds. Each starts this program afresh as
 * a set-up probe for @p args's workload and times it from the spawn
 * until the probe reports that its first point could run: program
 * load, static initialisation and the workload's own set-up, with
 * no state left warm by an earlier set-up. Throws if a probe fails.
 */
std::vector<double> coldSetupSamples(const RunArgs &args);

/** Print "ready" on stdout, unbuffered, for the measuring process. */
void reportSetupReady();

/** Host memory high-water mark of this process (MiB). */
double peakRssMb();

/**
 * Time serializeSweepCacheRow / parseSweepCacheRow over @p cells and
 * a SweepCacheStore store + lookup of @p opts in @p dir.
 */
void measureCacheLayer(const clearsim::SweepOptions &opts,
                       const clearsim::SweepSummary &cells,
                       const std::string &dir, LayerReport &layers,
                       RunReport &report);

/** Condense completed cells; failed cells count against @p report. */
clearsim::SweepSummary summarize(
    const std::map<clearsim::SweepKey, clearsim::CellResult> &cells,
    std::size_t points_per_cell, RunReport &report);

/** Compare a round digest with the earlier runs of this build. */
void checkDigest(const RunArgs &args, const std::string &key,
                 const Digest &digest, RunReport &report);

/** The service workload (service_workload.cc). */
void runService(const RunArgs &args, RunReport &report,
                LayerReport *layers);

/**
 * The service's set-up probe: grid validation, daemon bind, fabric
 * worker start and both clients' hello, then reportSetupReady().
 */
void probeServiceSetup(const RunArgs &args);

/** The substrate micro-cases (substrate.cc). */
std::vector<Metric> substrateMetrics(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

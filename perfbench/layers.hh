/**
 * @file
 * The traced replica of clearsim::runOnce(): the same public calls
 * in the same order (capture and analysis for adaptive configs,
 * System construction, workload construction, the simulation, the
 * workload's verify, the result assembly), each wrapped in a span.
 * diffRunResults() is how every traced point proves it measured the
 * same program runOnce() runs.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "analysis/analyzer.hh"
#include "common/config.hh"
#include "metrics/run_result.hh"
#include "policy/region_policy.hh"
#include "workloads/workload.hh"

#include "trace.hh"

namespace clearsim
{
class System;
}

namespace perfbench
{

/** Span names of the layers the replica times. */
namespace span
{
inline constexpr const char *kCapture = "analysis.capture";
inline constexpr const char *kAnalyze = "analysis.analyze";
inline constexpr const char *kCertify = "analysis.certify";
inline constexpr const char *kTable = "policy.table";
inline constexpr const char *kSystemCtor = "core.system_ctor";
inline constexpr const char *kMake = "workloads.make";
inline constexpr const char *kRun = "sim.run";
inline constexpr const char *kVerify = "workloads.verify";
inline constexpr const char *kResult = "harness.result";
inline constexpr const char *kTeardown = "core.teardown";
/** runOnce() called untraced to check the replica. */
inline constexpr const char *kCheck = "check.run_once";
} // namespace span

/** The span wrapping a point of preset @p preset ("config.C.point"). */
std::string pointSpanName(const std::string &preset);

/**
 * The capture half of analyzeWithConfig(): one run with a
 * RegionRecorder installed, then Analyzer::analyze() on its models.
 */
clearsim::AnalysisResult
tracedCapture(Trace &trace, const clearsim::SystemConfig &capture_cfg,
              const std::string &program,
              const clearsim::WorkloadParams &params,
              std::uint64_t point);

/** What a traced point produced. */
struct ReplicaOutcome
{
    clearsim::RunResult result;
    /** Events the measured run executed. */
    std::uint64_t events = 0;
    /** Verdicts of the adaptive capture (empty for static configs). */
    clearsim::RegionVerdictMap verdicts;
};

/**
 * runOnce(cfg, program, params, true, configure) rebuilt from its
 * public calls, with a span around each.
 */
ReplicaOutcome
tracedRunOnce(Trace &trace, const clearsim::SystemConfig &cfg,
              const std::string &program,
              const clearsim::WorkloadParams &params,
              const std::function<void(clearsim::System &)> &configure,
              std::uint64_t point);

/** Name of the first field where @p a and @p b differ; "" if none. */
std::string diffRunResults(const clearsim::RunResult &a,
                           const clearsim::RunResult &b);

/** Exact counters summed over a set of measured runs. */
struct LayerCounts
{
    std::uint64_t runs = 0;
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l1Hits = 0, l2Hits = 0, l3Hits = 0, memAccesses = 0;
    std::uint64_t invalidations = 0, remoteTransfers = 0;
    std::uint64_t lockHoldCycles = 0;
    std::uint64_t commits = 0, aborts = 0, fallbackAcquisitions = 0;
    std::uint64_t sClAttempts = 0, nsClAttempts = 0, clLocks = 0;
    std::uint64_t committedUops = 0, abortedUops = 0;

    void add(const ReplicaOutcome &outcome);
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH

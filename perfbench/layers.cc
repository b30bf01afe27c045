#include "layers.hh"

#include <memory>
#include <stdexcept>

#include "analysis/analyze.hh"
#include "analysis/region_ir.hh"
#include "core/system.hh"
#include "energy/energy_model.hh"
#include "fault/fault_repro.hh"
#include "fault/invariant_checker.hh"
#include "harness/runner.hh"
#include "metrics/json_export.hh"

namespace perfbench
{

using namespace clearsim;

std::string
pointSpanName(const std::string &preset)
{
    return "config." + preset + ".point";
}

AnalysisResult
tracedCapture(Trace &trace, const SystemConfig &capture_cfg,
              const std::string &program, const WorkloadParams &params,
              std::uint64_t point)
{
    Trace::Scope capture(trace, span::kCapture, point);
    System sys(capture_cfg, params.seed);
    RegionRecorder recorder(capture_cfg);
    sys.setRegionRecorder(&recorder);
    auto workload = makeWorkload(program, params);
    runWorkloadThreads(sys, *workload);
    Trace::Scope analyze(trace, span::kAnalyze, point);
    return Analyzer(capture_cfg).analyze(recorder.models());
}

ReplicaOutcome
tracedRunOnce(Trace &trace, const SystemConfig &cfg,
              const std::string &program, const WorkloadParams &params,
              const std::function<void(System &)> &configure,
              std::uint64_t point)
{
    ReplicaOutcome out;
    RegionPolicyTable region_policy;
    if (cfg.adapt.enabled) {
        const AnalysisResult analysis = tracedCapture(
            trace, captureConfigFor(cfg), program, params, point);
        Trace::Scope table(trace, span::kTable, point);
        out.verdicts = verdictMap(analysis);
        region_policy = RegionPolicyTable::fromVerdicts(out.verdicts, cfg);
    }

    std::unique_ptr<System> sys;
    {
        Trace::Scope s(trace, span::kSystemCtor, point);
        sys = std::make_unique<System>(cfg, params.seed);
    }
    if (cfg.adapt.enabled)
        sys->setRegionPolicy(&region_policy);
    std::unique_ptr<Workload> workload;
    {
        Trace::Scope s(trace, span::kMake, point);
        workload = makeWorkload(program, params);
    }
    if (InvariantChecker *checker = sys->checker()) {
        ReproSpec spec;
        spec.workload = program;
        spec.config = cfg.name;
        spec.threads = params.threads;
        spec.ops = params.opsPerThread;
        spec.scale = params.scale;
        spec.seed = params.seed;
        checker->setRepro(makeReproString(spec));
    }
    if (configure)
        configure(*sys);

    RunResult &result = out.result;
    result.workload = program;
    result.config = cfg.name;
    result.seed = params.seed;
    result.maxRetries = cfg.maxRetries;
    result.numCores = cfg.numCores;
    {
        Trace::Scope s(trace, span::kRun, point);
        result.cycles = runWorkloadThreads(*sys, *workload);
    }
    out.events = sys->queue().executedEvents();
    {
        Trace::Scope s(trace, span::kVerify, point);
        for (const std::string &issue : workload->verify(*sys))
            throw std::runtime_error(program + " [" + cfg.name +
                                     "]: " + issue);
    }
    {
        Trace::Scope s(trace, span::kResult, point);
        if (cfg.adapt.enabled)
            result.decisionReport = region_policy.report();
        result.htm = sys->stats();
        result.mem = sys->mem().stats();
        result.lockHoldCycles = sys->mem().locks().holdCycles();
        result.energy = computeEnergy(EnergyParams{}, result.cycles,
                                      cfg.numCores, result.htm,
                                      result.mem);
    }
    Trace::Scope s(trace, span::kTeardown, point);
    workload.reset();
    sys.reset();
    return out;
}

namespace
{

bool
sameDistribution(const Distribution &a, const Distribution &b)
{
    return a.count() == b.count() && a.sum() == b.sum() &&
           a.maxValue() == b.maxValue() &&
           a.percentile(50) == b.percentile(50) &&
           a.percentile(95) == b.percentile(95);
}

bool
sameHistogram(const BoundedHistogram &a, const BoundedHistogram &b)
{
    if (a.total() != b.total() || a.sum() != b.sum() ||
        a.overflow() != b.overflow() || a.capacity() != b.capacity())
        return false;
    for (std::size_t v = 0; v < a.capacity(); ++v)
        if (a.count(v) != b.count(v))
            return false;
    return true;
}

bool
sameRegions(const HtmStats &a, const HtmStats &b)
{
    if (a.regions.size() != b.regions.size())
        return false;
    for (auto ia = a.regions.begin(), ib = b.regions.begin();
         ia != a.regions.end(); ++ia, ++ib) {
        const RegionProfile &x = ia->second, &y = ib->second;
        if (ia->first != ib->first || x.invocations != y.invocations ||
            x.retryingInvocations != y.retryingInvocations ||
            x.comparableRetries != y.comparableRetries ||
            x.immutableRetries != y.immutableRetries ||
            x.sawIndirection != y.sawIndirection ||
            x.footprintChanged != y.footprintChanged ||
            x.maxFootprintLines != y.maxFootprintLines ||
            x.capacityAborts != y.capacityAborts ||
            x.sqFullAborts != y.sqFullAborts ||
            x.maxAttemptUops != y.maxAttemptUops ||
            x.maxAttemptLoads != y.maxAttemptLoads ||
            x.maxAttemptStores != y.maxAttemptStores)
            return false;
    }
    return true;
}

} // namespace

std::string
diffRunResults(const RunResult &a, const RunResult &b)
{
#define PERFBENCH_FIELD(cond, name)                                       \
    if (!(cond))                                                       \
        return name;
#define PERFBENCH_EQ(field) PERFBENCH_FIELD(a.field == b.field, #field)
    PERFBENCH_EQ(workload)
    PERFBENCH_EQ(config)
    PERFBENCH_EQ(seed)
    PERFBENCH_EQ(maxRetries)
    PERFBENCH_EQ(numCores)
    PERFBENCH_EQ(cycles)
    PERFBENCH_EQ(htm.commits)
    PERFBENCH_EQ(htm.commitsByMode)
    PERFBENCH_EQ(htm.aborts)
    PERFBENCH_EQ(htm.abortsByCategory)
    PERFBENCH_EQ(htm.discoveryFailedModeCycles)
    PERFBENCH_EQ(htm.committedUops)
    PERFBENCH_EQ(htm.abortedUops)
    PERFBENCH_EQ(htm.nsClAttempts)
    PERFBENCH_EQ(htm.sClAttempts)
    PERFBENCH_EQ(htm.cachelineLocksAcquired)
    PERFBENCH_EQ(htm.crtInsertions)
    PERFBENCH_EQ(htm.discoveryDisabled)
    PERFBENCH_EQ(htm.fallbackAcquisitions)
    PERFBENCH_FIELD(sameHistogram(a.htm.commitsByRetries,
                                  b.htm.commitsByRetries),
                    "htm.commitsByRetries")
    PERFBENCH_FIELD(sameHistogram(a.htm.fallbackCommitRetries,
                                  b.htm.fallbackCommitRetries),
                    "htm.fallbackCommitRetries")
    PERFBENCH_FIELD(sameDistribution(a.htm.backoffWaits,
                                     b.htm.backoffWaits),
                    "htm.backoffWaits")
    PERFBENCH_FIELD(sameRegions(a.htm, b.htm), "htm.regions")
    PERFBENCH_EQ(mem.l1Hits)
    PERFBENCH_EQ(mem.l2Hits)
    PERFBENCH_EQ(mem.l3Hits)
    PERFBENCH_EQ(mem.memAccesses)
    PERFBENCH_EQ(mem.invalidations)
    PERFBENCH_EQ(mem.remoteTransfers)
    PERFBENCH_EQ(energy.staticEnergy)
    PERFBENCH_EQ(energy.dynamicEnergy)
    PERFBENCH_EQ(decisionReport)
    PERFBENCH_FIELD(sameDistribution(a.lockHoldCycles, b.lockHoldCycles),
                    "lockHoldCycles")
    PERFBENCH_FIELD(statsJsonString({a}) == statsJsonString({b}),
                    "stats json")
#undef PERFBENCH_EQ
#undef PERFBENCH_FIELD
    return "";
}

void
LayerCounts::add(const ReplicaOutcome &outcome)
{
    const RunResult &r = outcome.result;
    ++runs;
    events += outcome.events;
    cycles += r.cycles;
    l1Hits += r.mem.l1Hits;
    l2Hits += r.mem.l2Hits;
    l3Hits += r.mem.l3Hits;
    memAccesses += r.mem.memAccesses;
    invalidations += r.mem.invalidations;
    remoteTransfers += r.mem.remoteTransfers;
    lockHoldCycles += r.lockHoldCycles.sum();
    commits += r.htm.commits;
    aborts += r.htm.aborts;
    fallbackAcquisitions += r.htm.fallbackAcquisitions;
    sClAttempts += r.htm.sClAttempts;
    nsClAttempts += r.htm.nsClAttempts;
    clLocks += r.htm.cachelineLocksAcquired;
    committedUops += r.htm.committedUops;
    abortedUops += r.htm.abortedUops;
}

} // namespace perfbench

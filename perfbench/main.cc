/**
 * @file
 * clearsim_perfbench: the repository benchmark program.
 *
 *   clearsim_perfbench --workload grid|adaptive|service --seed N
 *                      --seconds S --trace 0|1 --workdir DIR
 *                      [--ledger FILE] [--setup-probe 1]
 *
 * --trace 0 measures the end-to-end metrics for S seconds; --trace 1
 * runs the traced replica instead and reports per-layer metrics.
 * --setup-probe 1 only sets the workload up, prints "ready" and
 * exits: the measuring run starts such probes to time set-up cold.
 * Both check the outputs. The last stdout line is the JSON result.
 * README.md in this directory explains the workloads and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "analysis/analyze.hh"
#include "analysis/cert_checker.hh"
#include "analysis/certificate.hh"
#include "core/system.hh"
#include "harness/audit.hh"
#include "harness/sweep_engine.hh"
#include "policy/config_registry.hh"

#include "bench.hh"

using namespace clearsim;
using namespace perfbench;

namespace
{

/**
 * Ops per simulated thread of a grid or adaptive point: short enough
 * that a run holds hundreds of points, so one seed's slow outliers
 * do not set the throughput.
 */
constexpr unsigned kOps = 8;
/** Round index of the unmeasured warm-up sweep (never a real round). */
constexpr unsigned kWarmupRound = 1000000;
const std::vector<unsigned> kRetryLimits = {1, 4};
/**
 * Seeds per round: one for grid, whose rounds then stay short; two
 * for adaptive, so a round's sweep and audit repeat every capture
 * across seeds as well as retry limits.
 */
unsigned
seedsPerRound(const std::string &workload)
{
    return workload == "grid" ? 1 : 2;
}

/** splitmix64 */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The sweep of round @p round: every round draws fresh seeds, so no
 * round repeats another's points.
 */
SweepOptions
roundOptions(const RunArgs &args, unsigned round)
{
    SweepOptions opts;
    opts.configs = args.workload == "grid"
                       ? std::vector<std::string>{"B", "P", "C", "W"}
                       : std::vector<std::string>{"A"};
    opts.workloads = workloadNames();
    opts.retryLimits = kRetryLimits;
    opts.seeds = seedsPerRound(args.workload);
    opts.params.opsPerThread = kOps;
    opts.params.seed = 1 + mix(args.seed * 1000003ull + round) % 1000000000ull;
    opts.jobs = jobCount();
    return opts;
}

AuditOptions
auditOptionsFor(const SweepOptions &sweep)
{
    AuditOptions opts;
    opts.configs = sweep.configs;
    opts.workloads = sweep.workloads;
    opts.retryLimits = sweep.retryLimits;
    opts.seeds = sweep.seeds;
    opts.params = sweep.params;
    opts.jobs = sweep.jobs;
    return opts;
}

double
msSince(std::int64_t start)
{
    return static_cast<double>(nowNs() - start) / 1e6;
}

/** One untraced round: the sweep, then (adaptive) the audit. */
struct Round
{
    SweepOptions opts;
    SweepSummary cells;
    double sweepMs = 0.0;
    double auditMs = 0.0;
};

Round
runRound(const RunArgs &args, unsigned round, RunReport &report)
{
    Round out;
    out.opts = roundOptions(args, round);
    const bool audit = args.workload == "adaptive";

    std::int64_t start = nowNs();
    const SweepOutcome sweep =
        runSweepGrid(out.opts, {}, SweepObserver{});
    out.sweepMs = msSince(start);
    const SweepGrid grid(out.opts, {});
    report.attempted += grid.totalPoints();
    const std::uint64_t failed_before = report.failed;
    out.cells = summarize(sweep.cells, grid.pointsPerCell(), report);
    report.points += grid.totalPoints() - (report.failed - failed_before);

    Digest digest;
    digest.add(serializeSweepCache(sweepOptionsHash(out.opts), out.cells));
    if (audit) {
        start = nowNs();
        const AuditResult result = runAudit(auditOptionsFor(out.opts));
        out.auditMs = msSince(start);
        report.attempted += result.runs + result.failures.size();
        report.failed += result.failures.size();
        report.points += result.runs;
        for (const AuditFailure &f : result.failures)
            report.note("failed audit unit " + f.workload + "/" +
                        f.config + ": " + f.error);
        digest.add(auditJsonString(result));
    }
    checkDigest(args, "round" + std::to_string(round), digest, report);
    return out;
}

/**
 * One sweep outside the measured window, so allocator arenas, caches
 * and lazy state are warm: a process's first round ran 20-30% slower
 * than its later ones. Its points are checked but not counted.
 */
void
warmUp(const RunArgs &args, RunReport &report)
{
    const SweepOptions opts = roundOptions(args, kWarmupRound);
    const SweepOutcome outcome = runSweepGrid(opts, {}, SweepObserver{});
    const SweepGrid grid(opts, {});
    report.attempted += grid.totalPoints();
    summarize(outcome.cells, grid.pointsPerCell(), report);
}

/** What a run needs before its first point: a validated grid. */
void
setupOnce(const RunArgs &args)
{
    const SweepOptions opts = roundOptions(args, 0);
    const SweepGrid grid(opts, {});
    if (grid.totalPoints() == 0)
        throw std::runtime_error("empty grid");
}

/** A capture's verdicts, for analysis.verdict_repeat_share. */
struct Capture
{
    std::string program;
    RegionVerdictMap verdicts;
};

double
verdictRepeatShare(const std::vector<Capture> &captures)
{
    if (captures.empty())
        return 0.0;
    std::size_t repeated = 0;
    for (std::size_t i = 0; i < captures.size(); ++i) {
        for (std::size_t j = 0; j < captures.size(); ++j) {
            if (i != j && captures[i].program == captures[j].program &&
                captures[i].verdicts == captures[j].verdicts) {
                ++repeated;
                break;
            }
        }
    }
    return static_cast<double>(repeated) /
           static_cast<double>(captures.size());
}

/** The traced replica of a grid or adaptive run. */
class TracedRounds
{
  public:
    TracedRounds(const RunArgs &args, RunReport &report,
                 LayerReport &layers)
        : args_(args), report_(report), layers_(layers)
    {
    }

    /** Replay rounds 0.. until the time is up (round 0 always ends). */
    void
    run()
    {
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(args_.seconds) * 1000000000;
        for (unsigned round = 0; !timeUp(round, deadline); ++round) {
            const SweepOptions opts = roundOptions(args_, round);
            sweepPoints(opts, round, deadline);
            if (args_.workload == "adaptive")
                auditUnits(opts, round, deadline);
            if (round == 0)
                layers_.verdictRepeatShare = verdictRepeatShare(captures_);
        }
    }

  private:
    bool
    timeUp(unsigned round, std::int64_t deadline) const
    {
        return round > 0 && nowNs() >= deadline;
    }

    /** One traced point plus its untraced runOnce check. */
    void
    point(const std::string &preset, const std::string &container,
          const SystemConfig &cfg, const std::string &program,
          const WorkloadParams &params, unsigned round,
          const std::function<void(System &)> &tap_replica,
          const std::function<void(System &)> &tap_check)
    {
        const std::uint64_t id = ++pointId_;
        ++report_.attempted;
        try {
            const std::int64_t t0 = nowNs();
            ReplicaOutcome outcome;
            {
                Trace::Scope scope(layers_.trace, container, id);
                outcome = tracedRunOnce(layers_.trace, cfg, program,
                                        params, tap_replica, id);
            }
            const std::int64_t t1 = nowNs();
            RunResult reference;
            {
                Trace::Scope scope(layers_.trace, span::kCheck, id);
                reference = runOnce(cfg, program, params, true, tap_check);
            }
            const std::int64_t t2 = nowNs();
            const std::string diff =
                diffRunResults(outcome.result, reference);
            if (!diff.empty())
                report_.fail("replica differs from runOnce in " + diff +
                             " at " + program + " [" + cfg.name + "]");
            layers_.overheadMs.push_back(
                static_cast<double>((t1 - t0) - (t2 - t1)) / 1e6);
            ++layers_.replicaPoints;
            layers_.tracedEvents += outcome.events;
            if (round == 0) {
                layers_.counts.add(outcome);
                if (cfg.adapt.enabled && container == pointSpanName(preset))
                    captures_.push_back({program, outcome.verdicts});
            }
        } catch (const std::exception &err) {
            ++report_.failed;
            report_.note("failed point " + program + " [" + cfg.name +
                         "]: " + err.what());
        }
    }

    static SystemConfig
    pointConfig(const std::string &spec, unsigned retries)
    {
        // The sweep engine's derivation of a point's config.
        SystemConfig cfg = makeConfigByName(spec);
        cfg.maxRetries = retries;
        cfg.name = specWithRetryLimit(spec, retries);
        return cfg;
    }

    static WorkloadParams
    pointParams(const SweepOptions &opts, unsigned seed_index)
    {
        WorkloadParams params = opts.params;
        params.seed = opts.params.seed + 1000003ull * seed_index;
        return params;
    }

    void
    sweepPoints(const SweepOptions &opts, unsigned round,
                std::int64_t deadline)
    {
        for (const std::string &program : opts.workloads)
            for (const std::string &preset : opts.configs)
                for (unsigned retries : opts.retryLimits)
                    for (unsigned s = 0; s < opts.seeds; ++s) {
                        if (timeUp(round, deadline))
                            return;
                        point(preset, pointSpanName(preset),
                              pointConfig(preset, retries), program,
                              pointParams(opts, s), round, nullptr,
                              nullptr);
                    }
    }

    /** runAudit()'s units, rebuilt from capture, certify and runs. */
    void
    auditUnits(const SweepOptions &opts, unsigned round,
               std::int64_t deadline)
    {
        for (const std::string &preset : opts.configs)
            for (const std::string &program : opts.workloads)
                for (unsigned retries : opts.retryLimits) {
                    if (timeUp(round, deadline))
                        return;
                    const SystemConfig cfg = pointConfig(preset, retries);
                    const std::uint64_t unit = ++pointId_;
                    Trace::Scope scope(layers_.trace, "harness.audit_unit",
                                       unit);
                    const AnalysisResult capture =
                        tracedCapture(layers_.trace, captureConfigFor(cfg),
                                      program, opts.params, unit);
                    CertificateSet certs;
                    {
                        Trace::Scope c(layers_.trace, span::kCertify, unit);
                        certs = buildCertificates(capture, cfg);
                    }
                    for (unsigned s = 0; s < opts.seeds; ++s) {
                        CertChecker replica_checker(certs, cfg);
                        CertChecker check_checker(certs, cfg);
                        auto tap = [](CertChecker &checker) {
                            return [&checker](System &sys) {
                                sys.setTraceTap(
                                    [&checker](const TraceEvent &e) {
                                        checker.onTrace(e);
                                    });
                            };
                        };
                        point(preset, "harness.audit_run", cfg, program,
                              pointParams(opts, s), round,
                              tap(replica_checker), tap(check_checker));
                    }
                }
    }

    const RunArgs &args_;
    RunReport &report_;
    LayerReport &layers_;
    std::uint64_t pointId_ = 0;
    std::vector<Capture> captures_;
};

void
runSimulationWorkload(const RunArgs &args, RunReport &report,
                      LayerReport *layers)
{
    if (!layers) {
        report.setupSamples = coldSetupSamples(args);
        warmUp(args, report);
        const std::int64_t start = nowNs();
        const std::int64_t deadline =
            start + static_cast<std::int64_t>(args.seconds) * 1000000000;
        unsigned round = 0;
        do {
            runRound(args, round++, report);
        } while (nowNs() < deadline);
        report.windowSeconds = static_cast<double>(nowNs() - start) / 1e9;
        report.peakRssMb = peakRssMb();
        report.note("rounds " + std::to_string(round));
        return;
    }

    // The traced run: one untraced round for the harness-level
    // timings and the digest, then the traced replica.
    const Round first = runRound(args, 0, report);
    layers->sweepMs = first.sweepMs;
    layers->auditMs = first.auditMs;
    measureCacheLayer(first.opts, first.cells, args.workdir, *layers,
                      report);

    layers->windowStart = nowNs();
    {
        Trace::Scope window(layers->trace, "trace.window", 0);
        TracedRounds(args, report, *layers).run();
    }
    layers->windowEnd = nowNs();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: clearsim_perfbench --workload grid|adaptive|"
                 "service --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--ledger FILE] [--setup-probe 1]\n");
}

bool
parseArgs(int argc, char **argv, RunArgs &args)
{
    bool have_workload = false, have_workdir = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        char *end = nullptr;
        const unsigned long long number = std::strtoull(value.c_str(), &end, 10);
        const bool numeric = !value.empty() && *end == '\0';
        if (flag == "--workload") {
            args.workload = value;
            have_workload = value == "grid" || value == "adaptive" ||
                            value == "service";
        } else if (flag == "--seed" && numeric) {
            args.seed = number;
        } else if (flag == "--seconds" && numeric && number >= 1 &&
                   number <= 600) {
            args.seconds = static_cast<unsigned>(number);
        } else if (flag == "--trace" && numeric && number <= 1) {
            args.trace = number == 1;
        } else if (flag == "--workdir") {
            args.workdir = value;
            have_workdir = !value.empty();
        } else if (flag == "--ledger") {
            args.ledger = value;
        } else if (flag == "--setup-probe" && numeric && number <= 1) {
            args.setupProbe = number == 1;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_workdir;
}

void
printMetric(const Metric &m)
{
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    std::filesystem::remove_all(args.workdir);
    std::filesystem::create_directories(args.workdir);

    if (args.setupProbe) {
        try {
            if (args.workload == "service") {
                probeServiceSetup(args);
            } else {
                setupOnce(args);
                reportSetupReady();
            }
        } catch (const std::exception &err) {
            std::fprintf(stderr, "perfbench: set-up probe: %s\n",
                         err.what());
            std::filesystem::remove_all(args.workdir);
            return 1;
        }
        std::filesystem::remove_all(args.workdir);
        return 0;
    }

    RunReport report;
    LayerReport layers;
    LayerReport *traced = args.trace ? &layers : nullptr;
    try {
        if (args.workload == "service")
            runService(args, report, traced);
        else
            runSimulationWorkload(args, report, traced);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        std::filesystem::remove_all(args.workdir);
        return 1;
    }
    std::filesystem::remove_all(args.workdir);
    if (report.attempted == 0) {
        std::fprintf(stderr, "perfbench: nothing was attempted\n");
        return 1;
    }

    std::vector<Metric> metrics;
    if (traced) {
        layers.substrate = substrateMetrics(args.seed);
        metrics = layerMetrics(layers);
        for (const Metric &m : metrics)
            if (m.name == "trace.explained_share" && m.value < 0.9)
                report.fail("spans explain only " + formatNumber(m.value) +
                            " of the traced wall time (need 0.9)");
    } else {
        metrics = {
            {"points_per_s",
             static_cast<double>(report.points) / report.windowSeconds,
             "points/s"},
            {"peak_rss_mb", report.peakRssMb, "MiB"},
            {"setup_s", median(report.setupSamples), "s"},
        };
    }

    std::printf("perfbench workload=%s seed=%llu seconds=%u trace=%d "
                "jobs=%u connections=%u\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0,
                args.workload == "service" ? kServiceJobs : jobCount(),
                args.workload == "service" ? kConnections : 0u);
    for (const std::string &line : report.notes)
        std::printf("%s\n", line.c_str());
    if (!report.setupSamples.empty()) {
        std::string line = "set-up probes (s):";
        for (double s : report.setupSamples)
            line += " " + formatNumber(s);
        std::printf("%s\n", line.c_str());
    }
    if (traced) {
        std::printf("per-layer metrics (traced run):\n");
    } else {
        std::printf("end-to-end metrics:\n");
        printMetric({"failed_frac",
                     static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
                     "ratio"});
        if (args.workload != "service")
            std::printf("  run_ms_p50, run_ms_p90, hit_ms_p50, "
                        "ctl_ms_p50, sweep_ms_p50, fabric_ms_p50: n/a "
                        "(no service requests in this workload)\n");
    }
    for (const Metric &m : metrics)
        printMetric(m);
    std::printf("%s\n", resultLine(report.correct && report.failed == 0,
                                   report.attempted, report.failed,
                                   metrics)
                            .c_str());
    return 0;
}

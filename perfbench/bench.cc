#include "bench.hh"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <stdexcept>

extern char **environ;

namespace perfbench
{

using namespace clearsim;

unsigned
jobCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned online = 1;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        online = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::min(kJobs, online);
}

void
RunReport::fail(const std::string &what)
{
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
}

namespace
{

/**
 * Start this program as a set-up probe in @p workdir and return the
 * seconds from the spawn until it printed "ready".
 */
double
timeProbe(const RunArgs &args, const std::string &workdir)
{
    const std::string seed = std::to_string(args.seed);
    std::vector<std::string> argv_s = {
        "clearsim_perfbench", "--workload", args.workload, "--seed", seed,
        "--seconds", "1", "--trace", "0", "--workdir", workdir,
        "--setup-probe", "1"};
    std::vector<char *> argv;
    for (std::string &arg : argv_s)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error("set-up probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = 0;
    const std::int64_t start = nowNs();
    const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions,
                                    nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (spawned != 0) {
        close(fds[0]);
        throw std::runtime_error("set-up probe: spawn failed");
    }
    std::string out;
    std::int64_t ready = 0;
    char buf[256];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        out.append(buf, static_cast<std::size_t>(n));
        if (ready == 0 && out.find('\n') != std::string::npos)
            ready = nowNs();
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        out != "ready\n" || ready == 0)
        throw std::runtime_error("set-up probe failed: " + out);
    return static_cast<double>(ready - start) / 1e9;
}

} // namespace

std::vector<double>
coldSetupSamples(const RunArgs &args)
{
    std::vector<double> out;
    for (unsigned i = 0; i < kSetupProbes; ++i)
        out.push_back(
            timeProbe(args, args.workdir + "/setup" + std::to_string(i)));
    return out;
}

void
reportSetupReady()
{
    const char line[] = "ready\n";
    if (write(STDOUT_FILENO, line, sizeof line - 1) !=
        static_cast<ssize_t>(sizeof line - 1))
        throw std::runtime_error("set-up probe: cannot report ready");
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

SweepSummary
summarize(const std::map<SweepKey, CellResult> &cells,
          std::size_t points_per_cell, RunReport &report)
{
    SweepSummary summary;
    for (const auto &[key, cell] : cells) {
        if (cell.failed) {
            report.failed += points_per_cell;
            report.note("failed cell " + key.first + "/" + key.second +
                        ": " + cell.error + " (repro " + cell.repro +
                        ")");
            continue;
        }
        summary[key] = CellSummary::fromCell(cell);
    }
    return summary;
}

void
measureCacheLayer(const SweepOptions &opts, const SweepSummary &cells,
                  const std::string &dir, LayerReport &layers,
                  RunReport &report)
{
    if (cells.empty())
        return;
    // Rows take microseconds, so each is timed over many passes.
    constexpr unsigned kPasses = 50;
    std::vector<std::string> rows;
    std::size_t bytes = 0;
    std::int64_t start = nowNs();
    for (unsigned pass = 0; pass < kPasses; ++pass) {
        rows.clear();
        for (const auto &[key, cell] : cells) {
            rows.push_back(serializeSweepCacheRow(cell));
            bytes += rows.back().size();
        }
    }
    const double per_cell = static_cast<double>(kPasses * cells.size());
    layers.serializeUsPerCell =
        static_cast<double>(nowNs() - start) / 1e3 / per_cell;

    bool parsed = true;
    start = nowNs();
    for (unsigned pass = 0; pass < kPasses; ++pass) {
        for (const std::string &row : rows) {
            CellSummary back;
            parsed = parseSweepCacheRow(row, back) && parsed;
        }
    }
    layers.parseUsPerCell =
        static_cast<double>(nowNs() - start) / 1e3 / per_cell;
    if (!parsed || bytes == 0)
        report.fail("parseSweepCacheRow rejected a serialized row");

    const std::uint64_t hash = sweepOptionsHash(opts);
    const std::string expected = serializeSweepCache(hash, cells);
    const SweepCacheStore store(dir + "/cache-io.csv");
    std::vector<double> io_ms;
    for (unsigned i = 0; i < 5; ++i) {
        start = nowNs();
        store.store(opts, cells);
        SweepSummary back;
        const bool found = store.lookup(opts, back);
        io_ms.push_back(static_cast<double>(nowNs() - start) / 1e6);
        if (!found || serializeSweepCache(hash, back) != expected)
            report.fail("SweepCacheStore round trip changed the cells");
    }
    layers.cacheIoMs = median(io_ms);
}

void
checkDigest(const RunArgs &args, const std::string &key,
            const Digest &digest, RunReport &report)
{
    const std::string full =
        args.workload + "/" + std::to_string(args.seed) + "/" + key;
    std::size_t earlier = 0;
    if (!DigestLedger(args.ledger).check(full, digest.hex(), earlier))
        report.fail("digest of " + full +
                    " differs from an earlier run of this build");
    report.note("digest " + full + " " + digest.hex() + " (" +
                std::to_string(earlier) +
                " earlier runs of this build checked)");
}

namespace
{

/** Container spans: their self time is glue, not a layer. */
std::vector<std::string>
containerSpans()
{
    std::vector<std::string> names = {"trace.window",
                                      "harness.audit_unit",
                                      "harness.audit_run"};
    for (const std::string &preset : kPresets)
        names.push_back(pointSpanName(preset));
    return names;
}

} // namespace

std::vector<Metric>
layerMetrics(const LayerReport &layers)
{
    const auto times = layerTimes(layers.trace.spans());
    auto per_call_ms = [&](const std::string &name) {
        const auto it = times.find(name);
        if (it == times.end() || it->second.count == 0)
            return 0.0;
        return static_cast<double>(it->second.selfNs) / 1e6 /
               static_cast<double>(it->second.count);
    };
    auto total_ms = [&](const std::string &name) {
        const auto it = times.find(name);
        if (it == times.end() || it->second.count == 0)
            return 0.0;
        return static_cast<double>(it->second.totalNs) / 1e6 /
               static_cast<double>(it->second.count);
    };
    auto self_ns = [&](const std::string &name) {
        const auto it = times.find(name);
        return it == times.end() ? 0.0
                                 : static_cast<double>(it->second.selfNs);
    };

    // Capture share of an adaptive sweep point: capture (analysis
    // nested inside it) over the point span that contains it.
    const std::vector<Span> &spans = layers.trace.spans();
    const std::string a_point = pointSpanName("A");
    double a_ns = 0.0, capture_ns = 0.0;
    for (const Span &s : spans) {
        if (s.name == a_point)
            a_ns += static_cast<double>(s.end - s.start);
        else if (s.name == span::kCapture && s.parent >= 0 &&
                 spans[s.parent].name == a_point)
            capture_ns += static_cast<double>(s.end - s.start);
    }

    const LayerCounts &c = layers.counts;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    std::vector<Metric> m = {
        {"sim.run_ms", per_call_ms(span::kRun), "ms"},
        {"sim.events", count(c.events), "count"},
        {"sim.host_ns_per_event",
         ratio(self_ns(span::kRun), count(layers.tracedEvents)),
         "ns/event"},
        {"sim.cycles", count(c.cycles), "cycles"},
        {"core.system_ctor_ms", per_call_ms(span::kSystemCtor), "ms"},
        {"core.teardown_ms", per_call_ms(span::kTeardown), "ms"},
        {"workloads.make_ms", per_call_ms(span::kMake), "ms"},
        {"workloads.verify_ms", per_call_ms(span::kVerify), "ms"},
        {"harness.result_ms", per_call_ms(span::kResult), "ms"},
    };
    for (const std::string &preset : kPresets)
        m.push_back({"config." + preset + ".point_ms",
                     total_ms(pointSpanName(preset)), "ms"});
    const std::vector<Metric> rest = {
        {"analysis.capture_ms", per_call_ms(span::kCapture), "ms"},
        {"analysis.analyze_ms", per_call_ms(span::kAnalyze), "ms"},
        {"analysis.certify_ms", per_call_ms(span::kCertify), "ms"},
        {"policy.table_ms", per_call_ms(span::kTable), "ms"},
        {"analysis.capture_share", ratio(capture_ns, a_ns), "ratio"},
        {"analysis.verdict_repeat_share", layers.verdictRepeatShare,
         "ratio"},
        {"harness.sweep_ms", layers.sweepMs, "ms"},
        {"harness.audit_ms", layers.auditMs, "ms"},
        {"harness.serialize_us_per_cell", layers.serializeUsPerCell,
         "us"},
        {"harness.parse_us_per_cell", layers.parseUsPerCell, "us"},
        {"harness.cache_io_ms", layers.cacheIoMs, "ms"},
        {"service.run_overhead_ms", layers.runOverheadMs, "ms"},
        {"service.sweep_overhead_ms", layers.sweepOverheadMs, "ms"},
        {"service.fabric_overhead_ms", layers.fabricOverheadMs, "ms"},
        {"service.repeat_share", layers.repeatShare, "ratio"},
        {"mem.l1_hits", count(c.l1Hits), "count"},
        {"mem.l2_hits", count(c.l2Hits), "count"},
        {"mem.l3_hits", count(c.l3Hits), "count"},
        {"mem.mem_accesses", count(c.memAccesses), "count"},
        {"mem.invalidations", count(c.invalidations), "count"},
        {"mem.remote_transfers", count(c.remoteTransfers), "count"},
        {"mem.lock_hold_cycles", count(c.lockHoldCycles), "cycles"},
        {"htm.commits", count(c.commits), "count"},
        {"htm.aborts", count(c.aborts), "count"},
        {"htm.aborts_per_commit", ratio(count(c.aborts), count(c.commits)),
         "ratio"},
        {"htm.useful_uop_ratio",
         ratio(count(c.committedUops),
               count(c.committedUops + c.abortedUops)),
         "ratio"},
        {"htm.fallback_acquisitions", count(c.fallbackAcquisitions),
         "count"},
        {"htm.s_cl_attempts", count(c.sClAttempts), "count"},
        {"htm.ns_cl_attempts", count(c.nsClAttempts), "count"},
        {"htm.cl_locks", count(c.clLocks), "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    m.insert(m.end(), layers.substrate.begin(), layers.substrate.end());

    const std::vector<std::string> checks = {
        span::kCheck, "check.direct_sweep", "check.shadow_run",
        "check.shadow_sweep", "check.shadow_fabric"};
    m.push_back({"trace.explained_share",
                 explainedShare(spans, layers.windowStart,
                                layers.windowEnd, containerSpans(),
                                checks),
                 "ratio"});
    m.push_back({"trace.overhead_ms", mean(layers.overheadMs), "ms"});
    m.push_back({"trace.wall_ms",
                 static_cast<double>(layers.windowEnd -
                                     layers.windowStart) /
                     1e6,
                 "ms"});
    m.push_back({"trace.replica_points", count(layers.replicaPoints),
                 "count"});
    return m;
}

} // namespace perfbench

/**
 * @file
 * The service workload: a closed loop of kConnections clients, each
 * sending its next request only after the previous one finished, to
 * an in-process Daemon with one in-process FabricWorker.
 *
 * Requests come from one seeded generator shared by the clients, so
 * the set of the first N requests is fixed by the seed:
 *   56% fresh "run" (4-op points, every preset including A)
 *   20% repeats of earlier run/sweep/fabric-sweep requests, which the
 *       daemon's dedupe and sweep cache answer
 *   16% "status" / "catalogue"
 *    4% fresh "sweep", 4% fresh "fabric-sweep" (2 x 2 cells x 2
 *       retry limits)
 * These shares are an assumption: clearsim has no recorded usage of
 * its daemon to take a mix from. The request shapes (4 ops, retry
 * limits {1,4}, two programs per sweep) follow the CI service job's
 * requests. A share measured here, such as service.repeat_share, is
 * a property of this mix, not of the service.
 *
 * After the loop the replies are checked: the first kCheckedRuns
 * fresh runs against a direct runOnce(), every sweep and fabric sweep
 * against a direct runSweepGrid() serialization, every repeat
 * against the reply it repeats.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common/json.hh"
#include "harness/sweep_engine.hh"
#include "metrics/json_export.hh"
#include "policy/config_registry.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/worker.hh"

#include "bench.hh"

namespace perfbench
{

using namespace clearsim;

namespace
{

/** Requests, in generator order, whose replies enter the digest. */
constexpr std::size_t kDigestPrefix = 24;
/** Fresh runs, in generator order, whose counters are reported. */
constexpr std::size_t kCountedRuns = 12;
/**
 * Fresh runs, in generator order, replayed directly (and, traced,
 * through the replica) after the loop. Sweeps, fabric sweeps and
 * repeats are all checked.
 */
constexpr std::size_t kCheckedRuns = 150;
/**
 * peak_rss_mb is read when this many requests have completed. The
 * daemon keeps every finished job, so its memory grows with the
 * requests served; a fixed request count keeps the figure from
 * following the host's speed.
 */
constexpr std::size_t kRssMarkRequests = 500;
/**
 * Sweeps and fabric sweeps (of each kind) and fresh runs replayed on
 * idle daemons of their own (traced run only), for the service
 * overheads.
 */
constexpr std::size_t kShadowSweeps = 6;
constexpr std::size_t kShadowRuns = 30;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

enum class Kind
{
    Run,
    Repeat,
    Status,
    Catalogue,
    Sweep,
    Fabric,
};

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Run:
        return "run";
    case Kind::Repeat:
        return "repeat";
    case Kind::Status:
        return "status";
    case Kind::Catalogue:
        return "catalogue";
    case Kind::Sweep:
        return "sweep";
    case Kind::Fabric:
        return "fabric-sweep";
    }
    return "?";
}

struct Request
{
    std::size_t index = 0;
    Kind kind = Kind::Run;
    /** The wire frame. */
    std::string frame;
    /** Run: the point. */
    std::string preset;
    std::string program;
    unsigned retries = 0;
    WorkloadParams params;
    /** Sweep / fabric-sweep: the options the daemon will build. */
    SweepOptions sweep;
    /** Repeat: the request repeated. */
    std::size_t original = kNone;
};

struct Reply
{
    std::size_t index = 0;
    std::string terminal;
    std::string ack;
    std::string payload;
    std::string error;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

std::string
runFrame(const Request &r)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("schema");
    w.value(kWireSchemaV2);
    w.key("type");
    w.value("run");
    w.key("tag");
    w.value("r" + std::to_string(r.index));
    w.key("config");
    w.value(r.preset);
    w.key("workload");
    w.value(r.program);
    w.key("retries");
    w.value(r.retries);
    w.key("ops");
    w.value(r.params.opsPerThread);
    w.key("seed");
    w.value(r.params.seed);
    w.endObject();
    return out;
}

std::string
sweepFrame(const Request &r, bool fabric)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("schema");
    w.value(kWireSchemaV2);
    w.key("type");
    w.value(fabric ? "fabric-sweep" : "sweep");
    w.key("tag");
    w.value("r" + std::to_string(r.index));
    w.key("configs");
    w.beginArray();
    for (const std::string &spec : r.sweep.configs)
        w.value(spec);
    w.endArray();
    w.key("workloads");
    w.beginArray();
    for (const std::string &name : r.sweep.workloads)
        w.value(name);
    w.endArray();
    w.key("retries");
    w.beginArray();
    for (unsigned limit : r.sweep.retryLimits)
        w.value(limit);
    w.endArray();
    w.key("seeds");
    w.value(r.sweep.seeds);
    w.key("ops");
    w.value(r.sweep.params.opsPerThread);
    w.key("jobs");
    w.value(r.sweep.jobs);
    if (fabric) {
        w.key("shards");
        w.value(2u);
    }
    w.endObject();
    return out;
}

std::string
simpleFrame(const char *type, std::size_t index)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("schema");
    w.value(kWireSchemaV2);
    w.key("type");
    w.value(type);
    w.key("tag");
    w.value("r" + std::to_string(index));
    w.endObject();
    return out;
}

/** The seeded request stream the connections draw from. */
class Generator
{
  public:
    explicit Generator(std::uint64_t seed) : rng_(seed) {}

    Request
    next()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Request r = make(issued_.size());
        issued_.push_back(r);
        return r;
    }

    /** Every request issued so far, in generator order. */
    std::vector<Request>
    issued() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return issued_;
    }

  private:
    std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

    /**
     * Kinds are dealt from shuffled decks of 25 (14 runs, 5 repeats,
     * 2 status, 2 catalogue, 1 sweep, 1 fabric sweep): the order
     * follows the seed, the mix is exact in every deck.
     */
    Kind
    nextKind()
    {
        if (deck_.empty()) {
            const std::pair<Kind, unsigned> mix[] = {
                {Kind::Run, 14},      {Kind::Repeat, 5},
                {Kind::Status, 2},    {Kind::Catalogue, 2},
                {Kind::Sweep, 1},     {Kind::Fabric, 1}};
            for (const auto &[kind, n] : mix)
                deck_.insert(deck_.end(), n, kind);
            for (std::size_t i = deck_.size(); i > 1; --i)
                std::swap(deck_[i - 1], deck_[pick(i)]);
        }
        const Kind kind = deck_.back();
        deck_.pop_back();
        return kind;
    }

    Request
    make(std::size_t index)
    {
        Request r;
        r.index = index;
        r.kind = nextKind();
        if (r.kind == Kind::Repeat && repeatable_.empty())
            r.kind = Kind::Run;
        switch (r.kind) {
        case Kind::Repeat: {
            const Request &original =
                issued_[repeatable_[pick(repeatable_.size())]];
            r.original = original.index;
            r.frame = original.frame;
            return r;
        }
        case Kind::Status:
            r.frame = simpleFrame("status", index);
            return r;
        case Kind::Catalogue:
            r.frame = simpleFrame("catalogue", index);
            return r;
        case Kind::Run:
            makeRun(r);
            break;
        case Kind::Sweep:
        case Kind::Fabric:
            makeSweep(r);
            break;
        }
        repeatable_.push_back(index);
        return r;
    }

    /**
     * A fresh 4-op point: presets in rotation (each is a fifth of
     * the runs), program, retry limit and seed from the generator.
     */
    void
    makeRun(Request &r)
    {
        const std::vector<unsigned> retries = {1, 4};
        r.preset = kPresets[runs_++ % kPresets.size()];
        r.params.opsPerThread = 4;
        do {
            r.program = workloadNames()[pick(workloadNames().size())];
            r.retries = retries[pick(retries.size())];
            r.params.seed = 1 + pick(1u << 31);
        } while (!keys_
                      .insert(r.preset + "|" + r.program + "|" +
                              std::to_string(r.retries) + "|" +
                              std::to_string(r.params.seed))
                      .second);
        r.frame = runFrame(r);
    }

    /**
     * A fresh 8-point grid: a pair of presets in rotation over all
     * ten pairs, two programs from the generator, retry limits
     * {1,4}, one seed, 4 ops.
     */
    void
    makeSweep(Request &r)
    {
        SweepOptions &opts = r.sweep;
        const std::size_t pair = sweeps_++ % 10;
        std::size_t first = 0, rest = pair;
        while (rest >= kPresets.size() - 1 - first)
            rest -= kPresets.size() - 1 - first++;
        opts.configs = {kPresets[first], kPresets[first + 1 + rest]};
        opts.retryLimits = {1, 4};
        opts.seeds = 1;
        opts.params.opsPerThread = 4;
        opts.jobs = kServiceJobs;
        const std::vector<std::string> &names = workloadNames();
        std::string key;
        do {
            const std::uint64_t a = pick(names.size());
            const std::uint64_t b =
                (a + 1 + pick(names.size() - 1)) % names.size();
            opts.workloads = {names[a], names[b]};
            key = opts.configs[0] + "|" + opts.configs[1] + "|" +
                  names[a] + "|" + names[b];
        } while (!keys_.insert(key).second);
        r.frame = sweepFrame(r, r.kind == Kind::Fabric);
    }

    mutable std::mutex mutex_;
    std::mt19937_64 rng_;
    std::vector<Request> issued_;
    std::vector<Kind> deck_;
    std::vector<std::size_t> repeatable_;
    std::set<std::string> keys_;
    std::size_t runs_ = 0;
    std::size_t sweeps_ = 0;
};

/** A daemon, its fabric worker and connected clients. */
class Service
{
  public:
    Service(const std::string &dir, unsigned clients, bool worker)
    {
        std::filesystem::create_directories(dir);
        Daemon::Options options;
        options.socketPath = dir + "/d.sock";
        options.scheduler.cachePath = dir + "/cache.csv";
        options.scheduler.dlqPath = dir + "/dlq.jsonl";
        options.scheduler.jobs = kServiceJobs;
        daemon_ = std::make_unique<Daemon>(options);
        if (worker) {
            FabricWorkerOptions wopts;
            wopts.socketPath = options.socketPath;
            wopts.name = "perfbench-worker";
            wopts.jobs = kServiceJobs;
            worker_ = std::make_unique<FabricWorker>(wopts);
            thread_ = std::thread([this] { worker_->run(stop_); });
        }
        for (unsigned i = 0; i < clients; ++i) {
            auto client = std::make_unique<ClientConnection>();
            std::string error;
            if (!client->connect(options.socketPath, error))
                throw std::runtime_error("connect: " + error);
            clients_.push_back(std::move(client));
        }
    }

    ~Service()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        clients_.clear();
        daemon_.reset();
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    ClientConnection &client(std::size_t i) { return *clients_[i]; }

  private:
    std::unique_ptr<Daemon> daemon_;
    std::unique_ptr<FabricWorker> worker_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
    std::vector<std::unique_ptr<ClientConnection>> clients_;
};

/** Send one frame and wait for its terminal reply. */
Reply
transact(ClientConnection &client, const std::string &frame,
         std::size_t index)
{
    Reply reply;
    reply.index = index;
    reply.start = nowNs();
    std::string error;
    WireMessage out;
    if (!client.send(frame, error) ||
        !client.waitForOutcome(out, error,
                               [&reply](const WireMessage &event) {
                                   if (event.type == "ack")
                                       reply.ack = event.text("state");
                               })) {
        reply.terminal = "disconnected";
        reply.error = error;
    } else {
        reply.terminal = out.type;
        reply.payload = out.text("payload");
        reply.error = out.text("message") + out.text("error");
    }
    reply.end = nowNs();
    return reply;
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** The bytes a sweep of @p opts must produce. */
std::string
canonicalSweep(const SweepOptions &opts, RunReport &report)
{
    const SweepOutcome outcome = runSweepGrid(opts, {}, SweepObserver{});
    const SweepSummary cells =
        summarize(outcome.cells, SweepGrid(opts, {}).pointsPerCell(), report);
    return serializeSweepCache(sweepOptionsHash(opts), cells);
}

std::string
fixed3(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", value);
    return buf;
}

std::string
latencyLine(const std::string &name, const std::vector<double> &samples)
{
    if (samples.empty())
        return "  " + name + "_p50 = n/a ms (no such requests)";
    std::string line = "  " + name + "_p50 = " + fixed3(median(samples)) +
                       " ms (n=" + std::to_string(samples.size()) + ")";
    const TailRank tail = tailRank(samples.size());
    if (tail.pct > 50.0)
        line += ", tail p" + formatNumber(tail.pct) + " = " +
                fixed3(percentile(samples, tail.pct)) + " ms (" +
                std::to_string(tail.beyond) + " samples beyond)";
    return line;
}

/** The service's set-up: validation, daemon, worker, clients. */
std::unique_ptr<Service>
setUp(const RunArgs &args)
{
    // Registry and grid validation of the largest sweep the loop may
    // send.
    SweepOptions probe;
    probe.configs = kPresets;
    probe.workloads = workloadNames();
    probe.retryLimits = {1, 4};
    probe.seeds = 1;
    const SweepGrid grid(probe, {});
    if (grid.totalPoints() == 0)
        throw std::runtime_error("empty grid");
    return std::make_unique<Service>(args.workdir + "/daemon",
                                     kConnections, true);
}

} // namespace

void
probeServiceSetup(const RunArgs &args)
{
    const std::unique_ptr<Service> service = setUp(args);
    reportSetupReady();
}

void
runService(const RunArgs &args, RunReport &report, LayerReport *layers)
{
    Generator generator(args.seed);
    if (!layers)
        report.setupSamples = coldSetupSamples(args);
    std::unique_ptr<Service> service = setUp(args);
    const std::string dir = args.workdir + "/daemon";

    // The closed loop.
    const std::int64_t start = nowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(args.seconds) * 1000000000;
    std::vector<std::vector<Reply>> per_client(kConnections);
    std::atomic<std::size_t> completed{0};
    std::atomic<double> rss_at_mark{0.0};
    {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kConnections; ++c) {
            clients.emplace_back([&, c] {
                while (nowNs() < deadline) {
                    const Request r = generator.next();
                    per_client[c].push_back(
                        transact(service->client(c), r.frame, r.index));
                    if (++completed == kRssMarkRequests)
                        rss_at_mark = peakRssMb();
                    if (per_client[c].back().terminal == "disconnected")
                        return;
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    std::int64_t end = start;
    std::vector<Reply> replies;
    for (const auto &list : per_client)
        for (const Reply &r : list) {
            replies.push_back(r);
            end = std::max(end, r.end);
        }
    report.windowSeconds = static_cast<double>(end - start) / 1e9;
    report.peakRssMb = rss_at_mark > 0.0 ? rss_at_mark.load() : peakRssMb();
    if (rss_at_mark == 0.0)
        report.note("peak_rss_mb taken at the window end: fewer than " +
                    std::to_string(kRssMarkRequests) +
                    " requests completed");
    const std::vector<Request> requests = generator.issued();
    std::vector<const Reply *> reply_of(requests.size(), nullptr);
    for (const Reply &r : replies)
        reply_of[r.index] = &r;

    // Classify replies; collect latencies and points.
    std::vector<double> run_ms, hit_ms, ctl_ms, sweep_ms, fabric_ms;
    std::size_t sim_requests = 0, hits = 0;
    std::map<Kind, std::size_t> by_kind;
    for (const Reply &reply : replies) {
        const Request &req = requests[reply.index];
        ++report.attempted;
        ++by_kind[req.kind];
        if (reply.terminal != "result") {
            ++report.failed;
            report.note(std::string("failed ") + kindName(req.kind) +
                        " request " + std::to_string(req.index) + ": " +
                        reply.terminal + " " + reply.error);
            continue;
        }
        const double latency = ms(reply.end - reply.start);
        switch (req.kind) {
        case Kind::Run:
            run_ms.push_back(latency);
            report.points += 1;
            break;
        case Kind::Sweep:
        case Kind::Fabric:
            (req.kind == Kind::Sweep ? sweep_ms : fabric_ms)
                .push_back(latency);
            report.points += SweepGrid(req.sweep, {}).totalPoints();
            break;
        case Kind::Repeat:
            if (reply.ack.rfind("dedup", 0) == 0) {
                ++hits;
                hit_ms.push_back(latency);
            }
            break;
        case Kind::Status:
        case Kind::Catalogue:
            ctl_ms.push_back(latency);
            break;
        }
        if (req.kind != Kind::Status && req.kind != Kind::Catalogue)
            ++sim_requests;
    }

    report.note("requests: " + std::to_string(replies.size()) +
                " over " + std::to_string(kConnections) +
                " closed-loop connections");
    for (const auto &[kind, n] : by_kind)
        report.note(std::string("  ") + kindName(kind) + ": " +
                    std::to_string(n));
    report.note("service latencies (host ms, round trip):");
    report.note(latencyLine("run_ms", run_ms));
    report.note(latencyLine("hit_ms", hit_ms));
    report.note(latencyLine("ctl_ms", ctl_ms));
    report.note(latencyLine("sweep_ms", sweep_ms));
    report.note(latencyLine("fabric_ms", fabric_ms));
    const TailRank run_tail = tailRank(run_ms.size());
    report.note(run_tail.pct >= 90.0
                    ? "  run_ms_p90 = " + fixed3(percentile(run_ms, 90.0)) +
                          " ms (n=" + std::to_string(run_ms.size()) + ")"
                    : "  run_ms_p90 = n/a (fewer than 100 run samples)");
    const double repeat_share =
        sim_requests ? static_cast<double>(hits) /
                           static_cast<double>(sim_requests)
                     : 0.0;
    report.note("  repeat share (answered by dedupe) = " +
                fixed3(repeat_share));

    // Output checks, and in a traced run the per-layer replay. The
    // traced window is this replay, not the loop: a round trip cannot
    // be split into layers from outside, so the service layers show
    // only as the overheads measured on idle shadow daemons below.
    std::unique_ptr<Service> shadow_fabric, shadow_sweep;
    if (layers) {
        layers->repeatShare = repeat_share;
        shadow_fabric = std::make_unique<Service>(
            args.workdir + "/shadow-fabric", 1, true);
        shadow_sweep = std::make_unique<Service>(
            args.workdir + "/shadow-sweep", 1, false);
        layers->windowStart = nowNs();
    }
    Trace no_trace(false);
    Trace &trace = layers ? layers->trace : no_trace;

    std::string catalogue;
    std::size_t fresh_runs = 0;
    std::vector<double> run_overhead, sweep_overhead, fabric_overhead;
    SweepSummary all_cells;
    const SweepOptions *cache_opts = nullptr;
    std::map<Kind, std::size_t> shadows;
    for (const Request &req : requests) {
        const Reply *reply = reply_of[req.index];
        if (!reply || reply->terminal != "result")
            continue;
        const std::string &payload = reply->payload;
        const std::uint64_t id = req.index + 1;
        switch (req.kind) {
        case Kind::Repeat: {
            const Reply *first = reply_of[req.original];
            if (first && first->terminal == "result" &&
                first->payload != payload)
                report.fail("repeat of request " +
                            std::to_string(req.original) +
                            " returned different bytes");
            break;
        }
        case Kind::Catalogue:
            if (catalogue.empty())
                catalogue = payload;
            else if (catalogue != payload)
                report.fail("catalogue payload changed between requests");
            break;
        case Kind::Status:
            break;
        case Kind::Run: {
            const std::size_t run_index = fresh_runs++;
            if (run_index >= kCheckedRuns)
                break;
            const SystemConfig cfg = makeConfigFromSpec(
                specWithRetryLimit(req.preset, req.retries));
            const std::int64_t t0 = nowNs();
            ReplicaOutcome outcome;
            if (layers) {
                Trace::Scope p(trace, pointSpanName(req.preset), id);
                outcome = tracedRunOnce(trace, cfg, req.program, req.params,
                                        nullptr, id);
            }
            const std::int64_t t1 = nowNs();
            RunResult direct;
            {
                Trace::Scope c(trace, span::kCheck, id);
                direct = runOnce(cfg, req.program, req.params);
            }
            const std::int64_t t2 = nowNs();
            if (statsJsonString({direct}) != payload)
                report.fail("run " + std::to_string(req.index) +
                            " payload differs from a direct runOnce");
            if (layers) {
                const std::string diff =
                    diffRunResults(outcome.result, direct);
                if (!diff.empty())
                    report.fail("replica differs from runOnce in " + diff);
                layers->overheadMs.push_back(ms((t1 - t0) - (t2 - t1)));
                ++layers->replicaPoints;
                layers->tracedEvents += outcome.events;
                if (run_index < kCountedRuns)
                    layers->counts.add(outcome);
            }
            if (!layers || run_index >= kShadowRuns)
                break;
            // The same run on an idle daemon, so the overhead holds
            // no queueing behind the loop's other connection.
            Reply shadow;
            {
                Trace::Scope c(trace, "check.shadow_run", id);
                shadow = transact(shadow_sweep->client(0), req.frame,
                                  req.index);
            }
            if (shadow.payload != payload)
                report.fail("run " + std::to_string(req.index) +
                            " replayed on an idle daemon returned other "
                            "bytes");
            run_overhead.push_back(ms(shadow.end - shadow.start) -
                                   ms(t2 - t1));
            break;
        }
        case Kind::Sweep:
        case Kind::Fabric: {
            const std::int64_t t0 = nowNs();
            std::string expected;
            {
                Trace::Scope c(trace, "check.direct_sweep", id);
                expected = canonicalSweep(req.sweep, report);
            }
            const double direct_ms = ms(nowNs() - t0);
            if (expected != payload)
                report.fail(std::string(kindName(req.kind)) + " " +
                            std::to_string(req.index) +
                            " payload differs from runSweepGrid");
            if (!layers)
                break;
            SweepSummary cells;
            if (parseSweepCache(payload, sweepOptionsHash(req.sweep), cells))
                all_cells.insert(cells.begin(), cells.end());
            if (!cache_opts)
                cache_opts = &req.sweep;
            if (shadows[req.kind]++ >= kShadowSweeps)
                break;
            // The same options as a plain sweep and (fabric) as a
            // fabric sweep, each on an idle daemon of its own.
            Reply plain, fab;
            {
                Trace::Scope c(trace, "check.shadow_sweep", id);
                plain = transact(shadow_sweep->client(0),
                                 sweepFrame(req, false), req.index);
            }
            if (plain.payload != payload)
                report.fail("isolated sweep replay returned other bytes");
            sweep_overhead.push_back(ms(plain.end - plain.start) -
                                     direct_ms);
            if (req.kind == Kind::Sweep)
                break;
            {
                Trace::Scope c(trace, "check.shadow_fabric", id);
                fab = transact(shadow_fabric->client(0),
                               sweepFrame(req, true), req.index);
            }
            if (fab.payload != payload)
                report.fail("isolated fabric replay returned other bytes");
            fabric_overhead.push_back(ms(fab.end - fab.start) -
                                      ms(plain.end - plain.start));
            break;
        }
        }
    }

    // The digest covers the first requests in generator order.
    Digest digest;
    for (std::size_t i = 0; i < std::min(kDigestPrefix, requests.size());
         ++i) {
        if (requests[i].kind == Kind::Status)
            continue;
        const Reply *reply = reply_of[i];
        if (!reply) {
            report.fail("request " + std::to_string(i) +
                        " of the digest prefix never completed");
            break;
        }
        digest.add(kindName(requests[i].kind));
        digest.add(reply->payload);
    }
    checkDigest(args, "first" + std::to_string(kDigestPrefix), digest,
                report);

    if (layers) {
        layers->windowEnd = nowNs();
        layers->runOverheadMs = median(run_overhead);
        layers->sweepOverheadMs = median(sweep_overhead);
        layers->fabricOverheadMs = median(fabric_overhead);
        if (cache_opts)
            measureCacheLayer(*cache_opts, all_cells, dir, *layers, report);
        if (fresh_runs < kCountedRuns)
            report.fail("fewer fresh runs than the counted prefix");
    }
    shadow_fabric.reset();
    shadow_sweep.reset();
    service.reset();
}

} // namespace perfbench

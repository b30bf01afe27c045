/**
 * @file
 * Substrate micro-cases: the hot components the simulation rate
 * rests on, timed in isolation with the same operations as
 * bench/micro_components.cpp. Each case is timed five times over a
 * fixed operation count and reports the median ns per operation.
 */

#include <algorithm>
#include <functional>

#include "common/config.hh"
#include "common/rng.hh"
#include "core/alt.hh"
#include "core/crt.hh"
#include "htm/conflict_manager.hh"
#include "htm/footprint.hh"
#include "htm/power_token.hh"
#include "mem/cache_model.hh"
#include "mem/directory.hh"
#include "mem/lock_manager.hh"
#include "sim/event_queue.hh"

#include "bench.hh"

namespace perfbench
{

using namespace clearsim;

namespace
{

/** Keep @p value alive so the timed work is not optimized away. */
template <class T>
void
keep(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/**
 * Median ns per operation of @p body, which performs @p ops
 * operations per call.
 */
double
nsPerOp(std::uint64_t ops, const std::function<void()> &body)
{
    body(); // warm caches and lazy allocations
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t start = nowNs();
        body();
        samples.push_back(static_cast<double>(nowNs() - start) /
                          static_cast<double>(ops));
    }
    return median(samples);
}

} // namespace

std::vector<Metric>
substrateMetrics(std::uint64_t seed)
{
    std::vector<Metric> out;

    constexpr int kEvents = 1024, kQueueRounds = 200;
    out.push_back(
        {"sim.event_ns", nsPerOp(kEvents * kQueueRounds, [] {
             for (int round = 0; round < kQueueRounds; ++round) {
                 EventQueue queue;
                 int sink = 0;
                 for (int i = 0; i < kEvents; ++i)
                     queue.schedule(static_cast<Cycle>(i % 97),
                                    [&sink] { ++sink; });
                 queue.run();
                 keep(sink);
             }
         }),
         "ns"});

    constexpr int kOps = 200000;
    {
        CacheModel cache(64, 12);
        Rng rng(seed);
        out.push_back({"mem.cache_insert_ns", nsPerOp(kOps, [&] {
                           for (int i = 0; i < kOps; ++i)
                               keep(cache.insert(rng.nextBelow(4096)));
                       }),
                       "ns"});
    }
    {
        Directory dir(4096, 32);
        Rng rng(seed + 1);
        out.push_back(
            {"mem.directory_ns", nsPerOp(kOps, [&] {
                 for (int i = 0; i < kOps; ++i) {
                     const LineAddr line = rng.nextBelow(2048);
                     const auto core =
                         static_cast<CoreId>(rng.nextBelow(32));
                     if (rng.nextBool(0.3))
                         keep(dir.onWrite(core, line));
                     else
                         keep(dir.onRead(core, line));
                 }
             }),
             "ns"});
    }
    {
        LockManager locks;
        locks.configureDirSets(4096);
        Rng rng(seed + 2);
        out.push_back({"mem.lock_ns", nsPerOp(kOps, [&] {
                           for (int i = 0; i < kOps; ++i) {
                               const LineAddr line = rng.nextBelow(512);
                               const auto core = static_cast<CoreId>(
                                   rng.nextBelow(32));
                               if (locks.tryLock(line, core))
                                   locks.unlock(line, core);
                           }
                       }),
                       "ns"});
    }
    {
        constexpr int kRecords = 24, kFootprints = kOps / kRecords;
        Footprint fp(64);
        Rng rng(seed + 3);
        out.push_back(
            {"htm.footprint_ns",
             nsPerOp(kRecords * kFootprints, [&] {
                 for (int f = 0; f < kFootprints; ++f) {
                     fp.clear();
                     for (int i = 0; i < kRecords; ++i)
                         fp.record(rng.nextBelow(4096),
                                   rng.nextBool(0.4));
                 }
                 keep(fp);
             }),
             "ns"});
    }
    {
        const SystemConfig cfg = makeBaselineConfig();
        PowerToken power;
        ConflictManager cm(cfg, power);
        Rng rng(seed + 4);
        for (unsigned c = 0; c < 16; ++c)
            for (int i = 0; i < 8; ++i)
                cm.addRead(static_cast<CoreId>(c), rng.nextBelow(512));
        out.push_back(
            {"htm.arbitrate_ns", nsPerOp(kOps, [&] {
                 for (int i = 0; i < kOps; ++i)
                     keep(cm.arbitrate(17, rng.nextBelow(512), true,
                                       RequesterClass::Speculative));
             }),
             "ns"});
    }
    {
        constexpr int kPlans = 20000;
        Rng rng(seed + 5);
        Alt alt(32, 4096, 64, 12);
        Crt crt(64, 8);
        Footprint fp(64);
        for (int i = 0; i < 24; ++i)
            fp.record(rng.nextBelow(1 << 20), rng.nextBool(0.4));
        out.push_back({"core.alt_plan_ns", nsPerOp(kPlans, [&] {
                           for (int i = 0; i < kPlans; ++i)
                               keep(alt.buildPlan(fp, crt, false));
                       }),
                       "ns"});
    }
    return out;
}

} // namespace perfbench

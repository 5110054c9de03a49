/**
 * @file
 * The per-layer probes of the traced run: one timing per rung of the
 * stack (event queue, coroutine resume, channel hop, fabric send,
 * Panda unicast and multicast, each MagPIe collective, each app), the
 * scenario fingerprint, the result-cache paths and the analysis calls.
 * Each probe calls a module's public functions and keeps the median of
 * a few repetitions.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/sensitivity.h"
#include "analysis/trace_graph.h"
#include "apps/registry.h"
#include "bench.h"
#include "collective_ops.h"
#include "core/scenario.h"
#include "exec/engine.h"
#include "exec/result_cache.h"
#include "magpie/communicator.h"
#include "magpie/policy.h"
#include "net/config.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "panda/panda.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace perfbench {

namespace {

using tli::Rank;
namespace core = tli::core;
namespace exec = tli::exec;
namespace apps = tli::apps;
namespace analysis = tli::analysis;
namespace magpie = tli::magpie;
namespace net = tli::net;
namespace panda = tli::panda;
namespace sim = tli::sim;

constexpr int kReps = 5;

/** Median host seconds of @p reps calls of @p body. */
template <typename Body>
double
medianSeconds(int reps, Body &&body)
{
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        body();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

void
put(Metrics &out, const std::string &name, double value,
    const char *unit)
{
    out[name] = Metric{value, unit};
}

/** Event queue held at @p pending entries: pop one, push one. */
double
queuePushPopNs(int pending, int ops)
{
    std::uint64_t sink = 0;
    const double s = medianSeconds(kReps, [&] {
        sim::EventQueue q;
        q.reserve(static_cast<std::size_t>(pending));
        std::uint64_t x = 88172645463325252ull;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return static_cast<double>(x % 1000000) * 1e-6;
        };
        for (int i = 0; i < pending; ++i)
            q.push(next(), [&sink, i] { sink += static_cast<unsigned>(i); });
        for (int i = 0; i < ops; ++i) {
            sim::Event e = q.pop();
            e.action();
            q.push(e.when + next(),
                   [&sink, i] { sink += static_cast<unsigned>(i); });
        }
    });
    if (sink == 0)
        std::fprintf(stderr, "event-queue probe ran no actions\n");
    return s / ops * 1e9;
}

sim::Task<void>
sleeper(sim::Simulation *s, int n)
{
    for (int i = 0; i < n; ++i)
        co_await s->sleep(1e-3);
}

sim::Task<void>
pinger(sim::Channel<int> *out, sim::Channel<int> *in, int n)
{
    for (int i = 0; i < n; ++i) {
        out->send(i);
        (void)co_await in->recv();
    }
}

sim::Task<void>
ponger(sim::Channel<int> *in, sim::Channel<int> *out, int n)
{
    for (int i = 0; i < n; ++i) {
        int v = co_await in->recv();
        out->send(v);
    }
}

double
resumeNs(int n)
{
    return medianSeconds(kReps, [n] {
               sim::Simulation s;
               s.spawn(sleeper(&s, n));
               s.run();
           }) /
           n * 1e9;
}

double
channelHopNs(int n)
{
    return medianSeconds(kReps, [n] {
               sim::Simulation s;
               sim::Channel<int> a(s);
               sim::Channel<int> b(s);
               s.spawn(pinger(&a, &b, n));
               s.spawn(ponger(&a, &b, n));
               s.run();
           }) /
           (2.0 * n) * 1e9;
}

net::FabricParams
dasParams()
{
    return net::Profile::das(6.0, 0.5).params();
}

/** Fabric::send plus its delivery event, rank 0 to @p dst on 4 x 8. */
double
fabricSendNs(Rank dst, int n, bool &ok)
{
    const double s = medianSeconds(kReps, [&] {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, dasParams());
        int delivered = 0;
        for (int i = 0; i < n; ++i)
            fabric.send(0, dst, 64, [&delivered] { ++delivered; });
        sim.run();
        ok = ok && delivered == n;
    });
    return s / n * 1e9;
}

sim::Task<void>
receiver(panda::Panda *p, Rank self, int tag, int n, int *got)
{
    for (int i = 0; i < n; ++i) {
        (void)co_await p->recv(self, tag);
        ++*got;
    }
}

/** Panda unicast send plus recv, rank 0 to rank 31 on 4 x 8. */
double
pandaUnicastNs(int n, bool &ok)
{
    const double s = medianSeconds(kReps, [&] {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, dasParams());
        panda::Panda p(sim, fabric);
        int got = 0;
        sim.spawn(receiver(&p, 31, 1, n, &got));
        for (int i = 0; i < n; ++i)
            p.send(0, 31, 1, 64, i);
        sim.run();
        ok = ok && got == n;
    });
    return s / n * 1e9;
}

sim::Task<void>
broadcaster(sim::Simulation *sim, panda::Panda *p, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        p->broadcast(0, 7, 256, i);
        co_await sim->sleep(1e-3);
    }
}

/** Host ns per delivery of a Panda broadcast from rank 0 to 31. */
double
pandaMulticastNs(int rounds, bool &ok)
{
    const int ranks = 32;
    std::vector<int> got(ranks, 0);
    const double s = medianSeconds(kReps, [&] {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, dasParams());
        panda::Panda p(sim, fabric);
        std::fill(got.begin(), got.end(), 0);
        for (Rank r = 1; r < ranks; ++r)
            sim.spawn(receiver(&p, r, 7, rounds, &got[r]));
        sim.spawn(broadcaster(&sim, &p, rounds));
        sim.run();
        for (Rank r = 1; r < ranks; ++r)
            ok = ok && got[r] == rounds;
    });
    return s / (static_cast<double>(rounds) * (ranks - 1)) * 1e9;
}

/**
 * Host µs per call of @p op under the MagPIe policy on 4 x 8 with 64
 * doubles per rank; @p ok turns false if an output is wrong.
 */
double
magpieCallUs(magpie::Op op, std::uint64_t seed, bool &ok)
{
    const int n = 64;
    const std::size_t job = static_cast<std::size_t>(op);
    const std::vector<std::uint64_t> want =
        expectedOutputs(op, n, seed, job);
    std::vector<double> t;
    for (int r = 0; r < kReps; ++r) {
        sim::Simulation sim;
        net::Topology topo(4, 8);
        net::Fabric fabric(sim, topo, dasParams());
        panda::Panda p(sim, fabric);
        magpie::Communicator comm(p, magpie::CollectivePolicy::magpie());
        std::vector<std::uint64_t> got(kCollRanks, 0);
        for (Rank self = 0; self < kCollRanks; ++self)
            sim.spawn(collectiveRank(&comm, op, n, seed, job, self,
                                     &got[self], false));
        const auto t0 = Clock::now();
        sim.run();
        t.push_back(secondsSince(t0));
        ok = ok && got == want;
    }
    return median(t) / kCollCalls * 1e6;
}

std::string
metricApp(const std::string &app)
{
    return "apps." + app;
}

} // namespace

bool
runLayerProbes(std::uint64_t seed, int workers,
               const std::string &scratch_dir, Metrics &out)
{
    bool ok = true;
    const core::Scenario base = paperBase(seed);

    // apps: first call (with its sequential reference), then steady
    // untraced runs interleaved with runs under the analysis sink,
    // whose ratio is the cost of attaching a TraceSink to sim.
    std::map<std::string, core::RunResult> app_result;
    double untraced_sum = 0;
    double traced_sum = 0;
    double traced_run_s = 0;
    double graph_build_s = 0;
    double replay_s = 0;
    for (const core::AppVariant &v : apps::bestVariants()) {
        const std::string key = metricApp(v.app);
        auto t0 = Clock::now();
        core::RunResult first;
        {
            Span span("apps.first_run");
            first = v.run(base);
        }
        put(out, key + ".first_run_s", secondsSince(t0), "s");
        ok = ok && first.verified;
        app_result[v.app] = first;

        std::vector<double> plain;
        std::vector<double> traced;
        for (int r = 0; r < 3; ++r) {
            t0 = Clock::now();
            core::RunResult a = v.run(base);
            plain.push_back(secondsSince(t0));

            analysis::GraphTraceSink sink;
            core::Scenario s = base;
            s.trace = &sink;
            t0 = Clock::now();
            core::RunResult b;
            {
                Span span("analysis.traced_run");
                b = v.run(s);
            }
            traced.push_back(secondsSince(t0));
            ok = ok && a.verified && b.verified &&
                 a.runTime == first.runTime && b.runTime == first.runTime &&
                 b.checksum == first.checksum;
            if (r == 2) {
                // analysis: build and replay the last traced run.
                traced_run_s += traced.back();
                t0 = Clock::now();
                analysis::TraceGraph graph;
                {
                    Span span("analysis.graph_build");
                    graph = analysis::TraceGraph::build(sink, base);
                }
                graph_build_s += secondsSince(t0);
                t0 = Clock::now();
                analysis::PredictionStudy study;
                {
                    Span span("analysis.predict");
                    study = analysis::predictStudy(graph);
                }
                replay_s += secondsSince(t0);
                ok = ok && std::fabs(study.tracePoint.runTimeS - b.runTime) <=
                               1e-9 * b.runTime;
            }
        }
        put(out, key + ".run_s", median(plain), "s");
        untraced_sum += median(plain);
        traced_sum += median(traced);
    }
    put(out, "sim.trace_overhead", traced_sum / untraced_sum, "ratio");
    put(out, "analysis.traced_run_s", traced_run_s, "s");
    put(out, "analysis.graph_build_s", graph_build_s, "s");
    put(out, "analysis.replay_s", replay_s, "s");

    // sim, net, panda, magpie rungs.
    {
        Span span("sim.probes");
        put(out, "sim.queue_push_pop_ns", queuePushPopNs(65536, 1 << 20),
            "ns");
        put(out, "sim.resume_ns", resumeNs(1 << 20), "ns");
        put(out, "sim.channel_hop_ns", channelHopNs(1 << 19), "ns");
    }
    {
        Span span("net.probes");
        put(out, "net.send_intra_ns", fabricSendNs(1, 1 << 17, ok), "ns");
        put(out, "net.send_inter_ns", fabricSendNs(8, 1 << 17, ok), "ns");
    }
    {
        Span span("panda.probes");
        put(out, "panda.unicast_ns", pandaUnicastNs(1 << 17, ok), "ns");
        put(out, "panda.multicast_delivery_ns",
            pandaMulticastNs(2048, ok), "ns");
    }
    {
        Span span("magpie.probes");
        for (int o = 0; o < magpie::kOpCount; ++o) {
            const auto op = static_cast<magpie::Op>(o);
            put(out, std::string("magpie.") + magpie::opName(op) + "_us",
                magpieCallUs(op, seed, ok), "us");
        }
    }

    // core: the content hash every cache lookup and store computes.
    const std::vector<core::ExperimentJob> jobs = paperGridJobs(seed);
    {
        Span span("core.fingerprint");
        std::uint64_t acc = 0;
        const int rounds = 200;
        const double s = medianSeconds(kReps, [&] {
            for (int r = 0; r < rounds; ++r) {
                for (const core::ExperimentJob &j : jobs)
                    acc += j.scenario.fingerprint();
            }
        });
        put(out, "core.fingerprint_us",
            s / (rounds * static_cast<double>(jobs.size())) * 1e6, "us");
        if (acc == 0)
            std::fprintf(stderr, "fingerprint probe folded to zero\n");
    }

    // exec: store every grid cell (each app's probe result under the
    // cell's fingerprint), load each back, then replay the whole grid
    // through the engine from the warm cache.
    {
        const std::string dir = scratch_dir + "/probe-cache";
        std::filesystem::remove_all(dir);
        std::vector<double> store_s;
        std::vector<double> load_s;
        {
            exec::ResultCache cache(dir);
            for (const core::ExperimentJob &j : jobs) {
                const std::string fp =
                    exec::jobFingerprint(j.variant, j.scenario);
                const core::RunResult &r = app_result[j.variant.app];
                auto t0 = Clock::now();
                {
                    Span span("exec.cache_store");
                    cache.store(fp, j, r);
                }
                store_s.push_back(secondsSince(t0));
                t0 = Clock::now();
                std::optional<core::RunResult> back;
                {
                    Span span("exec.cache_load");
                    back = cache.load(fp);
                }
                load_s.push_back(secondsSince(t0));
                ok = ok && back && back->runTime == r.runTime &&
                     back->checksum == r.checksum;
            }
            put(out, "exec.cache_store_us", median(store_s) * 1e6, "us");
            put(out, "exec.cache_load_us", median(load_s) * 1e6, "us");

            exec::Engine engine({workers, &cache, false});
            const auto t0 = Clock::now();
            {
                BatchSpan batch("exec.replay");
                (void)engine.run(jobs);
            }
            put(out, "exec.replay_s", secondsSince(t0), "s");
            ok = ok && engine.lastBatch().cacheHits == jobs.size() &&
                 engine.lastBatch().simulated == 0;
        }
        std::filesystem::remove_all(dir);
    }
    return ok;
}

} // namespace perfbench

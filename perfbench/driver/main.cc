/**
 * @file
 * Benchmark driver entry point.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--scratch DIR]
 *   perfbench_driver --self-test [--seed N] [--scratch DIR]
 *
 * Reference figures only (BENCHMARK.json's command never passes them):
 * --workers N sets the engine worker count (default: every core, at
 * most four) and --sim-threads N runs big_run on the partitioned
 * engine.
 *
 * Untraced (--trace 0): set up the workload several times, warm it up,
 * then run whole timed passes for about S seconds and print the
 * end-to-end metrics. Traced (--trace 1): run the layer probes, one
 * untraced and one traced pass, and print the per-layer metrics. The
 * last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "exec/rss.h"

namespace perfbench {

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selfTest = false;
    std::string scratch = ".bench_build/perfbench-scratch";
    int workers = 0;
    int simThreads = 1;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n"
                 "       perfbench_driver --self-test [--seed N]\n");
    return 2;
}

bool
parse(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
            if (!a.trace && std::strcmp(v, "0") != 0)
                return false;
        } else if (k == "--scratch") {
            a.scratch = v;
        } else if (k == "--workers") {
            a.workers = static_cast<int>(std::strtol(v, &end, 10));
        } else if (k == "--sim-threads") {
            a.simThreads = static_cast<int>(std::strtol(v, &end, 10));
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    if (a.workers < 0 || a.workers > 64 || a.simThreads < 1 ||
        a.simThreads > 16)
        return false;
    if (a.workers == 0) {
        // Every core, at most four.
        const unsigned hw = std::thread::hardware_concurrency();
        a.workers = static_cast<int>(std::clamp(hw, 1u, 4u));
    }
    return a.selfTest || !a.workload.empty();
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, metric] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(),
                    std::isfinite(metric.value) ? metric.value : 0.0,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

void
report(const PassResult &p)
{
    for (const std::string &line : p.problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", line.c_str());
}

double
mib(std::int64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/** --trace 0: the end-to-end metrics. */
int
runUntraced(const Args &a, Workload &w)
{
    // Set up repeatedly for a fixed share of host time; the median
    // is the reported set-up time.
    std::vector<double> setups;
    const auto s0 = Clock::now();
    while (setups.size() < 5 ||
           (secondsSince(s0) < 0.5 && setups.size() < 100000))
        setups.push_back(w.setupOnce());
    w.warmUp();

    std::vector<double> walls;
    std::vector<double> rates;
    std::vector<double> sims;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::uint64_t digest = 0;
    const auto t0 = Clock::now();
    double last = 0;
    do {
        const auto p0 = Clock::now();
        const PassResult p = w.pass();
        last = secondsSince(p0);
        report(p);
        attempted += p.attempted;
        failed += p.failed;
        correct = correct && p.problems.empty();
        if (walls.empty()) {
            digest = p.digest;
        } else if (p.digest != digest) {
            std::fprintf(stderr, "CHECK FAILED: %s pass %zu differs from "
                                 "the first pass of this run\n",
                         w.name().c_str(), walls.size() + 1);
            correct = false;
        }
        walls.push_back(p.wallS);
        rates.push_back(p.simMsgs / p.wallS);
        sims.push_back(p.simS);
    } while (secondsSince(t0) + last <= a.seconds);

    Metrics m;
    m["wall_s"] = {median(walls), "s"};
    m["setup_s"] = {median(setups), "s"};
    m["sim_msgs_per_s"] = {median(rates), "msg/s"};
    m["peak_rss_mib"] = {mib(tli::exec::peakRssBytes()), "MiB"};
    m["sim_s"] = {median(sims), "sim-s"};
    std::fprintf(stderr, "%s seed=%llu: %zu passes, wall %.4g s, setup "
                         "%.4g s; pass walls:",
                 w.name().c_str(), static_cast<unsigned long long>(a.seed),
                 walls.size(), m["wall_s"].value, m["setup_s"].value);
    for (double t : walls)
        std::fprintf(stderr, " %.4g", t);
    std::fprintf(stderr, "\n");
    printResult(correct && failed == 0, attempted, failed, m);
    return 0;
}

/** --trace 1: the per-layer metrics. */
int
runTraced(const Args &a, Workload &w)
{
    Metrics m;
    Tracer tracer;
    Tracer::install(&tracer);
    bool correct = false;
    {
        Span span("bench.probes");
        correct = runLayerProbes(a.seed, a.workers, a.scratch, m);
    }
    Tracer::install(nullptr);
    if (!correct)
        std::fprintf(stderr, "CHECK FAILED: a layer probe's output check\n");

    w.warmUp();
    const PassResult plain = w.pass();
    report(plain);

    Tracer::install(&tracer);
    PassResult traced;
    int root = -1;
    {
        Span span("bench.pass");
        root = span.id();
        traced = w.pass();
    }
    Tracer::install(nullptr);
    report(traced);

    correct = correct && plain.problems.empty() && traced.problems.empty();
    // Tracing observes; it must not change a simulated result.
    if (traced.simS != plain.simS || traced.intraMsgs != plain.intraMsgs ||
        traced.interMsgs != plain.interMsgs ||
        traced.digest != plain.digest) {
        std::fprintf(stderr, "CHECK FAILED: the traced pass differs from "
                             "the untraced pass\n");
        correct = false;
    }

    const std::string path =
        a.scratch + "/trace-" + w.name() + "-seed" +
        std::to_string(a.seed) + ".json";
    if (tracer.writeChrome(path))
        std::fprintf(stderr, "spans written to %s\n", path.c_str());

    m["net.intra_msgs"] = {static_cast<double>(traced.intraMsgs), "count"};
    m["net.inter_msgs"] = {static_cast<double>(traced.interMsgs), "count"};
    m["net.inter_mib"] = {traced.interBytes / (1024.0 * 1024.0), "MiB"};
    const double capacity = traced.workers * traced.batchS;
    m["exec.batch_s"] = {traced.batchS, "s"};
    m["exec.job_s_sum"] = {traced.jobSSum, "s"};
    m["exec.longest_job_s"] = {traced.longestJobS, "s"};
    m["exec.idle_s"] = {std::max(0.0, capacity - traced.jobSSum), "s"};
    m["exec.parallel_efficiency"] = {
        capacity > 0 ? traced.jobSSum / capacity : 0, "ratio"};

    const std::map<std::string, double> self =
        tracer.selfSecondsByLayer(root);
    for (const char *layer :
         {"exec", "apps", "magpie", "analysis", "bench"}) {
        auto it = self.find(layer);
        m[std::string("trace.self_") + layer + "_s"] = {
            it == self.end() ? 0.0 : it->second, "s"};
    }
    m["trace.overhead"] = {traced.wallS / plain.wallS, "ratio"};

    printResult(correct && plain.failed == 0 && traced.failed == 0,
                plain.attempted + traced.attempted,
                plain.failed + traced.failed, m);
    return 0;
}

int
runSelfTest(const Args &a)
{
    bool all = true;
    for (const std::string &name : workloadNames()) {
        std::unique_ptr<Workload> w =
            makeWorkload(name, a.seed, a.workers, 1, a.scratch);
        w->warmUp();
        const bool ok = w->selfTest();
        std::printf("self-test %-12s %s\n", name.c_str(),
                    ok ? "ok: clean pass, corrupted result caught"
                       : "FAILED");
        all = all && ok;
    }
    return all ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args a;
    if (!parse(argc, argv, a))
        return usage();
    std::filesystem::create_directories(a.scratch);
    if (a.selfTest)
        return runSelfTest(a);
    std::unique_ptr<Workload> w =
        makeWorkload(a.workload, a.seed, a.workers, a.simThreads,
                     a.scratch);
    if (!w) {
        std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
        return 2;
    }
    return a.trace ? runTraced(a, *w) : runUntraced(a, *w);
}

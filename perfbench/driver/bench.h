/**
 * @file
 * Shared declarations of the benchmark driver: host clocks, metric
 * records, the in-memory span tracer, the four workloads and the
 * per-layer probes. The driver times calls into the simulator's public
 * API from these files only; nothing here reaches inside src/.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (copied: the caller's order is kept). */
double median(std::vector<double> v);

// ------------------------------------------------------------------
// Output digests

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/** FNV-1a over the eight bytes of @p v. */
inline std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

inline std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

inline std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ------------------------------------------------------------------
// The paper's grid

/** The paper's 4 clusters x 8 processors at @p seed. */
tli::core::Scenario paperBase(std::uint64_t seed);

/**
 * The paper_grid cells in job order: for each of the eleven variants,
 * its all-Myrinet baseline, then the 6 x 7 grid row-major by latency.
 */
std::vector<tli::core::ExperimentJob> paperGridJobs(std::uint64_t seed);

/** One reported number with its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Metrics by name; std::map keeps the printed order stable. */
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------------
// Spans

/**
 * In-memory span recorder for the traced run. A span has a name, host
 * start and end (seconds since the tracer was created), the span that
 * caused it and the host thread that ran it. Spans are recorded only
 * around calls the driver makes into the simulator's modules; the
 * layer is the name's prefix up to the first '.'.
 *
 * Thread-safe: engine workers open job spans concurrently.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        double start = 0;
        double end = -1;
        int parent = -1;
        int thread = 0;
    };

    /** The active tracer, or null when tracing is off (the default). */
    static Tracer *active();
    /** Install (non-null) or remove (null) the active tracer. */
    static void install(Tracer *tracer);

    Tracer();

    int begin(const std::string &name, int parent);
    void end(int id);

    std::vector<Record> records() const;

    /**
     * Self time per layer over span @p root and its descendants,
     * seconds: each span's duration minus the part of its interval
     * that its children cover (their union, so overlapping parallel
     * children are counted once).
     */
    std::map<std::string, double> selfSecondsByLayer(int root) const;

    /** Write every span as a Chrome trace ("X" events, µs). */
    bool writeChrome(const std::string &path) const;

  private:
    int threadIndex();

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    std::map<std::thread::id, int> threads_;
};

/**
 * RAII span. Free when no tracer is active. The parent is the
 * innermost open span on this thread, else the ambient batch span (so
 * a job on an engine worker hangs under the batch that ran it).
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_ = -1;
    int saved_ = -1;
};

/** A span that also marks itself as the ambient parent of job spans
 *  opened on other threads while it is open. */
class BatchSpan
{
  public:
    explicit BatchSpan(const char *name);
    ~BatchSpan();
    BatchSpan(const BatchSpan &) = delete;
    BatchSpan &operator=(const BatchSpan &) = delete;

  private:
    Span span_;
    int saved_;
};

// ------------------------------------------------------------------
// Workloads

/** What one timed pass of a workload did and what its checks found. */
struct PassResult
{
    /** Host seconds of the timed work (checks excluded). */
    double wallS = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Summed simulated run time of every cell, seconds. */
    double simS = 0;
    /** Simulated messages (see the workload for the counter used). */
    double simMsgs = 0;
    std::uint64_t intraMsgs = 0;
    std::uint64_t interMsgs = 0;
    double interBytes = 0;
    /** Order-sensitive digest of every checked output, so a traced
     *  pass can be compared bit for bit with an untraced one. */
    std::uint64_t digest = 0;

    /** Engine batch accounting (one job on one worker when the
     *  workload does not use the engine). */
    double batchS = 0;
    double jobSSum = 0;
    double longestJobS = 0;
    int workers = 1;

    /** One line per failed check, for stderr. */
    std::vector<std::string> problems;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Build everything the pass needs before its first simulated event
     * (scenarios, engine, cache, machines and their processes), then
     * discard it. Returns host seconds.
     */
    virtual double setupOnce() = 0;

    /** Fill lazy per-process state (sequential-reference memos) so
     *  that timed passes are alike. */
    virtual void warmUp() {}

    /** One timed pass with its output checks. */
    virtual PassResult pass() = 0;

    /**
     * Run one pass, then corrupt one result (a checksum, a delivered
     * count, one collective element or one prediction) and re-run the
     * checks. @return true iff the clean pass failed nothing and the
     * corrupted one failed exactly one operation.
     */
    virtual bool selfTest() = 0;
};

/**
 * @param workers engine worker threads.
 * @param sim_threads big_run's ScaleConfig::simThreads (1 = the
 *        default sequential engine; other values serve the reference
 *        figures only).
 * @param scratch_dir a private directory for caches and traces.
 * @return null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, int workers,
                                       int sim_threads,
                                       const std::string &scratch_dir);

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

// ------------------------------------------------------------------
// Layer probes

/**
 * The fixed per-layer probe suite: micro timings of each stack rung,
 * the apps' first and steady run times, the cache paths and the
 * analysis calls. Call first in a fresh process (first_run_s counts
 * the sequential references). Adds its metrics to @p out.
 * @return false if a probe's own output check failed.
 */
bool runLayerProbes(std::uint64_t seed, int workers,
                    const std::string &scratch_dir, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_

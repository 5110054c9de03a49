/**
 * @file
 * The four workloads. Each pass times its calls into the simulator,
 * then checks every output against a property or a result the driver
 * computes itself (never against a stored copy of earlier output).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sensitivity.h"
#include "analysis/trace_graph.h"
#include "apps/common.h"
#include "apps/registry.h"
#include "bench.h"
#include "collective_ops.h"
#include "core/executor.h"
#include "core/scenario.h"
#include "exec/engine.h"
#include "exec/result_cache.h"
#include "exec/scale_workload.h"
#include "magpie/communicator.h"
#include "magpie/policy.h"
#include "net/config.h"
#include "panda/message.h"

namespace perfbench {

namespace {

using tli::Rank;
namespace core = tli::core;
namespace exec = tli::exec;
namespace apps = tli::apps;
namespace analysis = tli::analysis;
namespace magpie = tli::magpie;
namespace net = tli::net;
namespace sim = tli::sim;

std::string
fmt(const char *format, double a, double b = 0, double c = 0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

/** Per-job host seconds, written by the job wrapper on whichever
 *  worker ran the job (each job owns its slot). */
using JobTimes = std::shared_ptr<std::vector<double>>;

/**
 * Wrap @p v so that each call records its host duration in
 * (*times)[slot] and, when tracing, runs inside a span named
 * @p span_name. The wrapped function is what the engine calls.
 */
core::AppVariant
timed(core::AppVariant v, const JobTimes &times, std::size_t slot,
      const char *span_name)
{
    auto inner = v.run;
    v.run = [inner, times, slot,
             span_name](const core::Scenario &s) -> core::RunResult {
        Span span(span_name);
        const auto t0 = Clock::now();
        core::RunResult r = inner(s);
        (*times)[slot] = secondsSince(t0);
        return r;
    };
    return v;
}

/** Engine batch accounting into @p p. */
void
recordBatch(PassResult &p, const exec::BatchStats &b,
            const std::vector<double> &times, int workers)
{
    p.batchS = b.elapsedSeconds;
    p.workers = workers;
    for (double t : times) {
        p.jobSSum += t;
        p.longestJobS = std::max(p.longestJobS, t);
    }
}

void
addTraffic(PassResult &p, const core::RunResult &r)
{
    p.simS += r.runTime;
    p.simMsgs += static_cast<double>(r.traffic.intra.messages +
                                     r.traffic.inter.messages);
    p.intraMsgs += r.traffic.intra.messages;
    p.interMsgs += r.traffic.inter.messages;
    p.interBytes += static_cast<double>(r.traffic.inter.bytes);
}

/** A fresh, empty directory under @p root for one result cache. */
std::string
freshDir(const std::string &root, const char *tag)
{
    static int counter = 0;
    std::string dir =
        root + "/" + tag + "-" + std::to_string(counter++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ------------------------------------------------------------------
// paper_grid

/**
 * Two checksums of one app's answer agree. Barnes-Hut folds partial
 * sums in message-arrival order, so its checksum moves in the last
 * bits with the wide-area point (1 ulp of 3103.13... on the full
 * grid); 1e-12 relative admits that rounding and nothing larger.
 */
bool
sameAnswer(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

/**
 * All eleven app variants over the paper's 6 x 7 bandwidth x latency
 * grid plus each variant's all-Myrinet baseline: 473 simulations
 * through exec::Engine against a result cache in a fresh directory.
 */
class PaperGrid : public Workload
{
  public:
    PaperGrid(std::uint64_t seed, int workers, std::string dir)
        : seed_(seed), workers_(workers), dir_(std::move(dir))
    {
    }

    std::string name() const override { return "paper_grid"; }

    double
    setupOnce() override
    {
        const auto t0 = Clock::now();
        std::vector<core::ExperimentJob> jobs = buildJobs(nullptr);
        const std::string dir = freshDir(dir_, "grid-setup");
        {
            exec::ResultCache cache(dir);
            exec::Engine engine({workers_, &cache, false});
            for (const core::ExperimentJob &j : jobs)
                apps::Machine machine(j.scenario);
        }
        const double s = secondsSince(t0);
        std::filesystem::remove_all(dir);
        return s;
    }

    void
    warmUp() override
    {
        // The first call of each app computes its sequential reference
        // (memoized per input); run the baselines once, uncached.
        std::vector<core::ExperimentJob> jobs;
        for (const core::AppVariant &v : apps::allVariants())
            jobs.push_back({v, paperBase(seed_).asAllMyrinet(), ""});
        exec::Engine engine({workers_, nullptr, false});
        (void)engine.run(jobs);
    }

    PassResult pass() override { return check(run()); }

    bool
    selfTest() override
    {
        State st = run();
        const PassResult clean = check(st);
        st.results[st.results.size() / 2].checksum += 1.0;
        const PassResult bad = check(st);
        return clean.failed == 0 && clean.problems.empty() &&
               bad.failed == 1;
    }

  private:
    struct State
    {
        std::vector<core::ExperimentJob> jobs;
        std::vector<core::RunResult> results;
        PassResult pass;
        std::uint64_t simulated = 0;
    };

    /** The grid's jobs, each wrapped to record its host time. */
    std::vector<core::ExperimentJob>
    buildJobs(const JobTimes &times) const
    {
        std::vector<core::ExperimentJob> jobs = paperGridJobs(seed_);
        if (times) {
            for (std::size_t i = 0; i < jobs.size(); ++i)
                jobs[i].variant =
                    timed(std::move(jobs[i].variant), times, i, "apps.run");
        }
        return jobs;
    }

    State
    run()
    {
        State st;
        auto times = std::make_shared<std::vector<double>>(
            paperGridJobs(seed_).size(), 0.0);
        const std::string dir = freshDir(dir_, "grid-cache");
        const auto t0 = Clock::now();
        {
            BatchSpan batch("exec.batch");
            st.jobs = buildJobs(times);
            exec::ResultCache cache(dir);
            exec::Engine engine({workers_, &cache, false});
            st.results = engine.run(st.jobs);
            st.simulated = engine.lastBatch().simulated;
            recordBatch(st.pass, engine.lastBatch(), *times, workers_);
        }
        st.pass.wallS = secondsSince(t0);
        std::filesystem::remove_all(dir);
        return st;
    }

    PassResult
    check(const State &st) const
    {
        Span span("bench.check");
        PassResult p = st.pass;
        p.digest = kFnvOffset;
        p.attempted = st.jobs.size();
        if (st.results.size() != st.jobs.size() ||
            st.simulated != st.jobs.size()) {
            p.problems.push_back(
                "paper_grid: engine returned " +
                std::to_string(st.results.size()) + " results, " +
                std::to_string(st.simulated) + " simulated, for " +
                std::to_string(st.jobs.size()) + " jobs in a fresh cache");
            p.failed = p.attempted;
            return p;
        }
        // The answer cannot depend on the network: every cell of an
        // app carries the checksum of that app's first all-Myrinet run,
        // up to the rounding of sums combined in arrival order.
        std::map<std::string, double> app_checksum;
        for (std::size_t i = 0; i < st.jobs.size(); ++i) {
            const core::ExperimentJob &j = st.jobs[i];
            const core::RunResult &r = st.results[i];
            if (j.scenario.allMyrinet)
                app_checksum.emplace(j.variant.app, r.checksum);
        }
        for (std::size_t i = 0; i < st.jobs.size(); ++i) {
            const core::ExperimentJob &j = st.jobs[i];
            const core::RunResult &r = st.results[i];
            double busiest = 0;
            for (double c : r.computePerRank)
                busiest = std::max(busiest, c);
            std::string why;
            if (!r.verified)
                why = "not verified";
            else if (!sameAnswer(r.checksum, app_checksum[j.variant.app]))
                why = fmt("checksum %.17g differs from the all-Myrinet "
                          "%.17g",
                          r.checksum, app_checksum[j.variant.app]);
            else if (!(r.runTime > 0) || !std::isfinite(r.runTime))
                why = fmt("run time %g", r.runTime);
            else if (r.runTime < busiest * (1 - 1e-12))
                why = fmt("run time %.17g below the busiest rank's "
                          "compute %.17g",
                          r.runTime, busiest);
            if (!why.empty()) {
                ++p.failed;
                p.problems.push_back("paper_grid " +
                                     j.variant.fullName() + " " +
                                     j.scenario.describe() + ": " + why);
            }
            addTraffic(p, r);
            p.digest = fold(fold(p.digest, bitsOf(r.runTime)),
                            bitsOf(r.checksum));
        }
        return p;
    }

    std::uint64_t seed_;
    int workers_;
    std::string dir_;
};

// ------------------------------------------------------------------
// big_run

/**
 * The synthetic exchange exec::runScaleWorkload on 16 clusters x 1024
 * ranks for 128 rounds, sequential engine, one thread. The exchange is
 * fixed by its configuration: it takes no seed.
 */
class BigRun : public Workload
{
  public:
    explicit BigRun(int sim_threads)
    {
        config_.clusters = 16;
        config_.procsPerCluster = 1024;
        config_.rounds = 128;
        config_.simThreads = sim_threads;
    }

    std::string name() const override { return "big_run"; }

    /**
     * The same exchange with zero rounds: building the machine and its
     * 16 384 processes, which then start and end at once. The host
     * time outside sim.run() is the set-up (and its teardown).
     */
    double
    setupOnce() override
    {
        exec::ScaleConfig empty = config_;
        empty.rounds = 0;
        const auto t0 = Clock::now();
        const exec::ScaleResult r = exec::runScaleWorkload(empty);
        return secondsSince(t0) - r.wallSeconds;
    }

    PassResult pass() override { return check(run()); }

    bool
    selfTest() override
    {
        State st = run();
        const PassResult clean = check(st);
        st.result.delivered -= 1;
        const PassResult bad = check(st);
        return clean.failed == 0 && clean.problems.empty() &&
               bad.failed == 1;
    }

  private:
    struct State
    {
        exec::ScaleResult result;
        double wallS = 0;
    };

    State
    run()
    {
        State st;
        const auto t0 = Clock::now();
        {
            Span span("exec.run_scale_workload");
            st.result = exec::runScaleWorkload(config_);
        }
        st.wallS = secondsSince(t0);
        return st;
    }

    PassResult
    check(const State &st) const
    {
        Span span("bench.check");
        const exec::ScaleResult &r = st.result;
        const std::uint64_t R = static_cast<std::uint64_t>(config_.ranks());
        const std::uint64_t rounds =
            static_cast<std::uint64_t>(config_.rounds);
        // Every rank sends one message around its cluster's ring per
        // round; one rank in 16 also sends one cluster over.
        const std::uint64_t intra = rounds * R;
        const std::uint64_t inter = rounds * (R / 16);

        PassResult p;
        p.wallS = st.wallS;
        p.attempted = 1;
        p.simS = r.simTime;
        p.simMsgs = static_cast<double>(r.delivered);
        p.intraMsgs = intra;
        p.interMsgs = inter;
        // Each message carries the exchange's 1 KiB payload.
        p.interBytes = static_cast<double>(inter) *
                       (1024 + tli::panda::headerBytes);
        p.batchS = st.wallS;
        p.jobSSum = st.wallS;
        p.longestJobS = st.wallS;
        p.workers = 1;
        p.digest = fold(fold(r.digest, bitsOf(r.simTime)), r.delivered);

        std::string why;
        if (r.ranks != config_.ranks())
            why = "ranks " + std::to_string(r.ranks);
        else if (r.sent != intra + inter || r.delivered != intra + inter)
            why = "sent " + std::to_string(r.sent) + ", delivered " +
                  std::to_string(r.delivered) + ", expected " +
                  std::to_string(intra + inter);
        else if (!(r.simTime > 0))
            why = fmt("simulated time %g", r.simTime);
        if (!why.empty()) {
            p.failed = 1;
            p.problems.push_back("big_run: " + why);
        }
        return p;
    }

    exec::ScaleConfig config_;
};

// ------------------------------------------------------------------
// collectives

/** One collective cell: an operation under one algorithm choice at
 *  one payload size and one wide-area point. */
struct CollSpec
{
    magpie::Op op = magpie::Op::barrier;
    /** "flat", "magpie" or "seg". */
    std::string family;
    int elems = 0;
    double bwMBs = 0;
    double latMs = 0;
};

constexpr std::uint32_t kSegmentBytes = 4096;

/**
 * All fourteen collectives x {flat, magpie, seg where supported} x
 * three payload sizes x three wide-area points, one engine job each,
 * on 4 x 8. Every rank's output is checked against the driver's own
 * reference result.
 */
class Collectives : public Workload
{
  public:
    Collectives(std::uint64_t seed, int workers)
        : seed_(seed), workers_(workers)
    {
        const std::pair<double, double> wan[] = {
            {6.3, 0.5}, {0.95, 10}, {0.1, 100}};
        for (int o = 0; o < magpie::kOpCount; ++o) {
            const auto op = static_cast<magpie::Op>(o);
            std::vector<std::string> families = {"flat", "magpie"};
            if (magpie::segmentedSupported(op))
                families.push_back("seg");
            for (const std::string &f : families) {
                for (int elems : {16, 256, 2048}) {
                    for (auto [bw, lat] : wan)
                        specs_.push_back({op, f, elems, bw, lat});
                }
            }
        }
    }

    std::string name() const override { return "collectives"; }

    double
    setupOnce() override
    {
        const auto t0 = Clock::now();
        auto slots = std::make_shared<std::vector<std::uint64_t>>(
            specs_.size() * kCollRanks, 0);
        std::vector<core::ExperimentJob> jobs = buildJobs(slots, nullptr, -1);
        exec::Engine engine({workers_, nullptr, false});
        // Each job's machine and its processes, built but not run.
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            apps::Machine m(jobs[j].scenario);
            for (Rank r = 0; r < kCollRanks; ++r)
                m.spawnWorker(
                    r, collectiveRank(&m.comm(), specs_[j].op,
                                      specs_[j].elems, seed_, j, r,
                                      &(*slots)[j * kCollRanks + r],
                                      false));
        }
        return secondsSince(t0);
    }

    PassResult pass() override { return check(run(-1)); }

    bool
    selfTest() override
    {
        // Corrupt one element of rank 0's first allreduce output.
        long target = -1;
        for (std::size_t j = 0; j < specs_.size(); ++j) {
            if (specs_[j].op == magpie::Op::allreduce) {
                target = static_cast<long>(j);
                break;
            }
        }
        const PassResult clean = check(run(-1));
        const PassResult bad = check(run(target));
        return clean.failed == 0 && clean.problems.empty() &&
               bad.failed == 1;
    }

  private:
    struct State
    {
        std::vector<core::RunResult> results;
        std::shared_ptr<std::vector<std::uint64_t>> slots;
        PassResult pass;
    };

    static magpie::CollectivePolicy
    policyFor(const CollSpec &s)
    {
        if (s.family == "flat")
            return magpie::CollectivePolicy::flat();
        magpie::CollectivePolicy p = magpie::CollectivePolicy::magpie();
        if (s.family == "seg")
            p.set(s.op, magpie::Choice::segmented(kSegmentBytes));
        return p;
    }

    std::vector<core::ExperimentJob>
    buildJobs(const std::shared_ptr<std::vector<std::uint64_t>> &slots,
              const JobTimes &times, long corrupt) const
    {
        std::vector<core::ExperimentJob> jobs;
        jobs.reserve(specs_.size());
        for (std::size_t j = 0; j < specs_.size(); ++j) {
            const CollSpec &s = specs_[j];
            core::AppVariant v;
            v.app = std::string("collective.") + magpie::opName(s.op);
            v.variant = s.family;
            const std::uint64_t seed = seed_;
            const bool bad = static_cast<long>(j) == corrupt;
            v.run = [s, seed, j, slots,
                     bad](const core::Scenario &sc) -> core::RunResult {
                apps::Machine m(sc);
                for (Rank r = 0; r < kCollRanks; ++r)
                    m.spawnWorker(
                        r, collectiveRank(&m.comm(), s.op, s.elems, seed,
                                          j, r,
                                          &(*slots)[j * kCollRanks + r],
                                          bad));
                m.sim().run();
                return m.finishMeasurement(0, true);
            };
            if (times)
                v = timed(std::move(v), times, j, "magpie.job");
            jobs.push_back({std::move(v),
                            paperBase(seed_)
                                .with()
                                .wanBandwidth(s.bwMBs)
                                .wanLatency(s.latMs)
                                .collectives(policyFor(s))
                                .build(),
                            ""});
        }
        return jobs;
    }

    State
    run(long corrupt)
    {
        State st;
        st.slots = std::make_shared<std::vector<std::uint64_t>>(
            specs_.size() * kCollRanks, 0);
        auto times =
            std::make_shared<std::vector<double>>(specs_.size(), 0.0);
        const auto t0 = Clock::now();
        {
            BatchSpan batch("exec.batch");
            std::vector<core::ExperimentJob> jobs =
                buildJobs(st.slots, times, corrupt);
            exec::Engine engine({workers_, nullptr, false});
            st.results = engine.run(jobs);
            recordBatch(st.pass, engine.lastBatch(), *times, workers_);
        }
        st.pass.wallS = secondsSince(t0);
        return st;
    }

    PassResult
    check(const State &st) const
    {
        Span span("bench.check");
        PassResult p = st.pass;
        p.digest = kFnvOffset;
        p.attempted = specs_.size();
        for (std::size_t j = 0; j < specs_.size(); ++j) {
            const CollSpec &s = specs_[j];
            const core::RunResult &r = st.results[j];
            const std::vector<std::uint64_t> want =
                expectedOutputs(s.op, s.elems, seed_, j);
            int wrong = 0;
            for (Rank self = 0; self < kCollRanks; ++self) {
                const std::uint64_t got =
                    (*st.slots)[j * kCollRanks + self];
                if (got != want[self])
                    ++wrong;
                p.digest = fold(p.digest, got);
            }
            if (wrong > 0 || !(r.runTime > 0)) {
                ++p.failed;
                p.problems.push_back(
                    std::string("collectives ") + magpie::opName(s.op) +
                    "/" + s.family + fmt(" elems=%g bw=%g lat=%g: ",
                                         s.elems, s.bwMBs, s.latMs) +
                    std::to_string(wrong) + " ranks with a wrong output" +
                    fmt(", run time %g", r.runTime));
            }
            addTraffic(p, r);
            p.digest = fold(p.digest, bitsOf(r.runTime));
        }
        return p;
    }

    std::uint64_t seed_;
    int workers_;
    std::vector<CollSpec> specs_;
};

// ------------------------------------------------------------------
// predict

/**
 * For each of the six apps (best variant, 4 x 8, default wide area):
 * one traced run, TraceGraph::build and predictStudy over the paper's
 * grid. The checks re-run each app untraced.
 */
class Predict : public Workload
{
  public:
    explicit Predict(std::uint64_t seed) : seed_(seed) {}

    std::string name() const override { return "predict"; }

    double
    setupOnce() override
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < apps::bestVariants().size(); ++i) {
            analysis::GraphTraceSink sink;
            core::Scenario s = paperBase(seed_);
            s.trace = &sink;
            apps::Machine machine(s);
        }
        return secondsSince(t0);
    }

    void
    warmUp() override
    {
        for (const core::AppVariant &v : apps::bestVariants())
            (void)v.run(paperBase(seed_));
    }

    PassResult pass() override { return check(run()); }

    bool
    selfTest() override
    {
        State st = run();
        const PassResult clean = check(st);
        st.cells[2].predicted *= 1 + 1e-6;
        const PassResult bad = check(st);
        return clean.failed == 0 && clean.problems.empty() &&
               bad.failed == 1;
    }

  private:
    struct Cell
    {
        std::string name;
        core::RunResult traced;
        double predicted = 0;
        double gridSum = 0;
        bool gridOk = true;
        double seconds = 0;
    };

    struct State
    {
        std::vector<Cell> cells;
        double wallS = 0;
    };

    State
    run()
    {
        State st;
        const core::Scenario base = paperBase(seed_);
        const auto t0 = Clock::now();
        {
            Span span("analysis.batch");
            for (const core::AppVariant &v : apps::bestVariants()) {
                const auto c0 = Clock::now();
                Cell c;
                c.name = v.fullName();
                analysis::GraphTraceSink sink;
                core::Scenario traced = base;
                traced.trace = &sink;
                {
                    Span span("analysis.traced_run");
                    c.traced = v.run(traced);
                }
                analysis::TraceGraph graph;
                {
                    Span span("analysis.graph_build");
                    graph = analysis::TraceGraph::build(sink, base);
                }
                analysis::PredictionStudy study;
                {
                    Span span("analysis.predict");
                    study = analysis::predictStudy(graph);
                }
                c.predicted = study.tracePoint.runTimeS;
                for (const auto &row : study.runTimeS.values) {
                    for (double t : row) {
                        c.gridSum += t;
                        c.gridOk = c.gridOk && t > 0 && std::isfinite(t);
                    }
                }
                c.seconds = secondsSince(c0);
                st.cells.push_back(std::move(c));
            }
        }
        st.wallS = secondsSince(t0);
        return st;
    }

    PassResult
    check(const State &st) const
    {
        Span span("bench.check");
        PassResult p;
        p.wallS = st.wallS;
        p.digest = kFnvOffset;
        p.attempted = st.cells.size();
        p.batchS = st.wallS;
        p.workers = 1;
        const std::vector<core::AppVariant> variants = apps::bestVariants();
        for (std::size_t i = 0; i < st.cells.size(); ++i) {
            const Cell &c = st.cells[i];
            const core::RunResult &t = c.traced;
            // The same run without a sink must be bit-identical.
            const core::RunResult plain = variants[i].run(paperBase(seed_));
            std::string why;
            if (!t.verified || !plain.verified)
                why = "not verified";
            else if (t.checksum != plain.checksum ||
                     t.runTime != plain.runTime)
                why = fmt("traced run (%.17g s, checksum %.17g) differs "
                          "from the untraced run",
                          t.runTime, t.checksum);
            else if (!(std::fabs(c.predicted - t.runTime) <=
                       1e-9 * t.runTime))
                why = fmt("prediction %.17g s at the traced point, "
                          "simulated %.17g s",
                          c.predicted, t.runTime);
            else if (!c.gridOk)
                why = "a predicted grid cell is not a positive number";
            if (!why.empty()) {
                ++p.failed;
                p.problems.push_back("predict " + c.name + ": " + why);
            }
            addTraffic(p, t);
            p.jobSSum += c.seconds;
            p.longestJobS = std::max(p.longestJobS, c.seconds);
            p.digest = fold(fold(fold(p.digest, bitsOf(t.runTime)),
                                 bitsOf(t.checksum)),
                            bitsOf(c.gridSum));
        }
        return p;
    }

    std::uint64_t seed_;
};

} // namespace

core::Scenario
paperBase(std::uint64_t seed)
{
    return core::ScenarioBuilder()
        .clusters(4)
        .procsPerCluster(8)
        .seed(seed)
        .build();
}

std::vector<core::ExperimentJob>
paperGridJobs(std::uint64_t seed)
{
    const core::Scenario base = paperBase(seed);
    std::vector<core::ExperimentJob> jobs;
    for (const core::AppVariant &v : apps::allVariants()) {
        jobs.push_back({v, base.asAllMyrinet(), ""});
        for (double lat : net::figureLatenciesMs()) {
            for (double bw : net::figureBandwidthsMBs())
                jobs.push_back({v,
                                base.with()
                                    .wanBandwidth(bw)
                                    .wanLatency(lat)
                                    .build(),
                                ""});
        }
    }
    return jobs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_grid", "big_run", "collectives", "predict"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, int workers,
             int sim_threads, const std::string &scratch_dir)
{
    if (name == "paper_grid")
        return std::make_unique<PaperGrid>(seed, workers, scratch_dir);
    if (name == "big_run")
        return std::make_unique<BigRun>(sim_threads);
    if (name == "collectives")
        return std::make_unique<Collectives>(seed, workers);
    if (name == "predict")
        return std::make_unique<Predict>(seed);
    return nullptr;
}

} // namespace perfbench
